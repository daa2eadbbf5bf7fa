"""Procedural scenes and the noisy stand-in predictor.

A scene is a handful of non-overlapping oriented boxes in a desk-scale
workspace, surface points sampled uniformly over each box's faces
(area-weighted), and uniform clutter points that lie inside no box.
Per-point features concatenate the offset to the owning box center and
the box's class one-hot, each with Gaussian noise, padded with noise to
a fixed width; clutter features are pure standard-normal noise. Point
order is shuffled so no consumer can rely on generation order.

The oracle predictor replaces a trained network: it matches a proposal
point to its containing box (else the nearest center) with
assignment.match_points_to_gt, the one point-in-box rule at mu = 0.5,
and emits the true regression targets corrupted by configurable noise. All
randomness flows through counter-based generators keyed by the seed,
so identical (config, seed) pairs reproduce scenes and predictions
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assignment import box_owners, match_points_to_gt, select_denoising, select_top_b
from .cascade import Predictions, Proposals
from .config import check_types
from .errors import ConfigError, PlacementError
from .geometry import MAX_COORD, Boxes, OrientedBox, Point3, contains_points, matched_faces
from .overlap import pair_ious

# Not called here; perfbench/bench_trace.py patches these names on this module.
from .geometry import encode_deltas  # noqa: F401
from .overlap import iou_rotated  # noqa: F401

# Gap enforced between placed boxes so pairwise rotated IoU is robustly zero.
_PLACEMENT_GAP = 0.04
_PLACEMENT_RETRIES = 1000
_MIN_DECODED_SIZE = 0.01


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True, slots=True)
class SceneConfig:
    """Everything the generator needs apart from the seed."""

    num_gt: tuple[int, int] = (2, 4)
    size_range: tuple[tuple[float, float], ...] = ((0.45, 1.3), (0.45, 1.3), (0.4, 1.1))
    yaw_enabled: bool = False
    points_per_box: int = 260
    num_clutter: int = 900
    workspace: tuple[tuple[float, float], ...] = ((-4.0, 4.0), (-4.0, 4.0), (0.0, 2.6))
    num_classes: int = 5
    sigma_feature: float = 0.05
    feature_dim: int = 16

    def __post_init__(self) -> None:
        check_types(self)
        lo, hi = self.num_gt
        if not (1 <= lo <= hi):
            raise ValueError(f"invalid num_gt range {self.num_gt}")
        if len(self.size_range) != 3 or len(self.workspace) != 3:
            raise ValueError("size_range and workspace need one (lo, hi) pair per axis")
        for a, b in self.size_range:
            if not (0.0 < a <= b):
                raise ValueError(f"invalid size range ({a}, {b})")
        for a, b in self.workspace:
            if not (a < b):
                raise ValueError(f"invalid workspace extent ({a}, {b})")
        # Every box the config draws then decodes within MAX_COORD, as decode_boxes requires.
        for name, ranges in (("size_range", self.size_range), ("workspace", self.workspace)):
            for axis, (a, b) in zip("xyz", ranges):
                if not (abs(a) <= MAX_COORD and abs(b) <= MAX_COORD):
                    raise ValueError(f"{name} {axis} range ({a}, {b}) reaches beyond "
                                     f"{MAX_COORD:g} in magnitude")
        # Placement keeps every box inside the workspace, a yawed one within its
        # footprint diagonal, so an axis narrower than the smallest box the
        # config can draw fails every draw.
        need = [a for a, _ in self.size_range]
        if self.yaw_enabled:
            need[0] = need[1] = math.hypot(need[0], need[1])
        for axis, smallest, (a, b) in zip("xyz", need, self.workspace):
            if b - a < smallest:
                raise ValueError(f"workspace {axis} width {b - a:g} is narrower than the "
                                 f"smallest box the config draws ({smallest:g})")
        if self.points_per_box < 1 or self.num_clutter < 0:
            raise ValueError("need points_per_box >= 1 and num_clutter >= 0")
        if self.num_classes < 1:
            raise ValueError("need at least one class")
        if self.sigma_feature < 0.0:
            raise ValueError("sigma_feature must be >= 0")
        if self.feature_dim < 3 + self.num_classes:
            raise ValueError(
                f"feature_dim {self.feature_dim} too small for offset + "
                f"{self.num_classes}-class one-hot"
            )


@dataclass(frozen=True, slots=True, eq=False)
class SyntheticScene:
    """Ground truth, points, features, and per-point ownership labels.

    Row i of points (N, 3), features (N, F) and point_gt_labels (N,) int64
    is scene point i; its label is its box's row in gt_boxes, or -1 for clutter.
    """

    gt_boxes: Boxes
    points: np.ndarray
    features: np.ndarray
    point_gt_labels: np.ndarray
    seed: int
    config: SceneConfig

    @property
    def num_points(self) -> int:
        return len(self.points)


@dataclass(frozen=True, slots=True)
class OracleNoise:
    """Noise knobs for the stand-in predictor. All zeros = exact oracle."""

    sigma_delta: float = 0.0
    sigma_heading: float = 0.0
    p_class_flip: float = 0.0
    centerness_bias: float = 0.0

    def __post_init__(self) -> None:
        check_types(self)
        if self.sigma_delta < 0.0 or self.sigma_heading < 0.0 or self.centerness_bias < 0.0:
            raise ValueError("noise magnitudes must be >= 0")
        if not (0.0 <= self.p_class_flip < 1.0):
            raise ValueError(f"p_class_flip must lie in [0, 1), got {self.p_class_flip}")


def _grow(size: tuple[float, float, float]) -> tuple[float, float, float]:
    return tuple(s + _PLACEMENT_GAP for s in size)


def _place_boxes(cfg: SceneConfig, rng: np.random.Generator) -> list[OrientedBox]:
    count = int(rng.integers(cfg.num_gt[0], cfg.num_gt[1] + 1))
    boxes: list[OrientedBox] = []
    grown_placed: list[OrientedBox] = []
    (x0, x1), (y0, y1), (z0, z1) = cfg.workspace
    for _ in range(count):
        placed = False
        for _ in range(_PLACEMENT_RETRIES):
            size = tuple(float(rng.uniform(a, b)) for a, b in cfg.size_range)
            yaw = float(rng.uniform(-math.pi, math.pi)) if cfg.yaw_enabled else 0.0
            # Keep the whole footprint inside the workspace: yawed boxes
            # reserve their circumradius, axis-aligned ones their half-extent.
            if cfg.yaw_enabled:
                rx = ry = math.hypot(size[0], size[1]) / 2.0
            else:
                rx, ry = size[0] / 2.0, size[1] / 2.0
            rz = size[2] / 2.0
            if x1 - x0 < 2 * rx or y1 - y0 < 2 * ry or z1 - z0 < 2 * rz:
                continue
            center = Point3(
                float(rng.uniform(x0 + rx, x1 - rx)),
                float(rng.uniform(y0 + ry, y1 - ry)),
                float(rng.uniform(z0 + rz, z1 - rz)),
            )
            cand = OrientedBox(center, size, yaw=yaw, class_id=int(rng.integers(cfg.num_classes)))
            # Checking slightly inflated boxes keeps a real gap between
            # neighbors, so the zero-IoU invariant survives any epsilon.
            grown = OrientedBox(center, _grow(size), yaw=yaw)
            rows, k = Boxes.of([grown, *grown_placed]), len(grown_placed)
            ious = pair_ious(rows, np.zeros(k, dtype=np.int64), rows, np.arange(1, k + 1))
            if (ious == 0.0).all():
                boxes.append(cand)
                grown_placed.append(grown)
                placed = True
                break
        if not placed:
            raise PlacementError(
                f"could not place box {len(boxes) + 1} of {count} after "
                f"{_PLACEMENT_RETRIES} attempts; workspace too crowded"
            )
    return boxes


def _surface_points(center: list[float], size: list[float], yaw: float, count: int,
                    rng: np.random.Generator) -> np.ndarray:
    w, l, h = size
    areas = np.array([l * h, l * h, w * h, w * h, w * l, w * l])
    per_face = rng.multinomial(count, areas / areas.sum())
    local = np.empty((count, 3))
    row = 0
    for face, n in enumerate(per_face):
        if n == 0:
            continue
        u = rng.uniform(-0.5, 0.5, size=n)
        v = rng.uniform(-0.5, 0.5, size=n)
        block = local[row : row + n]
        axis = face // 2
        sign = 1.0 if face % 2 == 0 else -1.0
        if axis == 0:
            block[:, 0] = sign * w / 2.0
            block[:, 1] = u * l
            block[:, 2] = v * h
        elif axis == 1:
            block[:, 0] = u * w
            block[:, 1] = sign * l / 2.0
            block[:, 2] = v * h
        else:
            block[:, 0] = u * w
            block[:, 1] = v * l
            block[:, 2] = sign * h / 2.0
        row += n
    c, s = math.cos(yaw), math.sin(yaw)
    world = np.empty_like(local)
    world[:, 0] = c * local[:, 0] - s * local[:, 1] + center[0]
    world[:, 1] = s * local[:, 0] + c * local[:, 1] + center[1]
    world[:, 2] = local[:, 2] + center[2]
    return world


def _clutter_points(cfg: SceneConfig, boxes: Boxes, rng: np.random.Generator) -> np.ndarray:
    lows = np.array([a for a, _ in cfg.workspace])
    highs = np.array([b for _, b in cfg.workspace])
    out: list[np.ndarray] = []
    need = cfg.num_clutter
    for _ in range(_PLACEMENT_RETRIES):
        if need == 0:
            break
        batch = rng.uniform(lows, highs, size=(max(need * 2, 64), 3))
        inside_any = np.zeros(len(batch), dtype=bool)
        for center, size, yaw in zip(boxes.centers, boxes.sizes, boxes.yaws.tolist()):
            inside_any |= contains_points(center, size, yaw, batch)
        keep = batch[~inside_any][:need]
        out.append(keep)
        need -= len(keep)
    if need:
        raise PlacementError(
            f"placed only {cfg.num_clutter - need} of {cfg.num_clutter} clutter points "
            f"outside the boxes after {_PLACEMENT_RETRIES} batches; workspace too crowded"
        )
    return np.concatenate(out) if out else np.zeros((0, 3))


def gen_scene(cfg: SceneConfig, seed: int) -> SyntheticScene:
    """Generate one scene deterministically from (cfg, seed).

    Raises ConfigError when sigma_feature is so large that a feature
    overflows, and PlacementError when the workspace is too crowded.
    """
    rng = _rng(seed)
    gts = Boxes.of(_place_boxes(cfg, rng))
    blocks = [_surface_points(center, size, yaw, cfg.points_per_box, rng) for center, size, yaw
              in zip(gts.centers.tolist(), gts.sizes.tolist(), gts.yaws.tolist())]
    blocks.append(_clutter_points(cfg, gts, rng))
    pts = np.concatenate(blocks)
    n = len(pts)
    # One surface block per box, then the clutter block, labelled -1.
    label_arr = np.repeat(np.append(np.arange(len(gts)), -1), [len(b) for b in blocks])

    feats = np.empty((n, cfg.feature_dim))
    for gi, (center, class_id) in enumerate(zip(gts.centers, gts.class_ids.tolist())):
        rows = label_arr == gi
        k = int(rows.sum())
        block = np.zeros((k, cfg.feature_dim))
        block[:, :3] = center - pts[rows] + rng.normal(0.0, cfg.sigma_feature, size=(k, 3))
        block[:, 3 + class_id] = 1.0
        block[:, 3 : 3 + cfg.num_classes] += rng.normal(
            0.0, cfg.sigma_feature, size=(k, cfg.num_classes)
        )
        pad = cfg.feature_dim - 3 - cfg.num_classes
        if pad:
            block[:, -pad:] = rng.normal(0.0, cfg.sigma_feature, size=(k, pad))
        feats[rows] = block
    clutter_rows = label_arr == -1
    feats[clutter_rows] = rng.normal(0.0, 1.0, size=(int(clutter_rows.sum()), cfg.feature_dim))
    if not np.isfinite(feats).all():
        raise ConfigError(f"sigma_feature {cfg.sigma_feature} is too large: scene {seed}'s "
                          "feature noise overflows to non-finite values")

    perm = rng.permutation(n)
    return SyntheticScene(
        gt_boxes=gts,
        points=pts[perm],
        features=feats[perm],
        point_gt_labels=label_arr[perm],
        seed=seed,
        config=cfg,
    )


def _guard_extents(d: np.ndarray) -> np.ndarray:
    """(B, 6) delta rows, each pair widened where needed so its implied
    extent stays decodable.

    Only a pair whose sum is below _MIN_DECODED_SIZE moves: both entries
    gain half the shortfall. Every other entry keeps its bits, -0.0
    included. A NaN sum is not below the floor, so it passes unchanged.
    """
    out = d.copy()
    for a in (0, 2, 4):
        total = out[:, a] + out[:, a + 1]
        low = np.flatnonzero(total < _MIN_DECODED_SIZE)
        shift = (_MIN_DECODED_SIZE - total[low]) / 2.0
        out[low, a] += shift
        out[low, a + 1] += shift
    return out


def oracle_predictor(scene: SyntheticScene, noise: OracleNoise, seed: int = 0):
    """A Proposals -> Predictions predictor built from the scene's ground truth.

    Matches every proposal point to its box at once (containing, else
    nearest center) and emits the true targets under the configured
    noise. Class probabilities carry a trailing background entry, always
    zero here. Noise draws come from a generator keyed by (scene seed,
    seed) and are taken proposal by proposal in row order, so only the
    sequence of proposals across calls must stay fixed for
    reproducibility; the cascade calls its predictors stage by stage.
    Per proposal, each knob above zero draws in turn: six extent scales
    from normal(1, sigma_delta), a heading offset from normal(0,
    sigma_heading), a flip test from random() and, on a flip, the new
    class from integers(num_classes - 1), and a centerness offset from
    normal(). A knob at zero draws nothing. Only the draws loop over
    proposals: scaling the face distances, _guard_extents, the heading
    add and the centerness clip each run once on the whole batch.
    Raises ValueError without ground truth or for a box without a class id.
    """
    gts = scene.gt_boxes
    if not len(gts):
        raise ValueError("oracle needs at least one ground-truth box")
    classless = np.flatnonzero(gts.class_ids < 0)
    if len(classless):
        raise ValueError(f"ground-truth box {classless[0]} has no class id to predict")
    rng = _rng((scene.seed << 1) ^ seed)
    n_classes = scene.config.num_classes
    flips = noise.p_class_flip > 0.0 and n_classes > 1

    def predict(proposals: Proposals) -> Predictions:
        owner = match_points_to_gt(proposals.points, gts)
        faces, cent = matched_faces(gts, proposals.points, owner)
        classes = gts.class_ids[owner]
        n = len(owner)
        # The draws alone go proposal by proposal, in the per-proposal
        # order; the arithmetic on them runs once on the columns.
        scale = np.empty((n, 6))
        turn = np.empty(n)
        flip = np.full(n, -1, dtype=np.int64)
        nudge = np.empty(n)
        for i in range(n):
            if noise.sigma_delta > 0.0:
                scale[i] = rng.normal(1.0, noise.sigma_delta, size=6)
            if noise.sigma_heading > 0.0:
                turn[i] = rng.normal(0.0, noise.sigma_heading)
            if flips and rng.random() < noise.p_class_flip:
                flip[i] = rng.integers(n_classes - 1)
            if noise.centerness_bias > 0.0:
                nudge[i] = rng.normal()
        if noise.sigma_delta > 0.0:
            # Overflowed extents go unwarned: the cascade's _validate rejects them.
            with np.errstate(over="ignore", invalid="ignore"):
                faces = _guard_extents(faces * scale)
        deltas = np.column_stack([faces, gts.yaws[owner]])
        if noise.sigma_heading > 0.0:
            deltas[:, 6] += turn
        # A flip's draw indexes the classes other than the row's own.
        rows = np.flatnonzero(flip >= 0)
        classes[rows] = flip[rows] + (flip[rows] >= classes[rows])
        if noise.centerness_bias > 0.0:
            # An offset that overflows clips to 0 or 1 like any other.
            with np.errstate(over="ignore"):
                cent = np.clip(cent + noise.centerness_bias * nudge, 0.0, 1.0)
        probs = np.eye(n_classes + 1)[classes]
        return Predictions(class_probs=probs, deltas=deltas, centerness=cent)

    return predict


def scene_proposals(
    scene: SyntheticScene,
    predicted_centerness: list[float] | np.ndarray,
    b: int,
    *,
    denoising_k: int = 0,
) -> Proposals:
    """Top-b scene points by predicted centerness, as stage-1 proposals.

    With denoising_k >= 1, the denoising_k points nearest each
    ground-truth center (l1 distance) are appended with a pinned
    assignment to that box; those points are reassigned, never kept as
    plain candidates too, so no point carries two labels. denoising_k=1
    is the plain nearest-point rule; larger groups give a trainable
    head broader positive coverage during cold start. denoising_k=0
    appends no group. predicted_centerness needs one value per scene point.
    """
    if denoising_k < 0:
        raise ValueError(f"need denoising_k >= 0, got {denoising_k}")
    if len(predicted_centerness) != scene.num_points:
        raise ValueError(f"{len(predicted_centerness)} predicted centerness values for "
                         f"{scene.num_points} scene points")
    group: list[tuple[int, int]] = []
    if denoising_k:
        nearest = select_denoising(scene.points, scene.gt_boxes.centers, denoising_k)
        per_gt = min(denoising_k, scene.num_points)
        group = [(j // per_gt, pi) for j, pi in enumerate(nearest)]
    taken = {pi for _, pi in group}
    chosen = [i for i in select_top_b(predicted_centerness, b + len(taken))
              if i not in taken][:b]
    rows = chosen + [pi for _, pi in group]
    return Proposals(
        points=scene.points[rows],
        features=scene.features[rows],
        origin_index=np.array(rows, dtype=np.int64),
        denoising_gt=np.array([-1] * len(chosen) + [gi for gi, _ in group], dtype=np.int64),
    )


def oracle_seed_centerness(scene: SyntheticScene, noise: OracleNoise, seed: int = 0) -> np.ndarray:
    """Per-point predicted centerness used to pick stage-1 proposals.

    Mirrors what a trained point head would supply: the true centerness
    of each point against its matched box, with the oracle's centerness
    noise applied. Draws come from a separate stream keyed alongside
    the oracle's, keeping selection independent of prediction noise.
    A point in no box (box_owners at mu 0.5) would score 0 against any
    box, so only the contained points are measured.
    """
    gts = scene.gt_boxes
    if scene.num_points and not len(gts):
        raise ValueError("cannot match points without ground-truth boxes")
    owner = box_owners(scene.points, gts, 0.5)
    inside = np.flatnonzero(owner >= 0)
    vals = np.zeros(scene.num_points)
    vals[inside] = matched_faces(gts, scene.points[inside], owner[inside])[1]
    if noise.centerness_bias > 0.0:
        rng = _rng((scene.seed << 1) ^ seed ^ 0x5EED)
        with np.errstate(over="ignore"):
            vals = np.clip(vals + noise.centerness_bias * rng.normal(size=len(vals)), 0.0, 1.0)
    return vals
