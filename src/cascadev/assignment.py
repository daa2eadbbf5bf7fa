"""Point-in-box ownership, target assignment and the stage-decreasing threshold schedule.

A proposal point is positive for a ground-truth box when it lies inside
the box scaled by the stage threshold mu (boundary inclusive). The
schedule interpolates mu from just below mu_max down to mu_min across
stages, so later stages demand points closer to box centers. box_owners
is the one such rule; at mu = 0.5 it is plain point-in-box ownership. It
tests each box only on its geometry.near_pairs candidates, the one
candidate search that voting and clutter rejection share.

Denoising proposals (the scene point nearest each ground-truth center)
keep a fixed assignment to their ground truth regardless of mu; they
exist so every stage always has at least one positive per object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_types
from .geometry import Boxes, contains_points, matched_faces, near_pairs, points_as_array

# Not called here; perfbench/bench_trace.py patches this name on this module.
from .geometry import encode_deltas  # noqa: F401


@dataclass(frozen=True, slots=True)
class CpaSchedule:
    """Decreasing center-scale thresholds over num_stages stages."""

    mu_max: float = 0.4
    mu_min: float = 0.2
    num_stages: int = 3

    def __post_init__(self) -> None:
        check_types(self)
        if not (0.0 < self.mu_min <= self.mu_max <= 1.0):
            raise ValueError(
                f"need 0 < mu_min <= mu_max <= 1, got ({self.mu_min}, {self.mu_max})"
            )
        if self.num_stages < 1:
            raise ValueError(f"need at least one stage, got {self.num_stages}")


def cpa_threshold(l: int, sched: CpaSchedule) -> float:
    """Threshold for stage l in 1..L: mu_max - (l/L)(mu_max - mu_min).

    Non-increasing in l; equals mu_min at the last stage.
    """
    if not (1 <= l <= sched.num_stages):
        raise ValueError(f"stage {l} outside 1..{sched.num_stages}")
    frac = l / sched.num_stages
    return sched.mu_max - frac * (sched.mu_max - sched.mu_min)


def box_owners(points, gts: Boxes, mu: float) -> np.ndarray:
    """Each row's smallest-volume box (lower index on ties) whose mu-scaled copy
    holds it by contains_points, else -1, for an (N, 3) array.

    One contains_points call tests each box only on its near_pairs
    candidates, a superset of the points it holds, so the owners are those
    of testing every point against every box.
    """
    pts = points_as_array(points)
    box, row = near_pairs(pts, gts, mu)
    held = contains_points(gts.centers, gts.sizes, gts.yaws, pts[row], mu, box)
    # Boxes by volume, then index; each row takes the first that holds it.
    order = np.argsort(gts.volumes, kind="stable")
    best = np.full(len(pts), len(gts))
    np.minimum.at(best, row[held], np.argsort(order)[box[held]])
    return np.append(order, -1)[best]


def match_points_to_gt(points, gts: Boxes) -> np.ndarray:
    """Each row's ground-truth box for an (N, 3) array: its box_owners at mu 0.5,
    else the nearest center (np.linalg.norm), the lower index winning a tie."""
    pts = points_as_array(points)
    if len(pts) and not len(gts):
        raise ValueError("cannot match points without ground-truth boxes")
    owner = box_owners(pts, gts, 0.5)
    free = np.flatnonzero(owner < 0)
    if len(free):
        owner[free] = np.argmin(np.linalg.norm(gts.centers - pts[free, None], axis=2), axis=1)
    return owner


@dataclass(frozen=True, slots=True, eq=False)
class Assignment:
    """Match results at one threshold, row i answering point i.

    matched_gt (B,) int64: ground-truth index, -1 when unmatched.
    target_deltas (B, 7): the matched box's six face distances, then its
    yaw; target_centerness (B,): their centerness; both NaN when unmatched.
    target_class (B,) int64: the box's class id, -1 when unmatched or
    class-less. is_denoising (B,) bool: pinned rows, always matched.
    """

    mu: float
    matched_gt: np.ndarray
    target_deltas: np.ndarray
    target_centerness: np.ndarray
    target_class: np.ndarray
    is_denoising: np.ndarray

    @property
    def num_positives(self) -> int:
        return int(np.count_nonzero(self.matched_gt >= 0))

    @property
    def num_regular_positives(self) -> int:
        """Positives that earned their match through the mu rule (no denoising)."""
        return int(np.count_nonzero((self.matched_gt >= 0) & ~self.is_denoising))


def assign_targets(
    points,
    gts: Boxes,
    mu: float,
    *,
    denoising_gt: np.ndarray | None = None,
) -> Assignment:
    """Match each row of the (N, 3) points to a ground truth by box_owners at mu.

    denoising_gt (N,) pins row i to ground truth denoising_gt[i], -1
    leaving it to the rule; pinned rows are matched unconditionally and
    flagged. Returns the Assignment columns, filled in one matched_faces pass.
    """
    if mu <= 0.0:
        raise ValueError(f"assignment threshold must be positive, got {mu}")
    pts = points_as_array(points)
    n = len(pts)
    pins = np.full(n, -1, dtype=np.int64) if denoising_gt is None else np.asarray(denoising_gt)
    if pins.shape != (n,):
        raise ValueError(f"denoising_gt has shape {pins.shape}, expected ({n},)")
    bad = (pins < -1) | (pins >= len(gts))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"denoising_gt[{i}] = {pins[i]} outside [-1, {len(gts)})")
    matched = box_owners(pts, gts, mu)
    is_denoising = pins >= 0
    matched[is_denoising] = pins[is_denoising]

    pos = np.flatnonzero(matched >= 0)
    faces, cent = matched_faces(gts, pts[pos], matched[pos])
    # A trailing entry answers matched_gt == -1 in the per-box gathers.
    yaws = np.append(gts.yaws, np.nan)
    classes = np.append(gts.class_ids, -1)
    target_deltas = np.full((n, 7), np.nan)
    target_deltas[pos, :6] = faces
    target_deltas[:, 6] = yaws[matched]
    target_centerness = np.full(n, np.nan)
    target_centerness[pos] = cent
    return Assignment(
        mu=mu,
        matched_gt=matched,
        target_deltas=target_deltas,
        target_centerness=target_centerness,
        target_class=classes[matched],
        is_denoising=is_denoising,
    )


def select_denoising(all_points, gt_centers, k: int = 1) -> list[int]:
    """Indices of the k l1-nearest rows of the (N, 3) all_points for each row of
    the (G, 3) gt_centers.

    Center by center, each group nearest first with ties broken by lower
    index, min(k, len(all_points)) indices per center; the same point may
    serve several centers.
    """
    if len(all_points) == 0:
        raise ValueError("cannot pick denoising points from an empty point set")
    pts = points_as_array(all_points)
    out: list[int] = []
    for c in points_as_array(gt_centers):
        dist = np.sum(np.abs(pts - c), axis=1)
        out.extend(np.argsort(dist, kind="stable")[:k].tolist())
    return out


def select_top_b(predicted_centerness: list[float] | np.ndarray, b: int) -> list[int]:
    """Indices of the b largest values, descending, ties (0.0 and -0.0 too) by lower index."""
    if b < 1:
        raise ValueError(f"need b >= 1, got {b}")
    values = np.asarray(predicted_centerness, dtype=np.float64)
    return np.argsort(-values, kind="stable")[:b].tolist()
