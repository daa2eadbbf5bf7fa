"""3D box overlap (axis-aligned and yaw-rotated IoU) and greedy NMS.

Rotated IoU is computed as BEV polygon intersection area times vertical
extent overlap: the two footprints are convex quadrilaterals, so the
intersection comes from Sutherland-Hodgman clipping. Near-zero BEV
intersection areas (< 1e-12) are treated as empty. Callers that compare
many boxes build each box's `Footprint` once from box columns and apply
`footprint_iou` per pair; `iou_rotated` is the one-pair case of the same
rule. NMS reads a `Detections` batch of columns and returns row indices.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import WrongVariantError
from .geometry import Boxes, OrientedBox, Point3

_AREA_EPS = 1e-12


@dataclass(frozen=True, slots=True)
class Detection:
    """A scored, classified box attributed to the decoder stage that produced it."""

    box: OrientedBox
    score: float
    class_id: int
    stage: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise ValueError(f"detection score outside [0, 1]: {self.score}")


@dataclass(frozen=True, slots=True, eq=False)
class Detections(Boxes):
    """Scored boxes as columns: the Boxes columns, then scores (N,) in [0, 1]."""

    scores: np.ndarray

    def rows(self, stage, index=slice(None)) -> list[Detection]:
        """Detection rows at index (default all), of stage: one int, or one per row."""
        cols = [c[index].tolist()
                for c in (self.centers, self.sizes, self.yaws, self.class_ids, self.scores)]
        stages = np.broadcast_to(stage, len(cols[-1])).tolist()
        return [
            Detection(OrientedBox(Point3(*c), tuple(size), yaw, class_id=k), p, k, st)
            for c, size, yaw, k, p, st in zip(*cols, stages)
        ]


def _axis_overlap(c1: float, s1: float, c2: float, s2: float) -> float:
    lo = max(c1 - s1 / 2.0, c2 - s2 / 2.0)
    hi = min(c1 + s1 / 2.0, c2 + s2 / 2.0)
    return max(0.0, hi - lo)


def iou_aabb(a: OrientedBox, b: OrientedBox) -> float:
    """Axis-aligned 3D IoU. Both boxes must have yaw 0.

    Raises WrongVariantError for a rotated box; use iou_rotated there.
    """
    if a.yaw != 0.0 or b.yaw != 0.0:
        raise WrongVariantError(
            f"axis-aligned IoU called on rotated boxes (yaws {a.yaw}, {b.yaw})"
        )
    ox = _axis_overlap(a.center.x, a.size[0], b.center.x, b.size[0])
    oy = _axis_overlap(a.center.y, a.size[1], b.center.y, b.size[1])
    oz = _axis_overlap(a.center.z, a.size[2], b.center.z, b.size[2])
    inter = ox * oy * oz
    if inter <= 0.0:
        return 0.0
    union = a.volume + b.volume - inter
    return inter / union


class Footprint(NamedTuple):
    """What rotated IoU needs of one box, computed once per box.

    key is the box's (x, y, z, w, l, h, yaw), for the identical-box shortcut;
    corners are the footprint corners as Python floats, so clipping runs
    on plain floats rather than NumPy scalars.
    """

    key: tuple
    corners: list[list[float]]
    x: float
    y: float
    z_lo: float
    z_hi: float
    radius: float
    volume: float


# Corner order of a footprint: counterclockwise from (+w/2, +l/2).
_CORNER_SIGNS = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def _corner_array(boxes: Boxes) -> np.ndarray:
    """(N, 4, 2) footprint corners of boxes, counterclockwise.

    One stacked matmul runs the same per-box product as a single (4, 2)
    @ (2, 2), so every row is bit-equal to the one-box case.
    """
    local = (boxes.sizes[:, :2] / 2.0)[:, None, :] * _CORNER_SIGNS
    c = np.array([math.cos(yaw) for yaw in boxes.yaws.tolist()])
    s = np.array([math.sin(yaw) for yaw in boxes.yaws.tolist()])
    rot = np.stack([np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1)
    return local @ rot.transpose(0, 2, 1) + boxes.centers[:, None, :2]


def footprints(boxes: Boxes) -> list[Footprint]:
    """Footprints of boxes, corners from one batched product."""
    return [
        Footprint(key=(x, y, z, w, l, h, yaw), corners=corners, x=x, y=y, z_lo=z - h / 2.0,
                  z_hi=z + h / 2.0, radius=math.hypot(w, l) / 2.0, volume=w * l * h)
        for (x, y, z), (w, l, h), yaw, corners in zip(
            boxes.centers.tolist(), boxes.sizes.tolist(), boxes.yaws.tolist(),
            _corner_array(boxes).tolist())
    ]


def _polygon_area(poly: list) -> float:
    """Shoelace area; positive for counterclockwise vertex order."""
    if len(poly) < 3:
        return 0.0
    acc = 0.0
    for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
        acc += x1 * y2 - x2 * y1
    return acc / 2.0


def _clip_convex(subject: list, clip: list) -> list:
    """Sutherland-Hodgman: clip a polygon against a counterclockwise convex one."""
    output = subject
    for (ax, ay), (bx, by) in zip(clip, clip[1:] + clip[:1]):
        if not output:
            break
        ex, ey = bx - ax, by - ay
        input_list = output
        output = []
        px, py = input_list[-1]
        prev_side = ex * (py - ay) - ey * (px - ax)
        for cur in input_list:
            cx, cy = cur
            cur_side = ex * (cy - ay) - ey * (cx - ax)
            if cur_side >= 0.0:
                if prev_side < 0.0:
                    t = prev_side / (prev_side - cur_side)
                    output.append((px + t * (cx - px), py + t * (cy - py)))
                output.append(cur)
            elif prev_side >= 0.0:
                t = prev_side / (prev_side - cur_side)
                output.append((px + t * (cx - px), py + t * (cy - py)))
            px, py, prev_side = cx, cy, cur_side
    return output


def _intersection_area(a: Footprint, b: Footprint) -> float:
    area = abs(_polygon_area(_clip_convex(a.corners, b.corners)))
    return 0.0 if area < _AREA_EPS else area


def bev_intersection_area(a: OrientedBox, b: OrientedBox) -> float:
    """Footprint intersection area of two boxes; < 1e-12 collapses to 0."""
    return _intersection_area(*footprints(Boxes.of([a, b])))


def footprint_iou(a: Footprint, b: Footprint) -> float:
    """Yaw-aware 3D IoU of two footprints: BEV intersection times z overlap."""
    if a.key == b.key:
        return 1.0
    oz = min(a.z_hi, b.z_hi) - max(a.z_lo, b.z_lo)
    if not oz > 0.0:
        return 0.0
    # Footprints cannot meet when the center gap exceeds both circumradii.
    if math.hypot(a.x - b.x, a.y - b.y) > a.radius + b.radius:
        return 0.0
    area = _intersection_area(a, b)
    if area <= 0.0:
        return 0.0
    inter = area * oz
    union = a.volume + b.volume - inter
    return inter / union


def iou_rotated(a: OrientedBox, b: OrientedBox) -> float:
    """Yaw-aware 3D IoU: BEV polygon intersection times z-extent overlap.

    The one-pair case of footprint_iou; callers comparing many boxes
    should build their footprints once instead.
    """
    return footprint_iou(*footprints(Boxes.of([a, b])))


def iou_mc(a: OrientedBox, b: OrientedBox, n_samples: int, seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo IoU estimate and its standard error.

    Samples uniformly inside box a, counts the fraction landing in b,
    converts the hit rate to an intersection volume, and propagates the
    binomial error through the IoU ratio. Slow by design; this is the
    measurement oracle the analytic IoU is validated against.
    """
    rng = np.random.default_rng(seed)
    u = rng.random((3, n_samples))
    qx = (u[0] - 0.5) * a.size[0]
    qy = (u[1] - 0.5) * a.size[1]
    qz = (u[2] - 0.5) * a.size[2]
    # One composed transform takes a-frame samples straight into b's
    # frame: Rz(b)^T Rz(a) = Rz(a - b), plus the rotated center offset.
    c = math.cos(a.yaw - b.yaw)
    s = math.sin(a.yaw - b.yaw)
    cb = math.cos(b.yaw)
    sb = math.sin(b.yaw)
    dx = a.center.x - b.center.x
    dy = a.center.y - b.center.y
    tx = cb * dx + sb * dy
    ty = -sb * dx + cb * dy
    tz = a.center.z - b.center.z
    hits = (
        (np.abs(c * qx - s * qy + tx) <= b.size[0] / 2.0)
        & (np.abs(s * qx + c * qy + ty) <= b.size[1] / 2.0)
        & (np.abs(qz + tz) <= b.size[2] / 2.0)
    )
    p = float(np.mean(hits))
    inter = p * a.volume
    union = a.volume + b.volume - inter
    if union <= 0.0:
        return 0.0, 0.0
    iou = inter / union
    se_p = math.sqrt(max(p * (1.0 - p), 0.0) / n_samples)
    # d(iou)/d(inter) with union = volA + volB - inter:
    se_iou = (a.volume + b.volume) / union**2 * a.volume * se_p
    return iou, se_iou


def nms(dets: Detections, iou_threshold: float) -> list[int]:
    """Greedy class-wise NMS; returns kept row indices into dets.

    Detections are visited by descending score (ties by lower row
    index); one is suppressed iff its rotated IoU with an already-kept
    detection of the same class strictly exceeds the threshold.
    """
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError(f"NMS IoU threshold must lie in (0, 1), got {iou_threshold}")
    order = np.argsort(-dets.scores, kind="stable").tolist()
    fps = footprints(dets)
    class_ids = dets.class_ids.tolist()
    kept: list[int] = []
    kept_by_class: dict[int, list[Footprint]] = {}
    for i in order:
        same_class = kept_by_class.setdefault(class_ids[i], [])
        if not any(footprint_iou(k, fps[i]) > iou_threshold for k in same_class):
            same_class.append(fps[i])
            kept.append(i)
    return kept
