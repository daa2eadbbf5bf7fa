"""Positive/negative target assignment and the stage-decreasing threshold schedule.

A proposal point is positive for a ground-truth box when it lies inside
the box scaled by the stage threshold mu (boundary inclusive). The
schedule interpolates mu from just below mu_max down to mu_min across
stages, so later stages demand points closer to box centers.

Denoising proposals (the scene point nearest each ground-truth center)
keep a fixed assignment to their ground truth regardless of mu; they
exist so every stage always has at least one positive per object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_types
from .geometry import OrientedBox, Point3, contains_points, matched_faces, points_as_array

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

    def positive_indices(self) -> list[int]:
        return np.flatnonzero(self.matched_gt >= 0).tolist()

    @property
    def num_positives(self) -> int:
        return int(np.count_nonzero(self.matched_gt >= 0))

    @property
    def num_regular_positives(self) -> int:
        """Positives that earned their match through the mu rule (no denoising)."""
        return int(np.count_nonzero((self.matched_gt >= 0) & ~self.is_denoising))


def assign_targets(
    points: list[Point3],
    gts: list[OrientedBox],
    mu: float,
    *,
    fixed_assignments: dict[int, int] | None = None,
) -> Assignment:
    """Match each point to a ground truth via the scaled-box rule.

    A point inside several scaled boxes goes to the smallest-volume one.
    fixed_assignments maps point index -> gt index for denoising
    proposals; those are matched unconditionally and flagged. Returns
    the Assignment columns, filled in one matched_faces pass.
    """
    if mu <= 0.0:
        raise ValueError(f"assignment threshold must be positive, got {mu}")
    pts = points_as_array(points)
    n = len(pts)
    matched = np.full(n, -1, dtype=np.int64)
    if gts and n:
        best_vol = np.full(n, np.inf)
        for gi, gt in enumerate(gts):
            inside = contains_points(gt.center.as_array(), gt.size, gt.yaw, pts, mu=mu)
            better = inside & (gt.volume < best_vol)
            matched[better] = gi
            best_vol[better] = gt.volume
    is_denoising = np.zeros(n, dtype=bool)
    for pi, gi in (fixed_assignments or {}).items():
        if not (0 <= pi < n and 0 <= gi < len(gts)):
            raise ValueError(f"fixed assignment ({pi} -> {gi}) out of range")
        matched[pi] = gi
        is_denoising[pi] = True

    pos = np.flatnonzero(matched >= 0)
    faces, cent = matched_faces(gts, pts[pos], matched[pos])
    # A trailing entry answers matched_gt == -1 in the per-box gathers.
    yaws = np.array([gt.yaw for gt in gts] + [np.nan])
    classes = np.array([-1 if gt.class_id is None else gt.class_id for gt in gts] + [-1],
                       dtype=np.int64)
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


def select_denoising(all_points, gt_centers: list[Point3], k: int = 1) -> list[int]:
    """Indices of the k l1-nearest rows of the (N, 3) all_points for each center.

    Center by center, each group nearest first with ties broken by lower
    index, min(k, len(all_points)) indices per center; the same point may
    serve several centers.
    """
    if len(all_points) == 0:
        raise ValueError("cannot pick denoising points from an empty point set")
    pts = points_as_array(all_points)
    out: list[int] = []
    for c in gt_centers:
        dist = np.sum(np.abs(pts - np.array([c.x, c.y, c.z])), axis=1)
        out.extend(np.argsort(dist, kind="stable")[:k].tolist())
    return out


def select_top_b(predicted_centerness: list[float] | np.ndarray, b: int) -> list[int]:
    """Indices of the b largest values, descending, ties (0.0 and -0.0 too) by lower index."""
    if b < 1:
        raise ValueError(f"need b >= 1, got {b}")
    values = np.asarray(predicted_centerness, dtype=np.float64)
    return np.argsort(-values, kind="stable")[:b].tolist()
