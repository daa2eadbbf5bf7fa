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

from dataclasses import dataclass, field

import numpy as np

from .geometry import Deltas, OrientedBox, Point3, centerness, contains_points, encode_deltas, points_as_array


@dataclass(frozen=True, slots=True)
class CpaSchedule:
    """Decreasing center-scale thresholds over num_stages stages."""

    mu_max: float = 0.4
    mu_min: float = 0.2
    num_stages: int = 3

    def __post_init__(self) -> None:
        if not (0.0 < self.mu_min <= self.mu_max):
            raise ValueError(f"need 0 < mu_min <= mu_max, got ({self.mu_min}, {self.mu_max})")
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


@dataclass(frozen=True, slots=True)
class Assignment:
    """Per-proposal match results at one threshold.

    matched_gt holds the ground-truth index or -1; the three target
    lists hold None exactly where matched_gt is -1. Denoising entries
    are always matched (to their fixed ground truth).
    """

    mu: float
    matched_gt: list[int]
    target_deltas: list[Deltas | None]
    target_centerness: list[float | None]
    target_class: list[int | None]
    is_denoising: list[bool]

    def positive_indices(self) -> list[int]:
        return [i for i, g in enumerate(self.matched_gt) if g >= 0]

    @property
    def num_positives(self) -> int:
        return sum(1 for g in self.matched_gt if g >= 0)

    @property
    def num_regular_positives(self) -> int:
        """Positives that earned their match through the mu rule (no denoising)."""
        return sum(
            1 for g, dn in zip(self.matched_gt, self.is_denoising) if g >= 0 and not dn
        )


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
    proposals; those are matched unconditionally and flagged.
    """
    if mu <= 0.0:
        raise ValueError(f"assignment threshold must be positive, got {mu}")
    n = len(points)
    matched = np.full(n, -1, dtype=np.int64)
    if gts and n:
        pts = points_as_array(points)
        best_vol = np.full(n, np.inf)
        for gi, gt in enumerate(gts):
            inside = contains_points(gt, pts, mu=mu)
            better = inside & (gt.volume < best_vol)
            matched[better] = gi
            best_vol[better] = gt.volume
    is_denoising = [False] * n
    for pi, gi in (fixed_assignments or {}).items():
        if not (0 <= pi < n and 0 <= gi < len(gts)):
            raise ValueError(f"fixed assignment ({pi} -> {gi}) out of range")
        matched[pi] = gi
        is_denoising[pi] = True

    target_deltas: list[Deltas | None] = [None] * n
    target_centerness: list[float | None] = [None] * n
    target_class: list[int | None] = [None] * n
    for i in range(n):
        gi = int(matched[i])
        if gi < 0:
            continue
        gt = gts[gi]
        d = encode_deltas(points[i], gt)
        target_deltas[i] = d
        target_centerness[i] = centerness(d)
        target_class[i] = gt.class_id
    return Assignment(
        mu=mu,
        matched_gt=[int(g) for g in matched],
        target_deltas=target_deltas,
        target_centerness=target_centerness,
        target_class=target_class,
        is_denoising=is_denoising,
    )


def select_denoising(all_points: list[Point3], gt_centers: list[Point3], k: int = 1) -> list[int]:
    """Indices of the k l1-nearest points for each ground-truth center.

    Center by center, each group nearest first with ties broken by lower
    index, min(k, len(all_points)) indices per center; the same point may
    serve several centers.
    """
    if not all_points:
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
