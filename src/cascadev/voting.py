"""Instance-aware feature voting.

Each proposal re-estimates its feature as a weighted average over the
source points that fall inside its predicted box (yaw-aware, boundary
inclusive). Points outside the box get exactly zero influence, which is
what distinguishes this from radius-ball grouping: the aggregation
region adapts to the predicted object extent.

Two weighting variants are available:

* "exp_neg_dist" (default): w ~ exp(-distance to the updated point),
  nearer points count more.
* "literal": w ~ exp(+distance) after normalization, farther points
  count more. Kept for side-by-side comparison.

One call votes for all proposals. geometry.near_pairs lists each box's
candidate sources from one sorted-x window, and the exact containment
test runs once over all those (box, source) pairs. Distances and shifted
exponentials are taken over all inside pairs at once. Only normalising
and the weighted sum stay per proposal: a segmented sum adds in another
order, and the per-proposal form keeps the result bit-identical to voting
one box at a time.
"""

from __future__ import annotations

import numpy as np

from .errors import WrongVariantError
from .geometry import Boxes, contains_points, near_pairs, points_as_array

WEIGHTINGS = ("exp_neg_dist", "literal")


def _as_feature_matrix(features) -> np.ndarray:
    try:
        mat = np.asarray(features, dtype=np.float64)
    except ValueError as e:
        raise ValueError(f"feature dimensions inconsistent: {e}") from None
    if mat.size == 0 and mat.ndim == 1:
        return mat.reshape(0, 0)
    if mat.ndim != 2:
        raise ValueError("features must be fixed-length 1-D vectors")
    if not np.all(np.isfinite(mat)):
        raise ValueError("features contain non-finite entries")
    return mat


def ia_voting(
    updated_points,
    boxes: Boxes,
    source_points,
    source_features,
    *,
    weighting: str = "exp_neg_dist",
) -> np.ndarray:
    """Aggregate source features inside each proposal's predicted box.

    Row i of boxes is the box of updated_points[i]; source_points and
    source_features align 1:1, and points are (N, 3) arrays. Returns
    (B, F) features; a proposal whose box holds no source keeps
    source_features[i], which needs sources aligned with proposals.
    """
    if weighting not in WEIGHTINGS:
        raise WrongVariantError(f"unknown weighting {weighting!r}, expected one of {WEIGHTINGS}")
    if len(updated_points) != len(boxes):
        raise ValueError("updated_points and boxes must align 1:1")
    if len(source_points) != len(source_features):
        raise ValueError("source_points and source_features must align 1:1")
    feats = _as_feature_matrix(source_features)
    src = points_as_array(source_points)
    upd = points_as_array(updated_points)

    out = np.empty((len(upd), feats.shape[1]))
    # Candidate pairs, by box and in source order, as one box's mask would list them.
    owner, cand = near_pairs(src, boxes, 0.5)
    inside = contains_points(boxes.centers, boxes.sizes, boxes.yaws, src[cand], 0.5, owner)
    cand, owner = cand[inside], owner[inside]

    counts = np.bincount(owner, minlength=len(upd))
    empty = np.flatnonzero(counts == 0)
    if len(feats) != len(upd) and len(empty):
        raise ValueError(
            f"proposal {empty[0]} has an empty vote mask and no own feature to fall back to"
        )
    out[empty] = feats[empty]
    voted = np.flatnonzero(counts)
    bounds = np.concatenate(([0], np.cumsum(counts[voted])))
    dist = np.linalg.norm(src[cand] - upd[owner], axis=1)
    # Shift each proposal's distances before exponentiating; its
    # normalization cancels the shift.
    if weighting == "exp_neg_dist":
        w = np.exp(-(dist - np.repeat(np.minimum.reduceat(dist, bounds[:-1]), counts[voted])))
    else:
        w = np.exp(dist - np.repeat(np.maximum.reduceat(dist, bounds[:-1]), counts[voted]))
    g = feats[cand]
    for i, a, b in zip(voted.tolist(), bounds[:-1].tolist(), bounds[1:].tolist()):
        seg = w[a:b]
        seg /= seg.sum()
        out[i] = seg @ g[a:b]
    return out
