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

One call votes for all proposals. A KD-tree ball query over the sources
finds each box's candidates within its circumradius (half extents plus
the EPS band), and the exact containment test runs once over all those
(box, source) pairs. Distances and shifted exponentials are taken over
all inside pairs at once. Only normalising and the weighted sum stay per
proposal: a segmented sum adds in another order, and the per-proposal
form keeps the result bit-identical to voting one box at a time.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.spatial import cKDTree

from .errors import WrongVariantError
from .geometry import EPS, contains_points, points_as_array

WEIGHTINGS = ("exp_neg_dist", "literal")
# Relative widening of each box's search radius: far above the ~1e-15
# relative rounding of the tree's distances, far below the EPS band.
_REACH_SLACK = 1e-12


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
    boxes,
    source_points,
    source_features,
    *,
    weighting: str = "exp_neg_dist",
    prior_features=None,
) -> np.ndarray:
    """Aggregate source features inside each proposal's predicted box.

    boxes is decode_boxes' (centers (B, 3), sizes (B, 3), yaws (B,))
    triple, row i being the box of updated_points[i]; source_points and
    source_features align 1:1, and points are Point3 lists or (N, 3)
    arrays. Returns (B, F) features; a proposal whose box holds no source
    keeps prior_features[i] when given, else source_features[i] when
    sources align positionally with proposals.
    """
    if weighting not in WEIGHTINGS:
        raise WrongVariantError(f"unknown weighting {weighting!r}, expected one of {WEIGHTINGS}")
    centers, sizes, yaws = boxes
    if not (len(updated_points) == len(centers) == len(sizes) == len(yaws)):
        raise ValueError("updated_points and boxes must align 1:1")
    if len(source_points) != len(source_features):
        raise ValueError("source_points and source_features must align 1:1")
    feats = _as_feature_matrix(source_features)
    priors = _as_feature_matrix(prior_features) if prior_features is not None else None
    if priors is not None and len(priors) != len(updated_points):
        raise ValueError("prior_features must align 1:1 with proposals")
    if priors is not None and len(feats) and priors.shape[1] != feats.shape[1]:
        raise ValueError(
            f"prior feature dimension {priors.shape[1]} != source dimension {feats.shape[1]}"
        )
    src = points_as_array(source_points)
    upd = points_as_array(updated_points)

    out = np.empty((len(upd), feats.shape[1] if priors is None else priors.shape[1]))
    # Candidate pairs, row-major and in source order, as one box's mask would list them.
    reach = np.linalg.norm(np.asarray(sizes) * 0.5 + EPS, axis=1) * (1.0 + _REACH_SLACK)
    near = cKDTree(src).query_ball_point(centers, reach, return_sorted=True)
    per_box = np.fromiter(map(len, near), np.intp, len(near))
    cand = np.fromiter(itertools.chain.from_iterable(near), np.intp, per_box.sum())
    owner = np.repeat(np.arange(len(near)), per_box)
    inside = contains_points(centers, sizes, yaws, src[cand], owner=owner)
    cand, owner = cand[inside], owner[inside]

    counts = np.bincount(owner, minlength=len(upd))
    empty = np.flatnonzero(counts == 0)
    if priors is None and len(feats) != len(upd) and len(empty):
        raise ValueError(
            f"proposal {empty[0]} has an empty vote mask and no prior feature to fall back to"
        )
    out[empty] = (feats if priors is None else priors)[empty]
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
