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
"""

from __future__ import annotations

import numpy as np

from .errors import WrongVariantError
from .geometry import contains_points, points_as_array

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
    for i, (center, size, yaw) in enumerate(zip(centers, sizes, yaws)):
        mask = contains_points(center, size, yaw, src) if len(src) else np.zeros(0, dtype=bool)
        if not mask.any():
            if priors is not None:
                out[i] = priors[i]
            elif len(feats) == len(upd):
                out[i] = feats[i]
            else:
                raise ValueError(
                    f"proposal {i} has an empty vote mask and no prior feature to fall back to"
                )
            continue
        dist = np.linalg.norm(src[mask] - upd[i], axis=1)
        # Shift before exponentiating; the normalization cancels the shift.
        if weighting == "exp_neg_dist":
            w = np.exp(-(dist - dist.min()))
        else:
            w = np.exp(dist - dist.max())
        w /= w.sum()
        out[i] = w @ feats[mask]
    return out
