"""The multi-stage decoding loop.

Each stage calls the predictor once on all current proposals, decodes
them once into a column batch of scored detections, and moves every
point onto its box center with its feature re-collected by instance-aware
voting over the full proposal set: the next stage's proposals. So a
stage's inputs follow from stage 1's proposals, the earlier stages'
predictions, the schedule and the weighting. Trace files store only
those, and the trace reader rebuilds every record by running run_cascade
on the stored predictions. Only the boxes the stage ensemble's NMS keeps
become Detection rows.

Proposals carry an origin_index so a point's trajectory through the
stages can be followed; denoising proposals keep a fixed ground-truth
assignment at every stage. hand_off turns a stage's decoded box columns
into the next proposals by voting on them. Training runs this same loop
with its current heads and supervises each stage on the inputs and
assignment its record holds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .assignment import Assignment, CpaSchedule, assign_targets, cpa_threshold
from .errors import PredictorOutputError
from .geometry import OrientedBox, decode_boxes
# Not called here; perfbench/bench_trace.py patches these names on this module.
from .geometry import decode_box, update_point  # noqa: F401
from .overlap import Detection, Detections, nms
from .voting import ia_voting


@dataclass(frozen=True, slots=True, eq=False)
class Proposals:
    """One stage's candidate object locations, row i being proposal i.

    points (B, 3) and features (B, F) are float arrays; origin_index (B,)
    is each proposal's scene point index, and denoising_gt (B,) the
    ground truth a denoising proposal is pinned to, -1 for a regular one.
    """

    points: np.ndarray
    features: np.ndarray
    origin_index: np.ndarray
    denoising_gt: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True, slots=True, eq=False)
class Predictions:
    """A predictor's output for B proposals, row i answering proposal i:
    class probabilities (B, C+1) with background last, deltas (B, 7)
    holding the six face distances then the heading, and centerness (B,)."""

    class_probs: np.ndarray
    deltas: np.ndarray
    centerness: np.ndarray


@dataclass(frozen=True, slots=True)
class StageRecord:
    """Everything one stage saw and produced; detection i's center is where proposal i moves."""

    stage: int
    mu: float | None
    proposals_in: Proposals
    predictions: Predictions
    assignment: Assignment | None
    detections: Detections


@dataclass(frozen=True, slots=True)
class StageTrace:
    """Per-stage records for one scene run, plus the ground truth, schedule
    and voting weighting it ran with."""

    stages: list[StageRecord]
    gts: list[OrientedBox] | None
    schedule: CpaSchedule
    weighting: str

    @property
    def num_stages(self) -> int:
        return len(self.stages)


def _reject(bad: np.ndarray, describe) -> None:
    if bad.any():
        i = int(np.argmax(bad))
        raise PredictorOutputError(f"proposal {i}: {describe(i)}")


def _validate(preds: Predictions, n: int, stage: int) -> None:
    """Raise PredictorOutputError unless preds holds n valid rows."""
    probs, deltas, cent = preds.class_probs, preds.deltas, preds.centerness
    if len(cent) != n:
        raise PredictorOutputError(f"stage {stage}: {len(cent)} predictions for {n} proposals")
    if not (probs.ndim == 2 and probs.shape[0] == n and probs.shape[1] >= 2
            and deltas.shape == (n, 7) and cent.shape == (n,)):
        raise PredictorOutputError(f"stage {stage}: prediction shapes {probs.shape}, "
                                   f"{deltas.shape}, {cent.shape} do not fit {n} proposals")
    _reject(~(np.isfinite(probs) & (probs >= -1e-6)).all(axis=1),
            lambda i: f"class probabilities invalid: {probs[i]}")
    sums = probs.sum(axis=1)
    _reject(np.abs(sums - 1.0) > 1e-6, lambda i: f"class probabilities sum to {sums[i]}, not 1")
    _reject(~((cent >= 0.0) & (cent <= 1.0)), lambda i: f"centerness {cent[i]} outside [0, 1]")
    _reject(~np.isfinite(deltas).all(axis=1), lambda i: "non-finite regression output")


def hand_off(proposals: Proposals, boxes, *, weighting: str) -> Proposals:
    """Next proposals from this stage's decoded (centers, sizes, yaws): each point
    moves onto its box center and re-votes its feature from all proposals in that box."""
    voted = ia_voting(boxes[0], boxes, proposals.points, proposals.features, weighting=weighting)
    return replace(proposals, points=boxes[0], features=voted)


def run_cascade(
    proposals: Proposals,
    predictor,
    sched: CpaSchedule,
    gts: list[OrientedBox] | None = None,
    *,
    weighting: str = "exp_neg_dist",
) -> StageTrace:
    """Run the L-stage decode loop over one scene's proposals.

    predictor is a callable Proposals -> Predictions, or a sequence of L
    such callables (one per stage). Each stage calls it once with all of
    its proposals and checks the rows (PredictorOutputError on a wrong
    count, shape or row; InvalidDeltasError on a box decode_boxes
    rejects), then decodes every row in one pass into scored detection
    columns. When gts is given, each stage also assigns positives at its
    threshold, with denoising proposals pinned to their ground truth.
    Proposal points and features advance between stages; the last
    stage's detections feed nothing.
    """
    L = sched.num_stages
    records: list[StageRecord] = []
    current = proposals
    for l in range(1, L + 1):
        preds = (predictor if callable(predictor) else predictor[l - 1])(current)
        _validate(preds, len(current), l)
        fg = preds.class_probs[:, :-1]
        class_ids = np.argmax(fg, axis=1)
        scores = np.clip(fg[np.arange(len(fg)), class_ids] * preds.centerness, 0.0, 1.0)
        mu = None if gts is None else cpa_threshold(l, sched)
        rec = StageRecord(
            stage=l,
            mu=mu,
            proposals_in=current,
            predictions=preds,
            assignment=None if gts is None else assign_targets(
                current.points, gts, mu, denoising_gt=current.denoising_gt),
            detections=Detections(*decode_boxes(current.points, preds.deltas),
                                  class_ids, scores),
        )
        records.append(rec)
        if l < L:
            current = hand_off(current, rec.detections.boxes, weighting=weighting)
    return StageTrace(stages=records, gts=None if gts is None else list(gts), schedule=sched,
                      weighting=weighting)


def ensemble_stages(
    trace: StageTrace, stage_range: tuple[int, int], iou_threshold: float
) -> list[Detection]:
    """Pool detections from stages i..j (1-based ints, inclusive) through one NMS pass."""
    i, j = stage_range
    if not (type(i) is int and type(j) is int and 1 <= i <= j <= trace.num_stages):
        raise ValueError(
            f"stage range {stage_range} invalid for a {trace.num_stages}-stage trace"
        )
    recs = trace.stages[i - 1 : j]
    pooled = Detections(*(np.concatenate([getattr(r.detections, f.name) for r in recs])
                          for f in fields(Detections)))
    stages = np.repeat([r.stage for r in recs], [len(r.detections) for r in recs])
    kept = nms(pooled, iou_threshold)
    return pooled.rows(stages[kept], kept)
