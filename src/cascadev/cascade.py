"""The multi-stage decoding loop.

Each stage calls the predictor once on all current proposals, decodes
scored detections, moves every proposal point onto its predicted box
center, and re-aggregates features by instance-aware voting over the
full current proposal set. The moved points and voted features become the
next stage's proposals; the last stage's outputs are final. Stage
traces record everything (inputs, predictions, moved points, training
assignments, detections) so downstream statistics need no re-runs.

Proposals carry an origin_index so a point's trajectory through the
stages can be followed; denoising proposals keep a fixed ground-truth
assignment at every stage. Training walks the stages through the same
two steps, stage_assignment and hand_off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assignment import Assignment, CpaSchedule, assign_targets, cpa_threshold
from .errors import PredictorOutputError
from .geometry import Deltas, OrientedBox, Point3, decode_box
# Not called here; perfbench/bench_trace.py patches this name on this module.
from .geometry import update_point  # noqa: F401
from .overlap import Detection, nms
from .voting import ia_voting


@dataclass(frozen=True, slots=True)
class Proposal:
    """A candidate object location: a point plus its feature vector."""

    point: Point3
    feature: np.ndarray
    origin_index: int
    is_denoising: bool = False
    denoising_gt: int | None = None


@dataclass(frozen=True, slots=True)
class Prediction:
    """One head output: class probabilities (background last), face
    distances with heading, and predicted centerness."""

    class_probs: np.ndarray
    deltas: Deltas
    centerness: float


@dataclass(frozen=True, slots=True)
class StageRecord:
    """Everything one stage saw and produced."""

    stage: int
    mu: float | None
    proposals_in: list[Proposal]
    predictions: list[Prediction]
    updated_points: list[Point3]
    assignment: Assignment | None
    detections: list[Detection]


@dataclass(frozen=True, slots=True)
class StageTrace:
    """Per-stage records for one scene run, plus the ground truth used."""

    stages: list[StageRecord]
    gts: list[OrientedBox] | None = None

    @property
    def num_stages(self) -> int:
        return len(self.stages)


def _validate_prediction(pred: Prediction, index: int) -> None:
    probs = np.asarray(pred.class_probs, dtype=np.float64)
    if probs.ndim != 1 or probs.size < 2:
        raise PredictorOutputError(
            f"proposal {index}: class_probs must be a 1-D vector with a background entry"
        )
    if not np.all(np.isfinite(probs)) or np.any(probs < -1e-6):
        raise PredictorOutputError(f"proposal {index}: class probabilities invalid: {probs}")
    if abs(float(probs.sum()) - 1.0) > 1e-6:
        raise PredictorOutputError(
            f"proposal {index}: class probabilities sum to {probs.sum()}, not 1"
        )
    if not (math.isfinite(pred.centerness) and 0.0 <= pred.centerness <= 1.0):
        raise PredictorOutputError(f"proposal {index}: centerness {pred.centerness} outside [0, 1]")
    if not all(math.isfinite(v) for v in (*pred.deltas.faces(), pred.deltas.heading)):
        raise PredictorOutputError(f"proposal {index}: non-finite regression output")


def prediction_to_detection(proposal: Proposal, pred: Prediction, stage: int) -> Detection:
    """Decode one prediction into a scored, classified box."""
    box = decode_box(proposal.point, pred.deltas)
    fg = np.asarray(pred.class_probs)[:-1]
    class_id = int(np.argmax(fg))
    score = float(np.clip(fg[class_id] * pred.centerness, 0.0, 1.0))
    return Detection(box=box.with_meta(class_id=class_id, score=score), score=score,
                     class_id=class_id, stage=stage)


def stage_assignment(
    proposals: list[Proposal], gts: list[OrientedBox], mu: float
) -> Assignment:
    """Positive assignment of one stage's proposals at threshold mu.

    Denoising proposals stay pinned to their ground truth whatever mu is.
    """
    fixed = {
        i: prop.denoising_gt
        for i, prop in enumerate(proposals)
        if prop.is_denoising and prop.denoising_gt is not None
    }
    return assign_targets([prop.point for prop in proposals], gts, mu, fixed_assignments=fixed)


def hand_off(
    proposals: list[Proposal], boxes: list[OrientedBox], *, weighting: str
) -> list[Proposal]:
    """The next stage's proposals: each point moved onto its box center.

    boxes[i] is decoded from proposal i's prediction, so its center is
    the updated point. Features are re-voted inside each box over the
    whole current proposal set.
    """
    moved = [box.center for box in boxes]
    voted = ia_voting(
        moved,
        boxes,
        [prop.point for prop in proposals],
        [prop.feature for prop in proposals],
        weighting=weighting,
    )
    return [
        Proposal(
            point=moved[i],
            feature=voted[i],
            origin_index=prop.origin_index,
            is_denoising=prop.is_denoising,
            denoising_gt=prop.denoising_gt,
        )
        for i, prop in enumerate(proposals)
    ]


def run_cascade(
    proposals: list[Proposal],
    predictor,
    sched: CpaSchedule,
    gts: list[OrientedBox] | None = None,
    *,
    weighting: str = "exp_neg_dist",
) -> StageTrace:
    """Run the L-stage decode loop over one scene's proposals.

    predictor is a callable list[Proposal] -> list[Prediction], or a
    sequence of L such callables (one per stage). Each stage calls it
    once with all of its proposals and expects one prediction per
    proposal, in order; a wrong count or an invalid prediction raises
    PredictorOutputError. When gts is given, each stage also records
    the positive assignment at that stage's threshold, with denoising
    proposals pinned to their ground truth. Proposal points and features
    advance between stages; the moved points of the last stage are
    recorded but feed nothing.
    """
    L = sched.num_stages
    records: list[StageRecord] = []
    current = list(proposals)
    for l in range(1, L + 1):
        stage_predictor = predictor if callable(predictor) else predictor[l - 1]
        preds = list(stage_predictor(current))
        if len(preds) != len(current):
            raise PredictorOutputError(
                f"stage {l}: {len(preds)} predictions for {len(current)} proposals"
            )
        for i, pred in enumerate(preds):
            _validate_prediction(pred, i)
        dets = [prediction_to_detection(prop, pred, l) for prop, pred in zip(current, preds)]
        mu = None if gts is None else cpa_threshold(l, sched)
        records.append(
            StageRecord(
                stage=l,
                mu=mu,
                proposals_in=current,
                predictions=preds,
                updated_points=[det.box.center for det in dets],
                assignment=None if gts is None else stage_assignment(current, gts, mu),
                detections=dets,
            )
        )
        if l < L:
            current = hand_off(current, [det.box for det in dets], weighting=weighting)
    return StageTrace(stages=records, gts=list(gts) if gts is not None else None)


def ensemble_stages(
    trace: StageTrace, stage_range: tuple[int, int], iou_threshold: float
) -> list[Detection]:
    """Pool detections from stages i..j (1-based, inclusive) through one NMS pass."""
    i, j = stage_range
    if not (1 <= i <= j <= trace.num_stages):
        raise ValueError(
            f"stage range {stage_range} invalid for a {trace.num_stages}-stage trace"
        )
    pooled: list[Detection] = []
    for rec in trace.stages[i - 1 : j]:
        pooled.extend(rec.detections)
    kept = nms(pooled, iou_threshold)
    return [pooled[k] for k in kept]
