"""Average precision and cascade statistics.

AP follows the greedy score-ordered protocol: detections are visited by
descending score, each claims the highest-IoU unmatched ground truth of
its class when that IoU clears the threshold, and the per-class AP is
the area under the whole monotonized precision-recall curve (continuous
all-point interpolation). Classes absent from the ground truth are
excluded from the mean. Multi-scene evaluation matches per scene and
pools the (class, score, hit) columns of all scenes.

Cascade statistics reduce stage traces to the quantities behind the
assignment and update analyses: per-stage positive counts, proposal
centerness before/after the point update, and the rank correlation
between a proposal's centerness and the IoU of the box it regressed.
That correlation is Spearman's rho, Pearson's r of the average ranks
(tied values share the mean of their ranks), and NaN below two pairs
or when either side is constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assignment import match_points_to_gt
from .cascade import StageTrace
from .errors import DataError
from .geometry import Boxes, matched_faces
from .overlap import Detections, pair_ious

# Not called here; perfbench/bench_trace.py patches these names on this module.
from .geometry import encode_deltas  # noqa: F401
from .overlap import iou_rotated  # noqa: F401


@dataclass(frozen=True, slots=True)
class ThresholdResult:
    """Per-class AP and PR samples at one IoU threshold."""

    iou_threshold: float
    ap_per_class: dict[int, float]
    mean_ap: float
    pr_curves: dict[int, tuple[list[float], list[float]]]


@dataclass(frozen=True, slots=True)
class ApResult:
    """AP results across one or more IoU thresholds."""

    results: list[ThresholdResult]

    def at(self, iou_threshold: float) -> ThresholdResult:
        for r in self.results:
            if math.isclose(r.iou_threshold, iou_threshold, abs_tol=1e-12):
                return r
        raise KeyError(f"no result at IoU threshold {iou_threshold}")


def _scene_iou(dets: Detections, gts: Boxes) -> list[list[float]]:
    """Rotated IoU of detection i with ground-truth box gi, as rows [i][gi].

    One pair_ious call scores every same-class pair; a pair of different
    classes, which matching never reads, holds 0.0.
    """
    ia, ib = np.nonzero(dets.class_ids[:, None] == gts.class_ids)
    out = np.zeros((len(dets), len(gts)))
    out[ia, ib] = pair_ious(dets, ia, gts, ib)
    return out.tolist()


def _match_one_scene(
    dets: Detections, gts: Boxes, ious: list[list[float]], iou_thresholds: list[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy matching for one scene at each threshold, on its _scene_iou rows.

    Returns the rows of the detections whose class occurs in the ground
    truth, in descending score order (stable), and per threshold whether
    each of them hit, as a (thresholds, rows) array.
    """
    order = np.argsort(-dets.scores, kind="stable")
    rows = order[np.isin(dets.class_ids[order], gts.class_ids)]
    hits = np.zeros((len(iou_thresholds), len(rows)), dtype=bool)
    for t, thr in enumerate(iou_thresholds):
        matched = [False] * len(gts)
        for k, i in enumerate(rows.tolist()):
            # The highest unmatched IoU above 0 (other classes hold 0); the lower index wins a tie.
            best_gi, best_iou = -1, 0.0
            for gi, v in enumerate(ious[i]):
                if v > best_iou and not matched[gi]:
                    best_gi, best_iou = gi, v
            if best_iou >= thr:
                matched[best_gi] = hits[t, k] = True
    return rows, hits


def _evaluate_pooled(
    classes: np.ndarray, scores: np.ndarray, hits: np.ndarray, gt_classes: np.ndarray,
    iou_threshold: float,
) -> ThresholdResult:
    """Per-class curves and AP of the pooled (class, score, hit) columns.

    The columns run scene by scene, each scene in its own ranking, so one
    stable sort by descending score ranks ties by (scene, rank in scene).
    """
    order = np.argsort(-scores, kind="stable")
    classes, hits = classes[order], hits[order]
    ap_per_class: dict[int, float] = {}
    pr_curves: dict[int, tuple[list[float], list[float]]] = {}
    labels, counts = np.unique(gt_classes, return_counts=True)
    for cls, n_gt in zip(labels.tolist(), counts.tolist()):
        tp = np.cumsum(hits[classes == cls])
        recalls = tp / n_gt
        precisions = tp / np.arange(1, len(tp) + 1)
        mono = np.maximum.accumulate(precisions[::-1])[::-1]
        area = np.cumsum(np.diff(recalls, prepend=0.0) * mono)
        ap_per_class[cls] = float(area[-1]) if len(area) else 0.0
        pr_curves[cls] = (recalls.tolist(), precisions.tolist())
    mean_ap = float(np.mean(list(ap_per_class.values()))) if ap_per_class else 0.0
    return ThresholdResult(
        iou_threshold=iou_threshold,
        ap_per_class=ap_per_class,
        mean_ap=mean_ap,
        pr_curves=pr_curves,
    )


def evaluate_scenes(
    scene_results: list[tuple[Detections, Boxes]],
    iou_thresholds: list[float],
) -> ApResult:
    """Pooled AP over several (detections, ground truth) scene pairs, matched by rotated IoU."""
    for _, gts in scene_results:
        if (gts.class_ids < 0).any():
            raise DataError("ground-truth boxes must carry class ids for AP evaluation")
    for thr in iou_thresholds:
        if not (0.0 < thr < 1.0):
            raise ValueError(f"IoU threshold must lie in (0, 1), got {thr}")
    # Scene by scene, so one scene's IoUs serve every threshold and are
    # dropped before the next scene's are computed.
    classes, scores, hits = [], [], []
    for dets, gts in scene_results:
        rows, scene_hits = _match_one_scene(dets, gts, _scene_iou(dets, gts), iou_thresholds)
        classes.append(dets.class_ids[rows])
        scores.append(dets.scores[rows])
        hits.append(scene_hits)
    gt_classes = np.concatenate([np.empty(0, np.int64)] + [g.class_ids for _, g in scene_results])
    classes_col = np.concatenate([np.empty(0, np.int64)] + classes)
    scores_col = np.concatenate([np.empty(0)] + scores)
    hits_cols = np.concatenate([np.empty((len(iou_thresholds), 0), bool)] + hits, axis=1)
    return ApResult(results=[
        _evaluate_pooled(classes_col, scores_col, h, gt_classes, thr)
        for h, thr in zip(hits_cols, iou_thresholds)
    ])


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks of v; tied values share the mean of their ranks."""
    order = np.argsort(v, kind="stable")
    s = v[order]
    first = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]]))
    counts = np.diff(first, append=len(v))
    ranks = np.empty(len(v))
    ranks[order] = np.repeat(first + (counts + 1) / 2, counts)
    return ranks


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho: Pearson's r of the average ranks; NaN below two pairs or on a constant side."""
    if len(x) < 2 or (x == x[0]).all() or (y == y[0]).all():
        return float("nan")
    ranks = np.column_stack([_average_ranks(x), _average_ranks(y)])
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


@dataclass(frozen=True, slots=True)
class StageStats:
    """Aggregates for one stage across all traces (denoising excluded)."""

    stage: int
    mu: float | None
    positives: int
    mean_centerness_before: float
    mean_centerness_after: float
    spearman_rho: float
    pairs: list[tuple[float, float]]


@dataclass(frozen=True, slots=True)
class CascadeStats:
    stages: list[StageStats]
    gain_fraction: float
    pooled_spearman_rho: float


def cascade_stats(traces: list[StageTrace]) -> CascadeStats:
    """Reduce traces to per-stage assignment/centerness/IoU aggregates.

    Every trace must carry ground truth and share one schedule, so the
    stages line up and each has one threshold. Per proposal and stage, the
    reference box is the containing (else nearest-center) ground truth
    of the stage's input point; "before" and "after" centerness are
    measured against it, as is the IoU of the decoded detection.
    Denoising proposals are ignored throughout.
    """
    if not traces:
        raise ValueError("cascade_stats needs at least one trace")
    schedule = traces[0].schedule
    for t in traces:
        if t.gts is None:
            raise DataError("cascade statistics need traces recorded with ground truth")
        if t.schedule != schedule:
            raise DataError(f"all traces must share one schedule, found {schedule} "
                            f"and {t.schedule}")
    num_stages = schedule.num_stages

    # Per stage, one (3, n) block per trace: centerness before and after, and IoU.
    blocks: list[list[np.ndarray]] = [[] for _ in range(num_stages)]
    positives = [0] * num_stages
    for trace in traces:
        gts = trace.gts
        for si, rec in enumerate(trace.stages):
            positives[si] += rec.assignment.num_regular_positives
            keep = np.flatnonzero(rec.proposals_in.denoising_gt < 0)
            pts = rec.proposals_in.points[keep]
            owner = match_points_to_gt(pts, gts)
            dets = rec.detections
            blocks[si].append(np.stack([matched_faces(gts, pts, owner)[1],
                                        matched_faces(gts, dets.centers[keep], owner)[1],
                                        pair_ious(dets, keep, gts, owner)]))
    columns = [np.concatenate(b, axis=1) for b in blocks]

    stages = [
        StageStats(
            stage=si + 1,
            mu=traces[0].stages[si].mu,
            positives=positives[si],
            mean_centerness_before=float(np.mean(before)) if len(before) else float("nan"),
            mean_centerness_after=float(np.mean(after)) if len(after) else float("nan"),
            spearman_rho=_spearman(before, iou),
            pairs=list(zip(before.tolist(), iou.tolist())),
        )
        for si, (before, after, iou) in enumerate(columns)
    ]
    before, after, iou = np.concatenate(columns, axis=1)
    return CascadeStats(
        stages=stages,
        gain_fraction=(int(np.count_nonzero(after > before)) / len(before)
                       if len(before) else float("nan")),
        pooled_spearman_rho=_spearman(before, iou),
    )
