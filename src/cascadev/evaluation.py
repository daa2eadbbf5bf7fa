"""Average precision and cascade statistics.

AP follows the greedy score-ordered protocol: detections are visited by
descending score, each claims the highest-IoU unmatched ground truth of
its class when that IoU clears the threshold, and the per-class AP is
the area under the whole monotonized precision-recall curve (continuous
all-point interpolation). Classes absent from the ground truth are
excluded from the mean. Multi-scene evaluation matches per scene and
pools the scored outcomes per class.

Cascade statistics reduce stage traces to the quantities behind the
assignment and update analyses: per-stage positive counts, proposal
centerness before/after the point update, and the rank correlation
between a proposal's centerness and the IoU of the box it regressed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import stats as _scipy_stats

from .cascade import StageTrace
from .errors import DataError
from .geometry import Boxes, matched_faces
from .overlap import Detections, pair_ious
from .synth import match_points_to_gt

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
    dets: Detections, gts: Boxes, iou_threshold: float, ious: list[list[float]],
) -> list[tuple[int, float, bool]]:
    """Greedy matching for one scene, on its _scene_iou rows.

    Returns (class_id, score, is_tp) per detection whose class occurs in
    the ground truth, in descending score order within the scene.
    """
    gt_classes = gts.class_ids.tolist()
    classes, scores = dets.class_ids.tolist(), dets.scores.tolist()
    matched = [False] * len(gt_classes)
    out: list[tuple[int, float, bool]] = []
    for i in np.argsort(-dets.scores, kind="stable").tolist():
        cls = classes[i]
        if cls not in gt_classes:
            continue
        # The highest unmatched same-class IoU above 0; the lower index wins a tie.
        best_gi, best_iou = -1, 0.0
        for gi, (gt_cls, v) in enumerate(zip(gt_classes, ious[i])):
            if gt_cls == cls and not matched[gi] and v > best_iou:
                best_gi, best_iou = gi, v
        hit = best_gi >= 0 and best_iou >= iou_threshold
        if hit:
            matched[best_gi] = True
        out.append((cls, scores[i], hit))
    return out


def _ap_from_curve(recalls: np.ndarray, precisions: np.ndarray) -> float:
    if len(recalls) == 0:
        return 0.0
    mono = np.maximum.accumulate(precisions[::-1])[::-1]
    prev_r = 0.0
    ap = 0.0
    for r, p in zip(recalls, mono):
        ap += (r - prev_r) * p
        prev_r = r
    return float(ap)


def _evaluate_pooled(
    pooled: list[tuple[int, float, bool, int, int]],
    gt_counts: dict[int, int],
    iou_threshold: float,
) -> ThresholdResult:
    ap_per_class: dict[int, float] = {}
    pr_curves: dict[int, tuple[list[float], list[float]]] = {}
    for cls in sorted(gt_counts):
        n_gt = gt_counts[cls]
        rows = [r for r in pooled if r[0] == cls]
        rows.sort(key=lambda r: (-r[1], r[3], r[4]))
        tp_cum = 0
        recalls: list[float] = []
        precisions: list[float] = []
        for rank, row in enumerate(rows, start=1):
            tp_cum += int(row[2])
            recalls.append(tp_cum / n_gt)
            precisions.append(tp_cum / rank)
        ap_per_class[cls] = _ap_from_curve(np.array(recalls), np.array(precisions))
        pr_curves[cls] = (recalls, precisions)
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
    pooled: list[list[tuple[int, float, bool, int, int]]] = [[] for _ in iou_thresholds]
    gt_counts: dict[int, int] = {}
    for si, (dets, gts) in enumerate(scene_results):
        for cls in gts.class_ids.tolist():
            gt_counts[cls] = gt_counts.get(cls, 0) + 1
        ious = _scene_iou(dets, gts)
        for rows, thr in zip(pooled, iou_thresholds):
            for di, (cls, score, is_tp) in enumerate(_match_one_scene(dets, gts, thr, ious)):
                rows.append((cls, score, is_tp, si, di))
    results = [_evaluate_pooled(rows, gt_counts, thr) for rows, thr in zip(pooled, iou_thresholds)]
    return ApResult(results=results)


def _spearman(x: list[float], y: list[float]) -> float:
    if len(x) < 2:
        return float("nan")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rho = _scipy_stats.spearmanr(x, y).statistic
    return float(rho)


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

    per_stage_before: list[list[float]] = [[] for _ in range(num_stages)]
    per_stage_after: list[list[float]] = [[] for _ in range(num_stages)]
    per_stage_pairs: list[list[tuple[float, float]]] = [[] for _ in range(num_stages)]
    per_stage_pos = [0] * num_stages

    for trace in traces:
        gts = trace.gts
        for si, rec in enumerate(trace.stages):
            per_stage_pos[si] += rec.assignment.num_regular_positives
            keep = np.flatnonzero(rec.proposals_in.denoising_gt < 0)
            pts = rec.proposals_in.points[keep]
            owner = match_points_to_gt(pts, gts)
            before = matched_faces(gts, pts, owner)[1].tolist()
            dets = rec.detections
            per_stage_before[si].extend(before)
            per_stage_after[si].extend(matched_faces(gts, dets.centers[keep], owner)[1].tolist())
            per_stage_pairs[si].extend(zip(before, pair_ious(dets, keep, gts, owner).tolist()))

    stages = []
    for si in range(num_stages):
        before = per_stage_before[si]
        after = per_stage_after[si]
        pairs = per_stage_pairs[si]
        stages.append(
            StageStats(
                stage=si + 1,
                mu=traces[0].stages[si].mu,
                positives=per_stage_pos[si],
                mean_centerness_before=float(np.mean(before)) if before else float("nan"),
                mean_centerness_after=float(np.mean(after)) if after else float("nan"),
                spearman_rho=_spearman([p[0] for p in pairs], [p[1] for p in pairs]),
                pairs=pairs,
            )
        )
    all_before = [v for vs in per_stage_before for v in vs]
    all_after = [v for vs in per_stage_after for v in vs]
    all_pairs = [p for ps in per_stage_pairs for p in ps]
    gains = sum(1 for b, a in zip(all_before, all_after) if a > b)
    return CascadeStats(
        stages=stages,
        gain_fraction=gains / len(all_before) if all_before else float("nan"),
        pooled_spearman_rho=_spearman([p[0] for p in all_pairs], [p[1] for p in all_pairs]),
    )
