"""Average precision and cascade statistics.

AP follows the greedy score-ordered protocol: detections are visited by
descending score, each claims the highest-IoU unmatched ground truth of
its class when that IoU clears the threshold, and the per-class AP is
the area under the monotonized precision-recall curve (continuous
all-point interpolation by default, 11-point by option). Classes absent
from the ground truth are excluded from the mean. Multi-scene
evaluation matches per scene and pools the scored outcomes per class.

Cascade statistics reduce stage traces to the quantities behind the
assignment and update analyses: per-stage positive counts, proposal
centerness before/after the point update, and the rank correlation
between a proposal's centerness and the IoU of the box it regressed.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import stats as _scipy_stats

from .cascade import StageTrace
from .errors import DataError, WrongVariantError
from .geometry import Boxes, OrientedBox, matched_faces
from .overlap import Detection, footprint_iou, footprints, iou_aabb
from .synth import match_points_to_gt

# Not called here; perfbench/bench_trace.py patches these names on this module.
from .geometry import encode_deltas  # noqa: F401
from .overlap import iou_rotated  # noqa: F401

IOU_VARIANTS = ("rotated", "aabb")
AP_MODES = ("continuous", "11point")


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

    def mean_ap(self, iou_threshold: float) -> float:
        return self.at(iou_threshold).mean_ap


def _scene_iou(dets: list[Detection], gts: list[OrientedBox], variant: str):
    """IoU of detection i with ground-truth box gi, as a function of (i, gi).

    Each pair is computed on its first request and remembered, so every
    IoU threshold reuses it. Matching asks only for same-class pairs whose
    ground truth is still unmatched, so computing all pairs up front would
    cost more. The rotated variant builds every box's footprint once.
    """
    if variant == "rotated":
        det_fps = footprints(Boxes.of([d.box for d in dets]))
        gt_fps = footprints(Boxes.of(gts))
        return functools.cache(lambda i, gi: footprint_iou(det_fps[i], gt_fps[gi]))
    return functools.cache(lambda i, gi: iou_aabb(dets[i].box, gts[gi]))


def _match_one_scene(
    dets: list[Detection], gts: list[OrientedBox], iou_threshold: float, pair_iou
) -> list[tuple[int, float, bool]]:
    """Greedy matching for one scene.

    Returns (class_id, score, is_tp) per detection whose class occurs in
    the ground truth, in descending score order within the scene.
    """
    gt_classes = {g.class_id for g in gts}
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    matched = [False] * len(gts)
    out: list[tuple[int, float, bool]] = []
    for i in order:
        det = dets[i]
        if det.class_id not in gt_classes:
            continue
        best_gi = -1
        best_iou = 0.0
        for gi, gt in enumerate(gts):
            if gt.class_id != det.class_id or matched[gi]:
                continue
            v = pair_iou(i, gi)
            if v > best_iou:
                best_iou = v
                best_gi = gi
        if best_gi >= 0 and best_iou >= iou_threshold:
            matched[best_gi] = True
            out.append((det.class_id, det.score, True))
        else:
            out.append((det.class_id, det.score, False))
    return out


def _ap_from_curve(recalls: np.ndarray, precisions: np.ndarray, mode: str) -> float:
    if len(recalls) == 0:
        return 0.0
    if mode == "continuous":
        mono = np.maximum.accumulate(precisions[::-1])[::-1]
        prev_r = 0.0
        ap = 0.0
        for r, p in zip(recalls, mono):
            ap += (r - prev_r) * p
            prev_r = r
        return float(ap)
    grid = np.linspace(0.0, 1.0, 11)
    vals = []
    for g in grid:
        ok = recalls >= g - 1e-12
        vals.append(float(precisions[ok].max()) if ok.any() else 0.0)
    return float(np.mean(vals))


def _evaluate_pooled(
    pooled: list[tuple[int, float, bool, int, int]],
    gt_counts: dict[int, int],
    iou_threshold: float,
    ap_mode: str,
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
        ap_per_class[cls] = _ap_from_curve(np.array(recalls), np.array(precisions), ap_mode)
        pr_curves[cls] = (recalls, precisions)
    mean_ap = float(np.mean(list(ap_per_class.values()))) if ap_per_class else 0.0
    return ThresholdResult(
        iou_threshold=iou_threshold,
        ap_per_class=ap_per_class,
        mean_ap=mean_ap,
        pr_curves=pr_curves,
    )


def evaluate_scenes(
    scene_results: list[tuple[list[Detection], list[OrientedBox]]],
    iou_thresholds: list[float],
    *,
    iou: str = "rotated",
    ap: str = "continuous",
) -> ApResult:
    """Pooled AP over several (detections, ground truth) scene pairs."""
    if ap not in AP_MODES:
        raise WrongVariantError(f"unknown AP mode {ap!r}, expected one of {AP_MODES}")
    if iou not in IOU_VARIANTS:
        raise WrongVariantError(f"unknown IoU variant {iou!r}, expected one of {IOU_VARIANTS}")
    for _, gts in scene_results:
        if any(g.class_id is None for g in gts):
            raise DataError("ground-truth boxes must carry class ids for AP evaluation")
    for thr in iou_thresholds:
        if not (0.0 < thr < 1.0):
            raise ValueError(f"IoU threshold must lie in (0, 1), got {thr}")
    # Scene by scene, so one scene's footprints and IoUs serve every
    # threshold and are dropped before the next scene's are built.
    pooled: list[list[tuple[int, float, bool, int, int]]] = [[] for _ in iou_thresholds]
    gt_counts: dict[int, int] = {}
    for si, (dets, gts) in enumerate(scene_results):
        for g in gts:
            gt_counts[g.class_id] = gt_counts.get(g.class_id, 0) + 1
        pair_iou = _scene_iou(dets, gts, iou)
        for rows, thr in zip(pooled, iou_thresholds):
            for di, (cls, score, is_tp) in enumerate(_match_one_scene(dets, gts, thr, pair_iou)):
                rows.append((cls, score, is_tp, si, di))
    results = [
        _evaluate_pooled(rows, gt_counts, thr, ap) for rows, thr in zip(pooled, iou_thresholds)
    ]
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
        gts = Boxes.of(trace.gts)
        gt_fps = footprints(gts)
        for si, rec in enumerate(trace.stages):
            per_stage_pos[si] += rec.assignment.num_regular_positives
            keep = np.flatnonzero(rec.proposals_in.denoising_gt < 0)
            pts = rec.proposals_in.points[keep]
            owner = match_points_to_gt(pts, gts)
            before = matched_faces(gts, pts, owner)[1].tolist()
            dets = rec.detections
            boxes = Boxes(dets.centers[keep], dets.sizes[keep], dets.yaws[keep],
                          dets.class_ids[keep])
            per_stage_before[si].extend(before)
            per_stage_after[si].extend(matched_faces(gts, boxes.centers, owner)[1].tolist())
            per_stage_pairs[si].extend(
                (b, footprint_iou(fp, gt_fps[gi]))
                for fp, gi, b in zip(footprints(boxes), owner.tolist(), before)
            )

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
