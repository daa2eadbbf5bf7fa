"""Scalar reference rules that the package's array kernels are tested against.

The pipeline runs centerness_array, contains_points, box_owners,
match_points_to_gt and the oracle's batch extent guard; these per-point
versions state the same rules one point at a time, and the property tests
compare the kernels with them bit for bit. point_in_scaled_box is the one
containment rule: match_point_to_gt asks it at mu 0.5, as box_owners asks
contains_points. iou_aabb is the axis-aligned IoU that the rotated IoU must
equal at yaw 0. scalar_iou_rotated is the rotated-IoU rule one pair at a time
(one corner matmul per box, Sutherland-Hodgman on NumPy scalars); the batched
kernel behind NMS, AP matching, cascade statistics, box placement and the
one-pair iou_rotated must equal it bit for bit. pooled_ap is pooled AP as
(class, score, hit, scene, rank) rows, ranked per class by a Python sort and
summed in a loop; evaluate_scenes' column pass must equal it with ==.
pairwise_reference_nms is the greedy NMS rule over one pair_ious call on
every same-class pair, for batches too large for the scalar oracle.
"""

import math

import numpy as np

from cascadev.errors import WrongVariantError
from cascadev.evaluation import ApResult, ThresholdResult, _scene_iou
from cascadev.geometry import EPS, Deltas, OrientedBox, Point3, _to_canonical
from cascadev.overlap import pair_ious


def centerness(d: Deltas) -> float:
    """Normalized closeness of a point to its box center, in [0, 1].

    Defined as sqrt of the product of min/max ratios of the three
    opposite face-distance pairs. Zero whenever any distance is <= 0
    (the point sits on a face or outside the box); one exactly when
    all three pairs are balanced. On-face is judged within EPS, so a
    point constructed on a face stays at zero under roundoff instead
    of ranking above other face points by floating-point dust.
    """
    fs = d.faces()
    if min(fs) <= EPS:
        return 0.0
    r1 = min(d.d1, d.d2) / max(d.d1, d.d2)
    r2 = min(d.d3, d.d4) / max(d.d3, d.d4)
    r3 = min(d.d5, d.d6) / max(d.d5, d.d6)
    return math.sqrt(r1 * r2 * r3)


def point_in_scaled_box(p: Point3, box: OrientedBox, mu: float) -> bool:
    """Membership of p in the box scaled by mu around its center.

    The test is |q_axis| <= mu * extent_axis in the canonical frame,
    boundary inclusive (within EPS). mu = 0.5 is ordinary point-in-box
    membership; smaller values keep only points near the center.
    """
    if mu <= 0.0:
        raise ValueError(f"scale threshold must be positive, got {mu}")
    qx, qy, qz = _to_canonical(p, box)
    w, l, h = box.size
    return (
        abs(qx) <= mu * w + EPS
        and abs(qy) <= mu * l + EPS
        and abs(qz) <= mu * h + EPS
    )


def match_point_to_gt(p: Point3, gts: list[OrientedBox]) -> int:
    """Containing box by point_in_scaled_box at mu 0.5 (smallest volume, then lower
    index, on ties), else nearest center."""
    best = -1
    best_vol = math.inf
    for gi, gt in enumerate(gts):
        if point_in_scaled_box(p, gt, 0.5) and gt.volume < best_vol:
            best = gi
            best_vol = gt.volume
    if best >= 0:
        return best
    centers = np.array([[g.center.x, g.center.y, g.center.z] for g in gts])
    dist = np.linalg.norm(centers - np.array([p.x, p.y, p.z]), axis=1)
    return int(np.argmin(dist))


MIN_DECODED_SIZE = 0.01


def guard_extents(d: np.ndarray) -> np.ndarray:
    """Shift delta pairs so every implied extent stays decodable."""
    out = d.copy()
    for axis in range(3):
        a, b = 2 * axis, 2 * axis + 1
        total = out[a] + out[b]
        if total < MIN_DECODED_SIZE:
            shift = (MIN_DECODED_SIZE - total) / 2.0
            out[a] += shift
            out[b] += shift
    return out


def _axis_overlap(c1: float, s1: float, c2: float, s2: float) -> float:
    lo = max(c1 - s1 / 2.0, c2 - s2 / 2.0)
    hi = min(c1 + s1 / 2.0, c2 + s2 / 2.0)
    return max(0.0, hi - lo)


def iou_aabb(a: OrientedBox, b: OrientedBox) -> float:
    """Axis-aligned 3D IoU. Both boxes must have yaw 0.

    Raises WrongVariantError for a rotated box; use iou_rotated there.
    """
    if a.yaw != 0.0 or b.yaw != 0.0:
        raise WrongVariantError(
            f"axis-aligned IoU called on rotated boxes (yaws {a.yaw}, {b.yaw})"
        )
    ox = _axis_overlap(a.center.x, a.size[0], b.center.x, b.size[0])
    oy = _axis_overlap(a.center.y, a.size[1], b.center.y, b.size[1])
    oz = _axis_overlap(a.center.z, a.size[2], b.center.z, b.size[2])
    inter = ox * oy * oz
    if inter <= 0.0:
        return 0.0
    union = a.volume + b.volume - inter
    return inter / union


# --- the scalar oracle: per-pair rotated IoU on NumPy arrays ---------------


def scalar_bev_corners(box):
    w, l, _ = box.size
    c = math.cos(box.yaw)
    s = math.sin(box.yaw)
    local = np.array(
        [
            [w / 2.0, l / 2.0],
            [-w / 2.0, l / 2.0],
            [-w / 2.0, -l / 2.0],
            [w / 2.0, -l / 2.0],
        ]
    )
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array([box.center.x, box.center.y])


def scalar_polygon_area(poly):
    n = len(poly)
    if n < 3:
        return 0.0
    acc = 0.0
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        acc += x1 * y2 - x2 * y1
    return acc / 2.0


def scalar_clip_convex(subject, clip):
    output = subject
    n = len(clip)
    for i in range(n):
        if not output:
            break
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        input_list = output
        output = []
        prev = input_list[-1]
        prev_side = ex * (prev[1] - ay) - ey * (prev[0] - ax)
        for cur in input_list:
            cur_side = ex * (cur[1] - ay) - ey * (cur[0] - ax)
            if cur_side >= 0.0:
                if prev_side < 0.0:
                    t = prev_side / (prev_side - cur_side)
                    output.append(
                        (prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1]))
                    )
                output.append(cur)
            elif prev_side >= 0.0:
                t = prev_side / (prev_side - cur_side)
                output.append(
                    (prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1]))
                )
            prev, prev_side = cur, cur_side
    return output


def scalar_intersection_area(a, b):
    poly = scalar_clip_convex([tuple(p) for p in scalar_bev_corners(a)], scalar_bev_corners(b))
    area = abs(scalar_polygon_area(poly))
    return 0.0 if area < 1e-12 else area


def scalar_iou_rotated(a, b):
    """Rotated IoU of a clipped against b: the exits in order, then the clip."""
    if a.center == b.center and a.size == b.size and a.yaw == b.yaw:
        return 1.0
    oz = _axis_overlap(a.center.z, a.size[2], b.center.z, b.size[2])
    if oz <= 0.0:
        return 0.0
    gap = math.hypot(a.center.x - b.center.x, a.center.y - b.center.y)
    if gap > (math.hypot(*a.size[:2]) + math.hypot(*b.size[:2])) / 2.0:
        return 0.0
    area = scalar_intersection_area(a, b)
    if area <= 0.0:
        return 0.0
    inter = area * oz
    union = a.volume + b.volume - inter
    return inter / union


# --- pooled AP as rows ------------------------------------------------------


def match_one_scene(dets, gts, iou_threshold, ious):
    """Greedy matching for one scene, on its _scene_iou rows.

    Returns (class_id, score, is_tp) per detection whose class occurs in
    the ground truth, in descending score order within the scene.
    """
    gt_classes = gts.class_ids.tolist()
    classes, scores = dets.class_ids.tolist(), dets.scores.tolist()
    matched = [False] * len(gt_classes)
    out = []
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


def ap_from_curve(recalls, precisions):
    if len(recalls) == 0:
        return 0.0
    mono = np.maximum.accumulate(precisions[::-1])[::-1]
    prev_r = 0.0
    ap = 0.0
    for r, p in zip(recalls, mono):
        ap += (r - prev_r) * p
        prev_r = r
    return float(ap)


def evaluate_pooled(pooled, gt_counts, iou_threshold):
    ap_per_class = {}
    pr_curves = {}
    for cls in sorted(gt_counts):
        n_gt = gt_counts[cls]
        rows = [r for r in pooled if r[0] == cls]
        rows.sort(key=lambda r: (-r[1], r[3], r[4]))
        tp_cum = 0
        recalls = []
        precisions = []
        for rank, row in enumerate(rows, start=1):
            tp_cum += int(row[2])
            recalls.append(tp_cum / n_gt)
            precisions.append(tp_cum / rank)
        ap_per_class[cls] = ap_from_curve(np.array(recalls), np.array(precisions))
        pr_curves[cls] = (recalls, precisions)
    mean_ap = float(np.mean(list(ap_per_class.values()))) if ap_per_class else 0.0
    return ThresholdResult(
        iou_threshold=iou_threshold,
        ap_per_class=ap_per_class,
        mean_ap=mean_ap,
        pr_curves=pr_curves,
    )


def pooled_ap(scene_results, iou_thresholds):
    """evaluate_scenes' result from (class, score, hit, scene, rank) rows."""
    pooled = [[] for _ in iou_thresholds]
    gt_counts = {}
    for si, (dets, gts) in enumerate(scene_results):
        for cls in gts.class_ids.tolist():
            gt_counts[cls] = gt_counts.get(cls, 0) + 1
        ious = _scene_iou(dets, gts)
        for rows, thr in zip(pooled, iou_thresholds):
            for di, (cls, score, is_tp) in enumerate(match_one_scene(dets, gts, thr, ious)):
                rows.append((cls, score, is_tp, si, di))
    results = [evaluate_pooled(rows, gt_counts, thr) for rows, thr in zip(pooled, iou_thresholds)]
    return ApResult(results=results)


# --- NMS over one IoU call on every same-class pair ------------------------


def pairwise_reference_nms(dets, thr):
    """The greedy NMS rule on a Detections batch, over one pair_ious call on
    every same-class pair.

    Rows are ranked by descending score, ties by lower index, and each pair
    is scored as (higher-ranked, lower-ranked), the order the greedy asks
    for. It scores every pair whatever the greedy needs, so it shares no
    pass structure with nms, and it is fast enough for batches of a
    thousand rows, where reference_nms's scalar IoU is not.
    """
    order = np.array(sorted(range(len(dets)), key=lambda i: (-dets.scores[i], i)), dtype=np.int64)
    hi, lo = np.triu_indices(len(order), 1)
    same = dets.class_ids[order[hi]] == dets.class_ids[order[lo]]
    hi, lo = hi[same], lo[same]
    over = np.zeros((len(order), len(order)), dtype=bool)
    over[hi, lo] = pair_ious(dets, order[hi], dets, order[lo]) > thr
    alive = np.ones(len(order), dtype=bool)
    kept = []
    for r in range(len(order)):
        if alive[r]:
            kept.append(int(order[r]))
            alive &= ~over[r]
    return kept
