"""Footprint IoU and NMS against the scalar rotated-IoU path, by exact equality.

`footprints` builds every box's corners with one batched product and
`footprint_iou` applies the rotated-IoU rule to two footprints; NMS, AP
matching, cascade statistics and box placement all go through them.
Kept lists, mAP and traces stay byte-identical only if each IoU is
bit-equal to the per-pair scalar path copied below (one corner
matmul per box, Sutherland-Hodgman on NumPy scalars), so these
properties use ==, never a tolerance, and run the new code with
warnings raised as errors.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import _axis_overlap, match_point_to_gt

from cascadev.assignment import CpaSchedule
from cascadev.cascade import run_cascade
from cascadev.evaluation import _scene_iou, cascade_stats
from cascadev.geometry import Boxes, OrientedBox, Point3
from cascadev.overlap import (
    Detection,
    _corner_array,
    bev_intersection_area,
    footprint_iou,
    footprints,
    iou_rotated,
    nms,
)
from cascadev.synth import (
    OracleNoise,
    SceneConfig,
    gen_scene,
    oracle_predictor,
    oracle_seed_centerness,
    scene_proposals,
)
from test_overlap import columns, reference_nms

SETTINGS = settings(max_examples=150, deadline=None)


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


# --- strategies -------------------------------------------------------------

coords = st.floats(-1.5, 1.5)
extents = st.floats(0.05, 2.0)
yaws = st.one_of(st.just(0.0), st.floats(-math.pi, math.pi, exclude_max=True))


@st.composite
def boxes(draw):
    center = Point3(draw(coords), draw(coords), draw(coords))
    return OrientedBox(center, (draw(extents), draw(extents), draw(extents)), yaw=draw(yaws))


def along_width(box, distance):
    """box's center moved by distance along its own width axis."""
    c = box.center
    return Point3(
        c.x + math.cos(box.yaw) * distance, c.y + math.sin(box.yaw) * distance, c.z
    )


@st.composite
def box_pairs(draw):
    """Two boxes: independent, identical, nested, face to face, or z-disjoint."""
    a = draw(boxes())
    kind = draw(st.sampled_from(["any", "identical", "nested", "touching", "z_apart"]))
    if kind == "any":
        return a, draw(boxes())
    if kind == "identical":
        return a, OrientedBox(a.center, a.size, yaw=a.yaw)
    if kind == "nested":
        f = draw(st.floats(0.1, 1.0))
        return a, OrientedBox(a.center, tuple(f * s for s in a.size), yaw=a.yaw)
    if kind == "touching":
        size = (draw(extents), draw(extents), draw(extents))
        center = along_width(a, (a.size[0] + size[0]) / 2.0)
        return a, OrientedBox(center, size, yaw=a.yaw)
    h = draw(extents)
    gap = draw(st.sampled_from([0.0, 1e-12, 0.5]))
    center = Point3(a.center.x, a.center.y, a.center.z + (a.size[2] + h) / 2.0 + gap)
    return a, OrientedBox(center, (draw(extents), draw(extents), h), yaw=draw(yaws))


def new_code(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


# --- properties -------------------------------------------------------------


@SETTINGS
@given(st.lists(boxes(), min_size=1, max_size=12))
def test_batched_corners_equal_bev_corners_bitwise(bxs):
    fps = new_code(footprints, Boxes.of(bxs))
    for box, fp in zip(bxs, fps):
        want = scalar_bev_corners(box)
        assert np.array(fp.corners).tobytes() == want.tobytes()
        assert new_code(_corner_array, Boxes.of([box]))[0].tobytes() == want.tobytes()


@SETTINGS
@given(box_pairs())
def test_pair_rule_equals_scalar_iou(pair):
    a, b = pair
    want = scalar_iou_rotated(a, b)
    assert new_code(lambda: footprint_iou(*footprints(Boxes.of([a, b])))) == want
    assert new_code(iou_rotated, a, b) == want
    assert new_code(bev_intersection_area, a, b) == scalar_intersection_area(a, b)


@SETTINGS
@given(st.lists(boxes(), min_size=2, max_size=8))
def test_footprints_of_a_list_equal_scalar_iou_per_pair(bxs):
    fps = new_code(footprints, Boxes.of(bxs))
    for i, a in enumerate(bxs):
        for j, b in enumerate(bxs):
            assert new_code(footprint_iou, fps[i], fps[j]) == scalar_iou_rotated(a, b)


@st.composite
def detection_sets(draw):
    """Detections on a few shared boxes, with score ties, repeats and mixed classes,
    and a threshold that is sometimes exactly (or one ulp off) a pair's IoU."""
    pool = draw(st.lists(boxes(), min_size=1, max_size=6))
    # Jittered copies cluster detections on the pool, as stage ensembles do.
    jitter = st.floats(-0.15, 0.15)
    dets = []
    for _ in range(draw(st.integers(1, 24))):
        base = pool[draw(st.integers(0, len(pool) - 1))]
        if draw(st.booleans()):
            box = base
        else:
            c = base.center
            box = OrientedBox(
                Point3(c.x + draw(jitter), c.y + draw(jitter), c.z + draw(jitter)),
                base.size,
                yaw=base.yaw + draw(jitter),
            )
        score = draw(st.one_of(st.sampled_from([0.2, 0.5, 0.9]), st.floats(0.0, 1.0)))
        dets.append(Detection(box, score, draw(st.integers(0, 2))))
    same_class = [(a.box, b.box) for a in dets for b in dets if a.class_id == b.class_id]
    ious = sorted({v for v in (scalar_iou_rotated(a, b) for a, b in same_class) if 0.0 < v < 1.0})
    thr = draw(st.floats(0.05, 0.95))
    if ious and draw(st.booleans()):
        v = ious[draw(st.integers(0, len(ious) - 1))]
        thr = draw(st.sampled_from([v, math.nextafter(v, 0.0), math.nextafter(v, 1.0)]))
    return dets, thr


@SETTINGS
@given(detection_sets())
def test_nms_equals_reference(case):
    dets, thr = case
    kept = new_code(nms, columns(dets), thr)
    assert kept == reference_nms(dets, thr)
    assert kept == reference_nms(dets, thr, iou=scalar_iou_rotated)


@SETTINGS
@given(st.lists(boxes(), min_size=1, max_size=6), st.lists(boxes(), min_size=1, max_size=4))
def test_ap_matching_ious_equal_scalar_iou(det_boxes, gts):
    dets = [Detection(box, 0.5, 0) for box in det_boxes]
    pair_iou = new_code(_scene_iou, dets, gts)
    for i, det in enumerate(dets):
        for gi, gt in enumerate(gts):
            assert new_code(pair_iou, i, gi) == scalar_iou_rotated(det.box, gt)


def test_cascade_stats_ious_equal_scalar_iou():
    # Each pair's IoU is the detection's against its proposal's ground truth,
    # in that order: the scalar rule is not bit-symmetric in its arguments.
    cfg = SceneConfig(num_gt=(2, 3), points_per_box=60, num_clutter=150, yaw_enabled=True)
    noise = OracleNoise(sigma_delta=0.1, sigma_heading=0.1, centerness_bias=0.1)
    traces = []
    for seed in (1, 2):
        scene = gen_scene(cfg, seed)
        cent = oracle_seed_centerness(scene, noise, seed=1)
        props = scene_proposals(scene, cent, 24, denoising_k=1)
        predict = oracle_predictor(scene, noise, seed=1)
        traces.append(run_cascade(props, predict, CpaSchedule(), scene.gt_boxes))
    stats = new_code(cascade_stats, traces)
    for si, stage in enumerate(stats.stages):
        want = [
            scalar_iou_rotated(det.box, t.gts[match_point_to_gt(Point3(*p), t.gts)])
            for t in traces
            for rec in [t.stages[si]]
            for pi, (p, det) in enumerate(zip(rec.proposals_in.points,
                                              rec.detections.rows(rec.stage)))
            if rec.proposals_in.denoising_gt[pi] < 0
        ]
        assert [iou for _, iou in stage.pairs] == want
