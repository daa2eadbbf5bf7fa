"""Rotated IoU and NMS against the scalar rotated-IoU oracle, by exact equality.

`_corner_array` builds every box's footprint corners with one batched
product, and `pair_ious` applies the rotated-IoU rule to index pairs in
array passes; NMS, AP matching, cascade statistics, box placement and the
one-pair `iou_rotated` and `bev_intersection_area` go through them. Kept
lists, mAP and traces stay byte-identical only if each IoU is bit-equal
to the per-pair oracle in `reference.py` (one corner matmul per box,
Sutherland-Hodgman on NumPy scalars), so these properties use ==, never a
tolerance, and run the package code with warnings raised as errors.
"""

import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    match_point_to_gt,
    pairwise_reference_nms,
    scalar_bev_corners,
    scalar_intersection_area,
    scalar_iou_rotated,
)

from cascadev.assignment import CpaSchedule
from cascadev.cascade import run_cascade
from cascadev.evaluation import _scene_iou, cascade_stats
from cascadev.geometry import Boxes, OrientedBox, Point3
from cascadev import overlap
from cascadev.overlap import (
    Detection,
    Detections,
    _corner_array,
    _within_reach,
    bev_intersection_area,
    iou_rotated,
    nms,
    pair_ious,
)
from cascadev.synth import (
    OracleNoise,
    SceneConfig,
    gen_scene,
    oracle_predictor,
    oracle_seed_centerness,
    scene_proposals,
)
from rows import detections
from test_overlap import reference_nms

SETTINGS = settings(max_examples=150, deadline=None)


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
    corners = new_code(_corner_array, Boxes.of(bxs))
    for box, got in zip(bxs, corners):
        want = scalar_bev_corners(box)
        assert got.tobytes() == want.tobytes()
        assert new_code(_corner_array, Boxes.of([box]))[0].tobytes() == want.tobytes()


@SETTINGS
@given(box_pairs())
def test_pair_rule_equals_scalar_iou(pair):
    a, b = pair
    want = scalar_iou_rotated(a, b)
    one = np.array([0])
    assert new_code(pair_ious, Boxes.of([a]), one, Boxes.of([b]), one).tolist() == [want]
    assert new_code(iou_rotated, a, b) == want
    assert new_code(bev_intersection_area, a, b) == scalar_intersection_area(a, b)


@SETTINGS
@given(st.lists(boxes(), min_size=2, max_size=8))
def test_pair_ious_over_a_list_equal_scalar_iou_per_pair(bxs):
    # Every ordered pair of one batch, identical pairs included, in one call.
    cols = Boxes.of(bxs)
    ia, ib = np.divmod(np.arange(len(bxs) ** 2), len(bxs))
    got = new_code(pair_ious, cols, ia, cols, ib)
    assert got.tolist() == [scalar_iou_rotated(bxs[i], bxs[j]) for i, j in zip(ia, ib)]


@st.composite
def kernel_pairs(draw):
    """box_pairs, plus centers exactly at (or one ulp either side of) the
    circumradius sum, yaws at multiples of pi/2, and centers near 1e6."""
    kind = draw(st.sampled_from(["pair", "reach", "quarter_turns", "far"]))
    if kind == "pair":
        return draw(box_pairs())
    a, b = draw(boxes()), draw(boxes())
    if kind == "reach":
        reach = (math.hypot(*a.size[:2]) + math.hypot(*b.size[:2])) / 2.0
        gap = draw(st.sampled_from([reach, math.nextafter(reach, 0.0),
                                    math.nextafter(reach, math.inf)]))
        return (OrientedBox(Point3(0.0, a.center.y, a.center.z), a.size, yaw=a.yaw),
                OrientedBox(Point3(gap, a.center.y, b.center.z), b.size, yaw=b.yaw))
    if kind == "quarter_turns":
        return tuple(OrientedBox(box.center, box.size, yaw=draw(st.integers(-4, 4)) * math.pi / 2)
                     for box in (a, b))
    a, b = draw(box_pairs())
    return tuple(OrientedBox(Point3(box.center.x + 1e6, box.center.y - 1e6, box.center.z),
                             box.size, yaw=box.yaw) for box in (a, b))


@SETTINGS
@given(st.lists(kernel_pairs(), min_size=1, max_size=12))
def test_pair_kernel_equals_scalar_iou(pairs):
    # One batch of mixed pairs, so vertex rows of different lengths share arrays.
    firsts, seconds = Boxes.of([a for a, _ in pairs]), Boxes.of([b for _, b in pairs])
    rows = np.arange(len(pairs))
    got = new_code(pair_ious, firsts, rows, seconds, rows)
    assert got.tolist() == [scalar_iou_rotated(a, b) for a, b in pairs]
    got = new_code(pair_ious, seconds, rows[::-1], firsts, rows[::-1])
    assert got.tolist() == [scalar_iou_rotated(b, a) for a, b in pairs[::-1]]


def test_circumradius_exit_decides_as_math_hypot():
    # np.hypot differs from math.hypot in the last bit on about 0.5% of
    # inputs, so a reach at np.hypot's value (or one ulp off) splits the two.
    rng = np.random.default_rng(0)
    dx, dy = rng.uniform(-2.0, 2.0, (2, 20_000))
    gap = np.hypot(dx, dy)
    for reach in (gap, np.nextafter(gap, 0.0), np.nextafter(gap, 3.0)):
        want = [not math.hypot(u, v) > r for u, v, r in zip(dx.tolist(), dy.tolist(), reach.tolist())]
        assert new_code(_within_reach, dx, dy, reach).tolist() == want


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
    assert new_code(nms, detections(dets), thr) == reference_nms(dets, thr)


@SETTINGS
@given(st.lists(boxes(), min_size=1, max_size=6), st.lists(boxes(), min_size=1, max_size=4))
def test_ap_matching_ious_equal_scalar_iou(det_boxes, gts):
    # Every detection and ground-truth box is of class 0, so every pair is scored.
    dets = [Detection(box, 0.5, 0) for box in det_boxes]
    gts = [OrientedBox(g.center, g.size, yaw=g.yaw, class_id=0) for g in gts]
    ious = new_code(_scene_iou, detections(dets), Boxes.of(gts))
    assert ious == [[scalar_iou_rotated(det.box, gt) for gt in gts] for det in dets]


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
            for pi, (p, det) in enumerate(zip(rec.proposals_in.points, rec.detections))
            if rec.proposals_in.denoising_gt[pi] < 0
        ]
        assert [iou for _, iou in stage.pairs] == want


# --- NMS batches through its prefix passes and its final step ---------------


def _nms_passes(monkeypatch, dets, thr):
    """nms(dets, thr); (len(left), len(right), left is right) of each
    _candidate_pairs call; and the pair count of each _ious call."""
    listed, scored = [], []

    def list_pairs(cols, class_ids, left, right):
        listed.append((len(left), len(right), left is right))
        return candidate_pairs(cols, class_ids, left, right)

    def score(a, ia, b, ib):
        scored.append(len(ia))
        return ious(a, ia, b, ib)

    candidate_pairs, ious = overlap._candidate_pairs, overlap._ious
    monkeypatch.setattr(overlap, "_candidate_pairs", list_pairs)
    monkeypatch.setattr(overlap, "_ious", score)
    return new_code(nms, dets, thr), listed, scored


def test_nms_on_a_pooled_yawed_scene_equals_reference(monkeypatch):
    # Stages 1-3 of a 512-proposal noisy oracle run, as ensemble_stages pools them.
    cfg = SceneConfig(num_gt=(10, 10), points_per_box=200, num_clutter=2000, yaw_enabled=True,
                      workspace=((-8.0, 8.0), (-8.0, 8.0), (0.0, 3.0)))
    noise = OracleNoise(sigma_delta=0.25, sigma_heading=0.2, p_class_flip=0.1,
                        centerness_bias=0.15)
    scene = gen_scene(cfg, 3)
    props = scene_proposals(scene, oracle_seed_centerness(scene, noise, seed=3), 512)
    trace = run_cascade(props, oracle_predictor(scene, noise, seed=3), CpaSchedule(),
                        scene.gt_boxes)
    pooled = Detections(*(np.concatenate([getattr(r.detections, f.name) for r in trace.stages])
                          for f in fields(Detections)))
    assert len(pooled) == 1536
    kept, listed, scored = _nms_passes(monkeypatch, pooled, 0.25)
    # Prefix passes: pairs inside the first _PREFIX open rows, then the
    # kept rows against the open ones; last, the final step's open rows.
    passes = (len(listed) - 1) // 2
    assert passes >= 1
    assert listed[0] == (overlap._PREFIX, overlap._PREFIX, True)
    assert not listed[1][2] and listed[1][1] > overlap._PREFIX
    assert listed[-1][2] and listed[-1][0] <= overlap._PREFIX
    assert passes + 1 <= len(scored) <= passes + overlap._EXACT_ROUNDS + 1 and scored[-1] > 0
    assert kept == reference_nms(list(pooled), 0.25)


@pytest.mark.parametrize("thr", [0.2, 0.4, 0.7])
def test_nms_on_a_cluster_of_near_duplicates_with_ties_equals_reference(monkeypatch, thr):
    rng = np.random.default_rng(5)
    n = 200
    centers = np.array([0.3, -0.2, 1.0]) + rng.normal(0.0, 0.2, (n, 3))
    sizes = np.array([1.0, 0.7, 0.8]) * rng.uniform(0.85, 1.15, (n, 3))
    yaws = 0.4 + rng.normal(0.0, 0.15, n)
    scores = rng.choice([0.3, 0.5, 0.7, 0.9], n)
    dets = Detections(centers, sizes, yaws, np.zeros(n, dtype=np.int64), scores,
                      np.ones(n, dtype=np.int64))
    kept, listed, scored = _nms_passes(monkeypatch, dets, thr)
    # No more than _PREFIX rows: the final step alone, over all of them.
    assert listed == [(n, n, True)]
    assert len(scored) <= overlap._EXACT_ROUNDS + 1 and scored[-1] > 0
    assert kept == reference_nms(list(dets), thr)


def test_nms_passes_stay_few_when_every_row_overlaps_every_other(monkeypatch):
    # 600 thin boxes on one center, yaws spread over pi: every row is every
    # other row's candidate, so a prefix pass keeps only its top row and
    # suppresses a few near-parallel ones. Such a pass ends the passes.
    n = 600
    rng = np.random.default_rng(0)
    dets = Detections(np.zeros((n, 3)), np.tile([4.0, 0.01, 1.0], (n, 1)),
                      np.linspace(0.0, math.pi, n, endpoint=False), np.zeros(n, dtype=np.int64),
                      rng.uniform(0.0, 1.0, n), np.ones(n, dtype=np.int64))
    kept, listed, scored = _nms_passes(monkeypatch, dets, 0.25)
    assert len(scored) <= 1 + overlap._EXACT_ROUNDS + 1
    assert kept == pairwise_reference_nms(dets, 0.25)


def clustered_batch(seed, n, classes, top_class_rows):
    """n detections on a few clusters, in `classes` classes, with score ties.

    The last top_class_rows rows form one more class, spread apart and
    scored above every other row, so they all fall inside the first prefix
    and are all kept by its pass: that class has no open rows left when the
    later passes list pairs.
    """
    rng = np.random.default_rng(seed)
    m = n - top_class_rows
    hubs = rng.uniform([-6.0, -6.0, 0.5], [6.0, 6.0, 2.5], (int(rng.integers(1, 30)), 3))
    hub = rng.integers(0, len(hubs), m)
    centers = hubs[hub] + rng.normal(0.0, rng.uniform(0.05, 0.4), (m, 3))
    sizes = rng.uniform(0.4, 1.6, (len(hubs), 3))[hub] * rng.uniform(0.85, 1.15, (m, 3))
    yaws = rng.uniform(-math.pi, math.pi, len(hubs))[hub] + rng.normal(0.0, 0.2, m)
    scores = np.where(rng.random(m) < 0.5, rng.choice([0.2, 0.5, 0.8], m), rng.uniform(0.0, 0.9, m))
    class_ids = rng.integers(0, classes, m)
    k = np.arange(top_class_rows)
    centers = np.concatenate([centers, np.column_stack([3.0 * k - 30.0, np.full(len(k), 20.0),
                                                       np.ones(len(k))])])
    sizes = np.concatenate([sizes, np.ones((len(k), 3))])
    yaws = np.concatenate([yaws, np.zeros(len(k))])
    scores = np.concatenate([scores, rng.choice([0.95, 1.0], len(k))])
    class_ids = np.concatenate([class_ids, np.full(len(k), classes)])
    return Detections(centers, sizes, yaws, class_ids, scores, np.ones(n, dtype=np.int64))


def test_nms_when_one_class_leaves_the_first_prefix_with_no_open_rows(monkeypatch):
    dets = clustered_batch(seed=1, n=700, classes=2, top_class_rows=40)
    seen = []

    def list_pairs(cols, class_ids, left, right):
        seen.append((2 in class_ids[left].tolist(), 2 in class_ids[right].tolist()))
        return candidate_pairs(cols, class_ids, left, right)

    candidate_pairs = overlap._candidate_pairs
    monkeypatch.setattr(overlap, "_candidate_pairs", list_pairs)
    kept = new_code(nms, dets, 0.5)
    assert (True, False) in seen  # the class's kept rows against no open row of it
    assert kept == pairwise_reference_nms(dets, 0.5)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(520, 1000), st.integers(1, 5),
       st.sampled_from([0, 0, 1, 64]), st.sampled_from([0.1, 0.25, 0.5, 0.7]))
def test_nms_on_large_clustered_batches_equals_pairwise_reference(seed, n, classes, top, thr):
    dets = clustered_batch(seed, n, classes, top)
    assert new_code(nms, dets, thr) == pairwise_reference_nms(dets, thr)


def test_nms_suppresses_an_identical_box_too_thin_for_its_z():
    # At z = 1e6 a 1e-11 height rounds away: z_lo == z_hi, so the z overlap
    # is 0, yet the rule's identical-box shortcut still scores 1.0.
    box = OrientedBox(Point3(0.5, -0.5, 1e6), (1.0, 0.8, 1e-11), yaw=0.3)
    dets = [Detection(box, 0.9, 0), Detection(box, 0.8, 0)]
    assert reference_nms(dets, 0.5) == [0]
    assert new_code(nms, detections(dets), 0.5) == [0]
