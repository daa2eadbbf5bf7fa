import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from reference import pooled_ap
from rows import detections, xyz

from cascadev import evaluation
from cascadev.assignment import CpaSchedule
from cascadev.cascade import run_cascade
from cascadev.errors import DataError
from cascadev.evaluation import (
    ApResult,
    cascade_stats,
    evaluate_scenes,
)
from cascadev.geometry import Boxes, OrientedBox, Point3
from cascadev.overlap import Detection
from cascadev.synth import (
    OracleNoise,
    SceneConfig,
    gen_scene,
    oracle_predictor,
    oracle_seed_centerness,
    scene_proposals,
)

CFG = SceneConfig(num_gt=(2, 3), points_per_box=60, num_clutter=150)


def det(box, score, cls, stage=1):
    return Detection(box=box, score=score, class_id=cls, stage=stage)


def one_scene_ap(dets, gts, iou_threshold):
    """AP of one scene at one threshold, its detections and ground truth given as rows."""
    return evaluate_scenes([(detections(dets), Boxes.of(gts))], [iou_threshold])


def fixture_two_gts():
    g1 = OrientedBox(Point3(0.0, 0.0, 0.5), (1.0, 1.0, 1.0), class_id=0)
    g2 = OrientedBox(Point3(5.0, 0.0, 0.5), (1.0, 1.0, 1.0), class_id=0)
    d1 = det(g1, 0.9, 0)  # TP
    d2 = det(OrientedBox(Point3(0.1, 0.0, 0.5), (1.0, 1.0, 1.0), class_id=0), 0.8, 0)  # dup -> FP
    d3 = det(g2, 0.7, 0)  # TP
    return [d1, d2, d3], [g1, g2]


class TestAveragePrecision:
    def test_perfect_single_detection(self):
        gt = OrientedBox(Point3(1, 1, 1), (1, 1, 1), class_id=2)
        res = one_scene_ap([det(gt, 0.9, 2)], [gt], 0.5)
        assert res.at(0.5).mean_ap == pytest.approx(1.0, abs=1e-12)
        assert res.at(0.5).ap_per_class == {2: pytest.approx(1.0)}

    def test_no_detections(self):
        gt = OrientedBox(Point3(0, 0, 0), (1, 1, 1), class_id=0)
        assert one_scene_ap([], [gt], 0.5).at(0.5).mean_ap == 0.0

    def test_hand_fixture_continuous(self):
        dets, gts = fixture_two_gts()
        res = one_scene_ap(dets, gts, 0.5)
        # Ranked TP, FP, TP over 2 gts: AP = 0.5*1 + 0.5*(2/3) = 5/6.
        assert res.at(0.5).mean_ap == pytest.approx(5.0 / 6.0, abs=1e-12)
        recalls, precisions = res.at(0.5).pr_curves[0]
        assert recalls == pytest.approx([0.5, 0.5, 1.0])
        assert precisions == pytest.approx([1.0, 0.5, 2.0 / 3.0])

    def test_detection_order_irrelevant(self):
        dets, gts = fixture_two_gts()
        base = one_scene_ap(dets, gts, 0.5).at(0.5).mean_ap
        assert one_scene_ap(dets[::-1], gts, 0.5).at(0.5).mean_ap == pytest.approx(base)

    def test_class_with_no_dets_counts_zero(self):
        g1 = OrientedBox(Point3(0, 0, 0), (1, 1, 1), class_id=0)
        g2 = OrientedBox(Point3(5, 0, 0), (1, 1, 1), class_id=1)
        res = one_scene_ap([det(g1, 0.9, 0)], [g1, g2], 0.5)
        assert res.at(0.5).ap_per_class[0] == pytest.approx(1.0)
        assert res.at(0.5).ap_per_class[1] == 0.0
        assert res.at(0.5).mean_ap == pytest.approx(0.5)

    def test_det_class_absent_from_gt_excluded(self):
        g1 = OrientedBox(Point3(0, 0, 0), (1, 1, 1), class_id=0)
        g1_as_4 = OrientedBox(g1.center, g1.size, class_id=4)
        dets = [det(g1, 0.9, 0), det(g1_as_4, 0.95, 4)]
        res = one_scene_ap(dets, [g1], 0.5)
        assert list(res.at(0.5).ap_per_class) == [0]
        assert res.at(0.5).mean_ap == pytest.approx(1.0)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(61)
        for trial in range(10):
            s = gen_scene(CFG, 200 + trial)
            predict = oracle_predictor(s, OracleNoise(sigma_delta=0.2), seed=trial)
            cent = oracle_seed_centerness(s, OracleNoise(sigma_delta=0.2), seed=trial)
            props = scene_proposals(s, cent, 24)
            trace = run_cascade(props, predict, CpaSchedule(0.4, 0.2, 2), s.gt_boxes)
            dets = trace.stages[-1].detections
            maps = [
                one_scene_ap(dets, s.gt_boxes, thr).at(thr).mean_ap
                for thr in (0.25, 0.4, 0.5, 0.7)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(maps, maps[1:]))

    def test_thresholds_share_each_pairs_iou(self, monkeypatch):
        """A scene's IoUs come from one pair_ious call whatever the thresholds:
        the call scores exactly the scene's same-class (detection, ground
        truth) pairs, and the results equal the one-threshold ones."""
        s = gen_scene(CFG, 204)
        noise = OracleNoise(sigma_delta=0.2)
        props = scene_proposals(s, oracle_seed_centerness(s, noise, seed=4), 24)
        trace = run_cascade(props, oracle_predictor(s, noise, seed=4), CpaSchedule(), s.gt_boxes)
        dets = detections([d for rec in trace.stages for d in rec.detections])
        same_class = {(i, gi) for i, d in enumerate(dets) for gi, g in enumerate(s.gt_boxes)
                      if d.class_id == g.class_id}
        calls = []
        kernel = evaluation.pair_ious

        def spy(a, ia, b, ib):
            assert np.array_equal(a.centers, xyz([d.box.center for d in dets]))
            assert np.array_equal(b.centers, xyz([g.center for g in s.gt_boxes]))
            calls.append(list(zip(ia.tolist(), ib.tolist())))
            return kernel(a, ia, b, ib)

        monkeypatch.setattr(evaluation, "pair_ious", spy)
        singles = []
        for thr in (0.25, 0.5):
            calls.clear()
            singles.extend(evaluate_scenes([(dets, s.gt_boxes)], [thr]).results)
            assert len(calls) == 1
        calls.clear()
        both = evaluate_scenes([(dets, s.gt_boxes)], [0.25, 0.5])
        assert len(calls) == 1
        assert len(calls[0]) == len(set(calls[0])) and set(calls[0]) == same_class
        assert both.results == singles

    def test_equal_ious_go_to_the_lower_index(self):
        # The first detection sits halfway between two boxes; taking the
        # second box would leave the next detection, an exact copy of it,
        # without a match.
        ga = OrientedBox(Point3(-0.5, 0, 0.5), (1, 1, 1), class_id=0)
        gb = OrientedBox(Point3(0.5, 0, 0.5), (1, 1, 1), class_id=0)
        between = OrientedBox(Point3(0, 0, 0.5), (1, 1, 1), class_id=0)
        res = one_scene_ap([det(between, 0.9, 0), det(gb, 0.8, 0)], [ga, gb], 0.3)
        assert res.at(0.3).pr_curves[0] == ([0.5, 1.0], [1.0, 1.0])

    def test_pooling_combines_scenes(self):
        # One scene detected perfectly, one missed entirely: pooled recall
        # covers half the ground truth.
        g1 = OrientedBox(Point3(0, 0, 0), (1, 1, 1), class_id=0)
        g2 = OrientedBox(Point3(3, 3, 1), (1, 1, 1), class_id=0)
        res = evaluate_scenes([(detections([det(g1, 0.9, 0)]), Boxes.of([g1])),
                               (detections([]), Boxes.of([g2]))], [0.5])
        curve = res.at(0.5).pr_curves[0]
        assert curve[0] == pytest.approx([0.5])
        assert res.at(0.5).mean_ap == pytest.approx(0.5)

    def test_axis_aligned_boxes_match_at_their_iou(self):
        g = OrientedBox(Point3(0, 0, 0), (1, 1, 1), class_id=0)
        shifted = OrientedBox(Point3(0.5, 0, 0), (1, 1, 1), class_id=0)
        res = one_scene_ap([det(shifted, 0.9, 0)], [g], 0.3)
        assert res.at(0.3).mean_ap == pytest.approx(1.0)  # IoU 1/3 at yaw 0 passes 0.3

    def test_variant_validation(self):
        g = OrientedBox(Point3(0, 0, 0), (1, 1, 1), class_id=0)
        with pytest.raises(ValueError):
            one_scene_ap([], [g], 1.5)

    def test_gt_without_class_rejected(self):
        g = OrientedBox(Point3(0, 0, 0), (1, 1, 1))
        with pytest.raises(DataError):
            one_scene_ap([], [g], 0.5)

    def test_exact_oracle_map_is_one(self):
        results = []
        for seed in range(5):
            s = gen_scene(CFG, 300 + seed)
            predict = oracle_predictor(s, OracleNoise(), seed=0)
            cent = oracle_seed_centerness(s, OracleNoise(), seed=0)
            props = scene_proposals(s, cent, 48)
            trace = run_cascade(props, predict, CpaSchedule(0.4, 0.2, 3), s.gt_boxes)
            from cascadev.cascade import ensemble_stages

            results.append((ensemble_stages(trace, (1, 3), 0.25), s.gt_boxes))
        res = evaluate_scenes(results, [0.25, 0.5])
        assert res.at(0.5).mean_ap == pytest.approx(1.0, abs=1e-12)
        assert res.at(0.25).mean_ap == pytest.approx(1.0, abs=1e-12)


@st.composite
def scene_sets(draw):
    """Scenes of jittered and stray detections around a few boxes.

    Scores come mostly from a small set, so ties run across scenes; boxes
    share a few positions, so IoUs tie too; class 3 never labels a box, and
    a scene may hold no detection or no box.
    """
    scenes = []
    for _ in range(draw(st.integers(0, 5))):
        gts = [OrientedBox(Point3(draw(st.sampled_from([0.0, 0.6, 3.0])),
                                  draw(st.sampled_from([0.0, 0.5])), 0.5),
                           (draw(st.sampled_from([0.5, 1.0])), 1.0, 1.0),
                           yaw=draw(st.sampled_from([0.0, 0.4])),
                           class_id=draw(st.integers(0, 2)))
               for _ in range(draw(st.integers(0, 4)))]
        dets = []
        for _ in range(draw(st.integers(0, 12))):
            if gts and draw(st.booleans()):
                g = gts[draw(st.integers(0, len(gts) - 1))]
                dx = draw(st.one_of(st.sampled_from([0.0, 0.3, -0.3]), st.floats(-0.4, 0.4)))
                box = OrientedBox(Point3(g.center.x + dx, g.center.y, g.center.z), g.size,
                                  yaw=g.yaw)
                cls = draw(st.one_of(st.just(g.class_id), st.integers(0, 3)))
            else:
                box = OrientedBox(Point3(draw(st.floats(-1, 4)), draw(st.floats(-1, 1)), 0.5),
                                  (1.0, 1.0, 1.0))
                cls = draw(st.integers(0, 3))
            score = draw(st.one_of(st.sampled_from([0.3, 0.5, 0.9]), st.floats(0.0, 1.0)))
            dets.append(det(box, score, cls))
        scenes.append((detections(dets), Boxes.of(gts)))
    thresholds = draw(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3))
    return scenes, thresholds


@settings(max_examples=200, deadline=None)
@given(scene_sets())
def test_pooled_ap_equals_row_reference(case):
    scenes, thresholds = case
    got, want = evaluate_scenes(scenes, thresholds), pooled_ap(scenes, thresholds)
    for g, w in zip(got.results, want.results, strict=True):
        assert g.ap_per_class == w.ap_per_class
        assert g.mean_ap == w.mean_ap
        assert g.pr_curves == w.pr_curves


@st.composite
def rank_sides(draw):
    """Two equal-length samples drawn from value pools, mostly small ones, so
    ties and constant sides occur; the pools mix -0.0 and 0.0."""
    n = draw(st.integers(0, 300))
    values = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -2.5]), st.floats(-1e3, 1e3))

    def side():
        pool = draw(st.lists(values, min_size=1, max_size=draw(st.sampled_from([1, 6, 300]))))
        return [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1),
                                               min_size=n, max_size=n))]

    return side(), side()


@settings(max_examples=300, deadline=None)
@given(rank_sides())
def test_spearman_equals_scipy(sides):
    x, y = sides
    got = evaluation._spearman(np.array(x), np.array(y))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", stats.ConstantInputWarning)
        want = float(stats.spearmanr(x, y).statistic)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert struct.pack("<d", got) == struct.pack("<d", want)


def make_traces(seeds, noise, b=24):
    traces = []
    for seed in seeds:
        s = gen_scene(CFG, seed)
        cent = oracle_seed_centerness(s, noise, seed=seed)
        props = scene_proposals(s, cent, b)
        predict = oracle_predictor(s, noise, seed=seed)
        traces.append(run_cascade(props, predict, CpaSchedule(0.4, 0.2, 3), s.gt_boxes))
    return traces


class TestCascadeStats:
    def test_exact_oracle_after_centerness_one(self):
        stats = cascade_stats(make_traces(range(3), OracleNoise()))
        for st in stats.stages:
            assert st.mean_centerness_after == pytest.approx(1.0, abs=1e-9)
        # Stage 2+ inputs already sit at centers.
        assert stats.stages[1].mean_centerness_before == pytest.approx(1.0, abs=1e-9)

    def test_noisy_majority_gains(self):
        stats = cascade_stats(make_traces(range(8), OracleNoise(sigma_delta=0.1)))
        assert stats.gain_fraction > 0.5

    def test_positive_counts_and_mu(self):
        traces = make_traces(range(4), OracleNoise(sigma_delta=0.1))
        stats = cascade_stats(traces)
        sched = CpaSchedule(0.4, 0.2, 3)
        for l, st in enumerate(stats.stages, start=1):
            from cascadev.assignment import cpa_threshold

            assert st.mu == pytest.approx(cpa_threshold(l, sched))
            manual = sum(t.stages[l - 1].assignment.num_regular_positives for t in traces)
            assert st.positives == manual

    def test_aggregation_linear_in_traces(self):
        a = make_traces(range(3), OracleNoise(sigma_delta=0.1))
        b = make_traces(range(10, 13), OracleNoise(sigma_delta=0.1))
        sa, sb, sab = cascade_stats(a), cascade_stats(b), cascade_stats(a + b)
        for st_a, st_b, st_ab in zip(sa.stages, sb.stages, sab.stages):
            assert st_ab.pairs == st_a.pairs + st_b.pairs
            assert st_ab.positives == st_a.positives + st_b.positives

    def test_pairs_exclude_denoising(self):
        s = gen_scene(CFG, 77)
        noise = OracleNoise(sigma_delta=0.1)
        cent = oracle_seed_centerness(s, noise, seed=77)
        props = scene_proposals(s, cent, 16, denoising_k=1)
        predict = oracle_predictor(s, noise, seed=77)
        trace = run_cascade(props, predict, CpaSchedule(0.4, 0.2, 3), s.gt_boxes)
        stats = cascade_stats([trace])
        for st in stats.stages:
            assert len(st.pairs) == 16  # denoising proposals not sampled

    def test_input_validation(self):
        with pytest.raises(ValueError):
            cascade_stats([])
        s = gen_scene(CFG, 5)
        noise = OracleNoise()
        cent = oracle_seed_centerness(s, noise, seed=5)
        props = scene_proposals(s, cent, 8)
        predict = oracle_predictor(s, noise, seed=5)
        no_gt = run_cascade(props, predict, CpaSchedule(0.4, 0.2, 2), gts=None)
        with pytest.raises(DataError):
            cascade_stats([no_gt])
