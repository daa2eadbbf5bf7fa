import numpy as np
import pytest

from reference import centerness, match_point_to_gt

from cascadev import cascade
from cascadev.assignment import CpaSchedule, cpa_threshold
from cascadev.cascade import (
    Predictions,
    Proposals,
    StageTrace,
    ensemble_stages,
    hand_off,
    run_cascade,
)
from cascadev.errors import PredictorOutputError
from cascadev.learner import head_predictors, init_head_params
from cascadev.geometry import Point3, decode_boxes, encode_deltas
from cascadev.overlap import Detections, iou_rotated, nms
from cascadev.synth import (
    OracleNoise,
    SceneConfig,
    gen_scene,
    oracle_predictor,
    oracle_seed_centerness,
    scene_proposals,
)

CFG = SceneConfig(num_gt=(2, 3), points_per_box=60, num_clutter=150)
YAW_CFG = SceneConfig(num_gt=(2, 3), points_per_box=60, num_clutter=150, yaw_enabled=True)
SCHED = CpaSchedule(0.4, 0.2, 3)


def first_rows(props, n):
    """The first n proposals."""
    return Proposals(props.points[:n], props.features[:n], props.origin_index[:n],
                     props.denoising_gt[:n])


def build(seed, noise, b=24, denoising_k=0, cfg=CFG):
    scene = gen_scene(cfg, seed)
    cent = oracle_seed_centerness(scene, noise, seed=1)
    props = scene_proposals(scene, cent, b, denoising_k=denoising_k)
    predict = oracle_predictor(scene, noise, seed=1)
    return scene, props, predict


class TestRunCascade:
    def test_single_stage(self):
        scene, props, predict = build(1, OracleNoise())
        trace = run_cascade(props, predict, CpaSchedule(0.4, 0.2, 1), scene.gt_boxes)
        assert trace.num_stages == 1
        rec = trace.stages[0]
        assert rec.stage == 1
        assert rec.mu == pytest.approx(0.2)
        assert len(rec.detections) == len(props)
        assert rec.detections.centers.shape == (len(props), 3)
        assert rec.proposals_in is props

    def test_exact_oracle_stage1_detections_match_gt(self):
        scene, props, predict = build(2, OracleNoise())
        trace = run_cascade(props, predict, SCHED, scene.gt_boxes)
        for p, det in zip(props.points, trace.stages[0].detections.rows(1)):
            gt = scene.gt_boxes[match_point_to_gt(Point3(*p), scene.gt_boxes)]
            assert iou_rotated(det.box, gt) == pytest.approx(1.0, abs=1e-9)
            assert det.class_id == gt.class_id

    def test_exact_oracle_updated_points_hit_centers(self):
        scene, props, predict = build(3, OracleNoise())
        trace = run_cascade(props, predict, SCHED, scene.gt_boxes)
        for p, up in zip(props.points, trace.stages[0].detections.centers):
            gt = scene.gt_boxes[match_point_to_gt(Point3(*p), scene.gt_boxes)]
            assert up[0] == pytest.approx(gt.center.x, abs=1e-9)
            assert up[1] == pytest.approx(gt.center.y, abs=1e-9)
            assert up[2] == pytest.approx(gt.center.z, abs=1e-9)

    def test_exact_oracle_stage2_centerness_is_one(self):
        scene, props, predict = build(4, OracleNoise())
        trace = run_cascade(props, predict, SCHED, scene.gt_boxes)
        for rec in trace.stages[1:]:
            for p in rec.proposals_in.points:
                gt = scene.gt_boxes[match_point_to_gt(Point3(*p), scene.gt_boxes)]
                c = centerness(encode_deltas(Point3(*p), gt))
                assert c == pytest.approx(1.0, abs=1e-9)

    def test_exact_oracle_fixed_point_after_stage2(self):
        scene, props, predict = build(5, OracleNoise())
        trace = run_cascade(props, predict, SCHED, scene.gt_boxes)
        s2, s3 = trace.stages[1], trace.stages[2]
        for d2, d3 in zip(s2.detections.rows(2), s3.detections.rows(3)):
            assert iou_rotated(d2.box, d3.box) == pytest.approx(1.0, abs=1e-9)
        for p2, p3 in zip(s2.proposals_in.points, s3.proposals_in.points):
            assert p2[0] == pytest.approx(p3[0], abs=1e-9)
            assert p2[2] == pytest.approx(p3[2], abs=1e-9)

    def test_noisy_updates_raise_mean_centerness(self):
        gains = []
        for seed in range(10):
            scene, props, predict = build(50 + seed, OracleNoise(sigma_delta=0.1, centerness_bias=0.1))
            trace = run_cascade(props, predict, SCHED, scene.gt_boxes)
            rec = trace.stages[0]
            before = []
            after = []
            for p, up in zip(rec.proposals_in.points, rec.detections.centers):
                gt = scene.gt_boxes[match_point_to_gt(Point3(*p), scene.gt_boxes)]
                before.append(centerness(encode_deltas(Point3(*p), gt)))
                after.append(centerness(encode_deltas(Point3(*up), gt)))
            gains.append(np.mean(after) - np.mean(before))
        assert np.mean(gains) > 0.0
        assert sum(g > 0 for g in gains) >= 8

    def test_origin_index_preserved(self):
        noise = OracleNoise(sigma_delta=0.1, sigma_heading=0.1)
        scene, props, predict = build(6, noise, denoising_k=1, cfg=YAW_CFG)
        trace = run_cascade(props, predict, SCHED, scene.gt_boxes)
        for rec in trace.stages:
            assert np.array_equal(rec.proposals_in.origin_index, props.origin_index)
            assert np.array_equal(rec.proposals_in.denoising_gt, props.denoising_gt)
            # Each point moves onto its decoded box center, and that is the
            # point the next stage receives.
            for i, det in enumerate(rec.detections.rows(rec.stage)):
                assert Point3(*rec.detections.centers[i]) == det.box.center
        for prev, nxt in zip(trace.stages, trace.stages[1:]):
            assert np.array_equal(nxt.proposals_in.points, prev.detections.centers)

    @pytest.mark.parametrize("weighting", ["exp_neg_dist", "literal"])
    def test_next_stage_is_hand_off_of_previous(self, weighting):
        noise = OracleNoise(sigma_delta=0.1, sigma_heading=0.1)
        scene, props, predict = build(6, noise, denoising_k=1, cfg=YAW_CFG)
        trace = run_cascade(props, predict, SCHED, scene.gt_boxes, weighting=weighting)
        for prev, nxt in zip(trace.stages, trace.stages[1:]):
            boxes = decode_boxes(prev.proposals_in.points, prev.predictions.deltas)
            want = hand_off(prev.proposals_in, boxes, weighting=weighting)
            got = nxt.proposals_in
            for name in ("points", "features", "origin_index", "denoising_gt"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    def test_recorded_mu_matches_schedule(self):
        scene, props, predict = build(7, OracleNoise())
        trace = run_cascade(props, predict, SCHED, scene.gt_boxes)
        for l, rec in enumerate(trace.stages, start=1):
            assert rec.mu == cpa_threshold(l, SCHED)
            assert rec.assignment is not None
            assert rec.assignment.mu == rec.mu

    def test_denoising_assignment_pinned_every_stage(self):
        scene, props, predict = build(8, OracleNoise(sigma_delta=0.15), b=16, denoising_k=1)
        trace = run_cascade(props, predict, SCHED, scene.gt_boxes)
        n_reg = 16
        for rec in trace.stages:
            a = rec.assignment
            for gi in range(len(scene.gt_boxes)):
                idx = n_reg + gi
                assert a.is_denoising[idx]
                assert a.matched_gt[idx] == gi

    def test_no_gts_skips_assignment(self):
        scene, props, predict = build(9, OracleNoise())
        trace = run_cascade(props, predict, SCHED, gts=None)
        assert trace.gts is None
        for rec in trace.stages:
            assert rec.assignment is None
            assert rec.mu is None

    def test_deterministic_trace(self):
        traces = []
        for _ in range(2):
            scene, props, predict = build(10, OracleNoise(sigma_delta=0.1, p_class_flip=0.1))
            traces.append(run_cascade(props, predict, SCHED, scene.gt_boxes))
        for ra, rb in zip(traces[0].stages, traces[1].stages):
            pa, pb = ra.predictions, rb.predictions
            assert np.array_equal(pa.class_probs, pb.class_probs)
            assert np.array_equal(pa.deltas, pb.deltas)
            assert np.array_equal(pa.centerness, pb.centerness)
            for name in ("centers", "sizes", "yaws", "class_ids", "scores"):
                a, b = getattr(ra.detections, name), getattr(rb.detections, name)
                assert a.tobytes() == b.tobytes()

    def test_per_stage_predictor_sequence(self):
        scene, props, _ = build(11, OracleNoise())
        exact = oracle_predictor(scene, OracleNoise(), seed=1)
        noisy = oracle_predictor(scene, OracleNoise(sigma_delta=0.3), seed=1)
        trace = run_cascade(props, [noisy, exact, exact], SCHED, scene.gt_boxes)
        # Stage 2 runs the exact head, so its detections are perfect.
        for p, det in zip(trace.stages[1].proposals_in.points, trace.stages[1].detections.rows(2)):
            gt = scene.gt_boxes[match_point_to_gt(Point3(*p), scene.gt_boxes)]
            assert iou_rotated(det.box, gt) == pytest.approx(1.0, abs=1e-9)

    def test_detection_scores_combine_prob_and_centerness(self):
        scene, props, predict = build(12, OracleNoise(centerness_bias=0.2))
        trace = run_cascade(props, predict, SCHED, scene.gt_boxes)
        preds = trace.stages[0].predictions
        for i, det in enumerate(trace.stages[0].detections.rows(1)):
            fg = preds.class_probs[i, :-1]
            assert det.score == pytest.approx(float(fg.max()) * preds.centerness[i], abs=1e-12)
            assert det.stage == 1

    def test_bad_predictor_outputs_rejected(self):
        scene, props, _ = build(13, OracleNoise())
        exact = oracle_predictor(scene, OracleNoise(), seed=1)

        def faulty(**columns):
            # The exact oracle's columns with the given ones swapped in.
            def predict(batch):
                good = exact(batch)
                return Predictions(**{name: columns.get(name, getattr(good, name))
                                      for name in ("class_probs", "deltas", "centerness")})
            return predict

        def with_rows(name, rows, value):
            good = getattr(exact(first_rows(props, 4)), name).copy()
            good[rows] = value
            return good

        cases = [
            (faulty(deltas=np.full((4, 6), 0.5)), r"stage 1: prediction shapes"),
            (faulty(class_probs=np.full((4, 1), 1.0)), r"stage 1: prediction shapes"),
            (faulty(deltas=with_rows("deltas", [2, 3], np.nan)),
             r"proposal 2: non-finite regression output"),
            (faulty(class_probs=with_rows("class_probs", [1, 2], [0.5, 0.2, 0.0, 0.0, 0.0, 0.0])),
             r"proposal 1: class probabilities sum to 0.7"),
            (faulty(class_probs=with_rows("class_probs", [3], np.nan)),
             r"proposal 3: class probabilities invalid"),
            (faulty(centerness=with_rows("centerness", [2, 3], 1.5)),
             r"proposal 2: centerness 1.5 outside \[0, 1\]"),
            (faulty(centerness=with_rows("centerness", [0, 1], -0.25)),
             r"proposal 0: centerness -0.25 outside \[0, 1\]"),
        ]
        for predictor, message in cases:
            with pytest.raises(PredictorOutputError, match=message):
                run_cascade(first_rows(props, 4), predictor, SCHED, scene.gt_boxes)

        def one_short(batch):
            return exact(first_rows(batch, len(batch) - 1))

        with pytest.raises(PredictorOutputError, match="3 predictions for 4 proposals"):
            run_cascade(first_rows(props, 4), one_short, SCHED, scene.gt_boxes)

    def test_empty_proposals_give_empty_stage_records(self):
        # Both shipped predictors take an empty batch and return no predictions.
        scene, props, oracle = build(16, OracleNoise(sigma_delta=0.1, p_class_flip=0.1))
        params = init_head_params(CFG.feature_dim, CFG.num_classes, SCHED.num_stages, seed=0)
        for predictor in (oracle, head_predictors(params)):
            trace = run_cascade(first_rows(props, 0), predictor, SCHED, scene.gt_boxes)
            assert [rec.stage for rec in trace.stages] == [1, 2, 3]
            for rec in trace.stages:
                assert len(rec.proposals_in) == len(rec.detections) == 0
                assert rec.predictions.centerness.shape == (0,)
                assert rec.proposals_in.features.shape == (0, CFG.feature_dim)
                assert rec.predictions.class_probs.shape == (0, CFG.num_classes + 1)
                assert rec.detections.centers.shape == (0, 3)
                assert rec.assignment.matched_gt.shape == (0,)
                assert rec.assignment.target_deltas.shape == (0, 7)


class TestEnsemble:
    def test_single_stage_range_equals_stage_nms(self):
        scene, props, predict = build(14, OracleNoise(sigma_delta=0.1, centerness_bias=0.1))
        trace = run_cascade(props, predict, SCHED, scene.gt_boxes)
        out = ensemble_stages(trace, (2, 2), 0.25)
        dets = trace.stages[1].detections
        kept = nms(dets, 0.25)
        assert [d.box for d in out] == [d.box for d in dets.rows(2, kept)]

    def test_duplicates_deduplicated_highest_score_survives(self):
        scene, props, predict = build(15, OracleNoise())
        trace = run_cascade(props, predict, SCHED, scene.gt_boxes)
        out = ensemble_stages(trace, (1, 3), 0.25)
        # Exact oracle: stages 2 and 3 emit identical perfect boxes with
        # score 1; one survivor per (gt, class) remains.
        for i, a in enumerate(out):
            for b in out[i + 1 :]:
                if a.class_id == b.class_id:
                    assert iou_rotated(a.box, b.box) <= 0.25 + 1e-12
        covered = set()
        for det in out:
            for gi, gt in enumerate(scene.gt_boxes):
                if iou_rotated(det.box, gt) > 0.99:
                    covered.add(gi)
        assert covered == set(range(len(scene.gt_boxes)))

    def test_pools_through_the_module_nms(self, monkeypatch):
        # The traced benchmark times the stage ensemble by patching
        # cascade.nms, so ensemble_stages must look the name up there.
        scene, props, predict = build(17, OracleNoise(sigma_delta=0.1))
        trace = run_cascade(props, predict, SCHED, scene.gt_boxes)
        calls = []

        def spy(dets, iou_threshold):
            assert isinstance(dets, Detections)
            calls.append((len(dets), iou_threshold, nms(dets, iou_threshold)))
            return calls[-1][2]

        monkeypatch.setattr(cascade, "nms", spy)
        out = ensemble_stages(trace, (1, 3), 0.25)
        assert [call[:2] for call in calls] == [(3 * len(props), 0.25)]
        pooled = [d for rec in trace.stages for d in rec.detections.rows(rec.stage)]
        assert out == [pooled[k] for k in calls[0][2]]

    def test_invalid_range(self):
        scene, props, predict = build(16, OracleNoise())
        trace = run_cascade(props, predict, SCHED, scene.gt_boxes)
        for rng_pair in [(0, 2), (2, 1), (1, 4), (4, 4), (1.0, 3.0), (True, 3)]:
            with pytest.raises(ValueError):
                ensemble_stages(trace, rng_pair, 0.25)
