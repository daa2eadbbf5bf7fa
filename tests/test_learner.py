import dataclasses
import math

import numpy as np
import pytest

from cascadev import cascade, learner
from cascadev.assignment import CpaSchedule, assign_targets
from cascadev.cascade import Proposals, run_cascade
from cascadev.errors import InvalidDeltasError, PredictorOutputError, TrainingDivergedError
from cascadev.geometry import Boxes, OrientedBox, Point3
from cascadev.learner import (
    LossWeights,
    StageOutputs,
    _backward,
    _forward,
    _softmax,
    compute_losses,
    head_predictor,
    head_predictors,
    init_head_params,
    train_cascade,
    uniform_seed_scores,
)
from cascadev.synth import SceneConfig, gen_scene, scene_proposals

SCHED = CpaSchedule()

SMALL_CFG = SceneConfig(
    num_gt=(2, 2),
    points_per_box=40,
    size_range=((0.8, 1.2), (0.8, 1.2), (0.6, 1.0)),
    sigma_feature=0.03,
    num_clutter=120,
    num_classes=3,
)


@pytest.fixture(scope="module")
def trained():
    scenes = [gen_scene(SMALL_CFG, seed=s) for s in range(8)]
    params, history = train_cascade(scenes, SCHED, 2000, 1e-2, 0, b=32, denoising_k=2)
    return scenes, params, history


def _loss_instance(seed=11):
    # Two boxes, a near-center positive, a face-point negative, a clutter
    # negative, and one pinned denoising point.
    g1 = OrientedBox(Point3(0.0, 0.0, 1.0), (1.0, 1.2, 0.8), class_id=0)
    g2 = OrientedBox(Point3(3.0, 0.0, 1.0), (0.9, 0.9, 0.9), class_id=2)
    points = np.array([
        [0.05, -0.03, 1.02],
        [0.5, 0.0, 1.0],
        [2.0, 2.0, 0.3],
        [3.2, 0.1, 1.1],
    ])
    assignment = assign_targets(points, Boxes.of([g1, g2]), 0.4,
                                denoising_gt=np.array([-1, -1, -1, 1]))
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(4, 6))
    return feats, assignment


def _branch_outputs(sp, feats):
    cls_out, cls_h = _forward(sp.cls, feats)
    reg_out, reg_h = _forward(sp.reg, feats)
    cent_out, cent_h = _forward(sp.cent, feats)
    outputs = StageOutputs(
        cls_logits=cls_out, reg_raw=reg_out, cent_logits=cent_out[:, 0]
    )
    return outputs, (cls_h, reg_h, cent_h)


class TestGradientsAgainstFiniteDifferences:
    # The learner's backprop is hand-rolled, so every parameter gradient is
    # checked against central finite differences of the scalar loss.

    def _check(self, weights, seed=11):
        feats, assignment = _loss_instance(seed)
        params = init_head_params(6, 2, 1, hidden=4, seed=7)
        sp = params.stages[0]

        outputs, (cls_h, reg_h, cent_h) = _branch_outputs(sp, feats)
        # Keep every regression residual away from the smooth-L1 kink at
        # |diff| = 1 so the quadratic FD error stays small.
        pos = np.flatnonzero(assignment.matched_gt >= 0)
        raw = outputs.reg_raw[pos]
        pred6 = np.logaddexp(0.0, raw[:, :6])
        targ = assignment.target_deltas[pos]
        diff = np.concatenate([pred6, raw[:, 6:7]], axis=1) - targ
        assert np.all(np.abs(np.abs(diff) - 1.0) > 1e-3)

        _, (g_cls, g_reg, g_cent) = compute_losses(outputs, assignment, weights)
        analytic = {
            "cls": _backward(sp.cls, feats, cls_h, g_cls),
            "reg": _backward(sp.reg, feats, reg_h, g_reg),
            "cent": _backward(sp.cent, feats, cent_h, g_cent[:, None]),
        }

        def total():
            outs, _ = _branch_outputs(sp, feats)
            return compute_losses(outs, assignment, weights)[0].total

        eps = 1e-5
        worst = 0.0
        for name, bp in sp.branches().items():
            for arr, grad in zip(bp.arrays(), analytic[name]):
                flat = arr.reshape(-1)
                gflat = grad.reshape(-1)
                for k in range(flat.size):
                    keep = flat[k]
                    flat[k] = keep + eps
                    up = total()
                    flat[k] = keep - eps
                    down = total()
                    flat[k] = keep
                    fd = (up - down) / (2.0 * eps)
                    a = gflat[k]
                    rel = abs(a - fd) / max(1e-6, abs(a), abs(fd))
                    worst = max(worst, rel)
        assert worst < 1e-4

    def test_plain_cross_entropy(self):
        self._check(LossWeights(cls=1.3, reg=0.7, cent=1.1))

    def test_focal_gamma_two(self):
        self._check(LossWeights(cls=1.3, reg=0.7, cent=1.1, focal_gamma=2.0))


class TestComputeLosses:
    def test_perfect_predictions_give_zero_loss(self):
        g1 = OrientedBox(Point3(0.5, -0.2, 1.0), (1.1, 0.9, 0.7), class_id=1)
        g2 = OrientedBox(Point3(2.5, 1.0, 0.8), (0.8, 1.2, 0.6), class_id=0)
        boxes = Boxes.of([g1, g2])
        assignment = assign_targets(boxes.centers, boxes, 0.4)
        assert assignment.matched_gt.tolist() == [0, 1]
        assert assignment.target_centerness[0] == pytest.approx(1.0, abs=1e-12)

        targ = assignment.target_deltas
        raw = np.empty((2, 7))
        raw[:, :6] = np.log(np.expm1(targ[:, :6]))  # softplus inverse
        raw[:, 6] = targ[:, 6]
        cls = np.zeros((2, 4))
        cls[0, assignment.target_class[0]] = 50.0
        cls[1, assignment.target_class[1]] = 50.0
        outputs = StageOutputs(cls_logits=cls, reg_raw=raw, cent_logits=np.full(2, 40.0))

        rep, _ = compute_losses(outputs, assignment)
        assert rep.positive_count == 2
        assert rep.classification_loss < 1e-12
        assert rep.regression_loss < 1e-12
        assert rep.centerness_loss < 1e-12
        assert rep.total == rep.classification_loss + rep.regression_loss + rep.centerness_loss

    def test_positive_on_class_less_box_rejected(self):
        gt = OrientedBox(Point3(0.0, 0.0, 1.0), (1.0, 1.0, 1.0))
        points = np.array([gt.center.as_array(), [5.0, 5.0, 0.2]])
        assignment = assign_targets(points, Boxes.of([gt]), 0.2)
        assert assignment.target_class.tolist() == [-1, -1]
        outputs = StageOutputs(cls_logits=np.zeros((2, 3)), reg_raw=np.zeros((2, 7)),
                               cent_logits=np.zeros(2))
        with pytest.raises(ValueError, match="without a class id"):
            compute_losses(outputs, assignment)

    def test_no_positives_zeroes_reg_and_cent(self):
        gt = OrientedBox(Point3(0.0, 0.0, 1.0), (1.0, 1.0, 1.0), class_id=0)
        points = np.array([[5.0, 5.0, 0.2], [-4.0, 3.0, 0.1]])
        assignment = assign_targets(points, Boxes.of([gt]), 0.2)
        rng = np.random.default_rng(3)
        outputs = StageOutputs(
            cls_logits=rng.normal(size=(2, 3)),
            reg_raw=rng.normal(size=(2, 7)),
            cent_logits=rng.normal(size=2),
        )
        rep, (g_cls, g_reg, g_cent) = compute_losses(outputs, assignment)
        assert rep.positive_count == 0
        assert rep.regression_loss == 0.0
        assert rep.centerness_loss == 0.0
        assert rep.classification_loss > 0.0
        assert np.all(g_reg == 0.0)
        assert np.all(g_cent == 0.0)
        assert np.any(g_cls != 0.0)

    def test_row_mismatch_rejected(self):
        feats, assignment = _loss_instance()
        rng = np.random.default_rng(0)
        outputs = StageOutputs(
            cls_logits=rng.normal(size=(3, 3)),
            reg_raw=rng.normal(size=(3, 7)),
            cent_logits=rng.normal(size=3),
        )
        with pytest.raises(ValueError):
            compute_losses(outputs, assignment)

    def test_branch_weights_scale_losses_and_grads(self):
        feats, assignment = _loss_instance()
        params = init_head_params(6, 2, 1, hidden=4, seed=5)
        outputs, _ = _branch_outputs(params.stages[0], feats)
        base, (bc, br, bn) = compute_losses(outputs, assignment)
        scaled, (sc, sr, sn) = compute_losses(
            outputs, assignment, LossWeights(cls=2.0, reg=3.0, cent=5.0)
        )
        assert scaled.classification_loss == pytest.approx(2.0 * base.classification_loss, rel=1e-12)
        assert scaled.regression_loss == pytest.approx(3.0 * base.regression_loss, rel=1e-12)
        assert scaled.centerness_loss == pytest.approx(5.0 * base.centerness_loss, rel=1e-12)
        np.testing.assert_allclose(sc, 2.0 * bc, rtol=1e-12)
        np.testing.assert_allclose(sr, 3.0 * br, rtol=1e-12)
        np.testing.assert_allclose(sn, 5.0 * bn, rtol=1e-12)

    def test_focal_downweights_confident_correct_batch(self):
        feats, assignment = _loss_instance()
        n = len(assignment.matched_gt)
        num_bg = 2
        cls = np.zeros((n, num_bg + 1))
        for i in range(n):
            t = assignment.target_class[i] if assignment.matched_gt[i] >= 0 else num_bg
            cls[i, t] = 3.0
        outputs = StageOutputs(
            cls_logits=cls, reg_raw=np.zeros((n, 7)), cent_logits=np.zeros(n)
        )
        losses = [
            compute_losses(outputs, assignment, LossWeights(focal_gamma=g))[0].classification_loss
            for g in (0.0, 1.0, 2.0)
        ]
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 0.25 * losses[0]

    def test_random_instances_finite_and_nonnegative(self):
        gt = OrientedBox(Point3(0.0, 0.0, 1.0), (1.2, 1.0, 0.9), class_id=1)
        rng = np.random.default_rng(2024)
        for _ in range(25):
            n = int(rng.integers(1, 12))
            points = np.array([
                rng.uniform((-2.0, -2.0, 0.0), (2.0, 2.0, 2.0))
                for _ in range(n)
            ])
            assignment = assign_targets(points, Boxes.of([gt]), 0.3,
                                        denoising_gt=np.array([0] + [-1] * (n - 1)))
            outputs = StageOutputs(
                cls_logits=rng.normal(scale=3.0, size=(n, 4)),
                reg_raw=rng.normal(scale=2.0, size=(n, 7)),
                cent_logits=rng.normal(scale=3.0, size=n),
            )
            rep, grads = compute_losses(outputs, assignment)
            for v in (rep.classification_loss, rep.regression_loss, rep.centerness_loss):
                assert math.isfinite(v) and v >= 0.0
            assert rep.positive_count >= 1
            for g in grads:
                assert np.all(np.isfinite(g))


class TestHeadPredictor:
    def test_prediction_contract(self, trained):
        scenes, params, _ = trained
        props = scene_proposals(scenes[0], uniform_seed_scores(scenes[0]), 8)
        preds = head_predictor(params, 1)(props)
        assert len(preds.centerness) == len(props) == 8
        assert preds.class_probs.shape == (8, SMALL_CFG.num_classes + 1)
        assert preds.deltas.shape == (8, 7) and preds.centerness.shape == (8,)
        for probs, d, c in zip(preds.class_probs, preds.deltas, preds.centerness):
            assert np.all(probs >= 0.0)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert all(v > 0.0 for v in d[:6])
            assert 0.0 < c < 1.0

    def test_one_predictor_per_stage(self, trained):
        _, params, _ = trained
        preds = head_predictors(params)
        assert len(preds) == params.num_stages
        prop = Proposals(np.array([[0.0, 0.0, 1.0]]), np.zeros((1, params.feature_dim)),
                         np.array([0]), np.array([-1]))
        outs = [pr(prop) for pr in preds]
        # Stages hold independent weights, so their outputs differ.
        assert len({float(o.centerness[0]) for o in outs}) > 1

    def test_uniform_seed_scores_are_zero(self):
        scene = gen_scene(SMALL_CFG, seed=9)
        scores = uniform_seed_scores(scene)
        assert scores.shape == (len(scene.points),)
        assert np.all(scores == 0.0)


class TestTrainCascade:
    def test_loss_decreases(self, trained):
        _, _, history = trained
        steps = max(r.step for r in history) + 1

        def window(lo, hi):
            vals = [r.total for r in history if lo <= r.step < hi]
            return float(np.mean(vals))

        assert window(steps - 10, steps) < 0.6 * window(0, 10)

    def test_history_structure(self, trained):
        scenes, params, history = trained
        assert len(history) == 2000 * SCHED.num_stages
        for i, rep in enumerate(history):
            assert rep.step == i // SCHED.num_stages
            assert rep.stage == i % SCHED.num_stages + 1
        # On face-surface scenes no raw point passes the stage-1 test, so
        # stage-1 positives are exactly the pinned group: 2 per box, 2 boxes.
        for rep in history:
            if rep.stage == 1:
                assert rep.positive_count == 4
            else:
                assert rep.positive_count >= 4

    def test_deterministic(self):
        scenes = [gen_scene(SMALL_CFG, seed=s) for s in range(3)]
        runs = [
            train_cascade(scenes, SCHED, 60, 1e-2, 0, b=32, denoising_k=2)
            for _ in range(2)
        ]
        (p1, h1), (p2, h2) = runs
        for r1, r2 in zip(h1, h2):
            assert r1 == r2
        for s1, s2 in zip(p1.stages, p2.stages):
            for b1, b2 in zip(s1.branches().values(), s2.branches().values()):
                for a1, a2 in zip(b1.arrays(), b2.arrays()):
                    assert np.array_equal(a1, a2)

    def test_training_mirrors_inference(self, monkeypatch):
        # A one-step run supervises every stage with the initial weights,
        # so each stage must see exactly what run_cascade sees with the
        # untrained head: both run the same batched forward.
        cfg = dataclasses.replace(SMALL_CFG, yaw_enabled=True)
        scene = gen_scene(cfg, seed=5)
        recorded = []
        original = learner.compute_losses

        def record(outputs, assignment, *args, **kwargs):
            recorded.append((outputs, assignment))
            return original(outputs, assignment, *args, **kwargs)

        monkeypatch.setattr(learner, "compute_losses", record)
        train_cascade([scene], SCHED, 1, 1e-2, 3, b=32, denoising_k=2)

        params = init_head_params(cfg.feature_dim, cfg.num_classes, SCHED.num_stages, seed=3)
        props = scene_proposals(scene, uniform_seed_scores(scene), 32, denoising_k=2)
        trace = run_cascade(props, head_predictors(params), SCHED, gts=scene.gt_boxes)
        assert len(recorded) == trace.num_stages
        for (outputs, assignment), rec in zip(recorded, trace.stages):
            assert np.array_equal(assignment.matched_gt, rec.assignment.matched_gt)
            assert np.array_equal(_softmax(outputs.cls_logits), rec.predictions.class_probs)
            assert np.array_equal(outputs.predictions().deltas, rec.predictions.deltas)
            assert assignment.target_deltas.tobytes() == rec.assignment.target_deltas.tobytes()

    def test_every_hand_off_goes_through_the_cascade_step(self, monkeypatch):
        calls = []
        original = cascade.hand_off

        def spy(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(cascade, "hand_off", spy)
        scenes = [gen_scene(SMALL_CFG, seed=s) for s in range(3)]
        steps = 4
        train_cascade(scenes, SCHED, steps, 1e-2, 0, b=16, denoising_k=2)
        assert len(calls) == steps * (SCHED.num_stages - 1)

    def test_nan_features_raise_diverged(self):
        scene = gen_scene(SMALL_CFG, seed=1)
        scene.features[:] = np.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingDivergedError):
                train_cascade([scene], SCHED, 5, 1e-2, 0, b=16)

    def test_nan_stage_two_head_raises_diverged(self, monkeypatch):
        # Stage 1 trains normally; the cascade's prediction check rejects
        # stage 2's NaN outputs, and training reports that as divergence.
        def nan_stage_two(*args, **kwargs):
            params = init_head_params(*args, **kwargs)
            for bp in params.stages[1].branches().values():
                bp.b2[:] = np.nan
            return params

        monkeypatch.setattr(learner, "init_head_params", nan_stage_two)
        scene = gen_scene(SMALL_CFG, seed=1)
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match="at step 0: ") as info:
                train_cascade([scene], SCHED, 5, 1e-2, 0, b=16)
        assert type(info.value) is TrainingDivergedError
        assert isinstance(info.value.__cause__, PredictorOutputError)

    def test_huge_learning_rate_raises_diverged(self):
        # lr 1e200 throws the decoded centers to ~1e199, where the voting
        # search's squared distances overflow; decoding rejects such a box first.
        cfg = SceneConfig(num_gt=(1, 1), points_per_box=20, num_clutter=10)
        scene = gen_scene(cfg, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match="decoded box beyond") as info:
                train_cascade([scene], SCHED, 5, 1e200, 0, b=4)
        assert isinstance(info.value.__cause__, InvalidDeltasError)

    def test_update_that_overflows_the_weights_raises_diverged(self):
        # Step 0's losses are finite, but lr 1e300 times a class-loss weight of
        # 1e300 overflows the update; nothing non-finite may leave training.
        scene = gen_scene(SMALL_CFG, seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError,
                               match="non-finite cls w1 after the update at step 0, stage 1"):
                train_cascade([scene], SCHED, 1, 1e300, 0, b=16,
                              weights=LossWeights(cls=1e300))

    def test_input_validation(self):
        scene = gen_scene(SMALL_CFG, seed=2)
        with pytest.raises(ValueError):
            train_cascade([scene], SCHED, 0, 1e-2, 0)
        with pytest.raises(ValueError):
            train_cascade([], SCHED, 5, 1e-2, 0)
        with pytest.raises(ValueError, match="need denoising_k >= 1, got 0"):
            train_cascade([scene], SCHED, 5, 1e-2, 0, denoising_k=0)
        import dataclasses

        other = gen_scene(dataclasses.replace(SMALL_CFG, feature_dim=20), seed=3)
        with pytest.raises(ValueError):
            train_cascade([scene, other], SCHED, 5, 1e-2, 0)
        mixed = gen_scene(dataclasses.replace(SMALL_CFG, num_classes=5), seed=4)
        with pytest.raises(ValueError):
            train_cascade([scene, mixed], SCHED, 5, 1e-2, 0)


class TestSupervisionStructure:
    # Face-surface geometry makes the positive pool collapse below the
    # half-size threshold: every raw point sits on a face, outside any
    # tighter scaled box. The schedule's working thresholds all live in
    # that regime, which is what the pinned denoising group compensates.

    def test_mu_cliff_on_raw_scene_points(self):
        scene = gen_scene(SMALL_CFG, seed=123)
        for mu in (0.2, 1.0 / 3.0):
            a = assign_targets(scene.points, Boxes.of(scene.gt_boxes), mu)
            assert a.num_regular_positives == 0
        a_half = assign_targets(scene.points, Boxes.of(scene.gt_boxes), 0.5)
        assert a_half.num_regular_positives >= 5

    def test_trained_cascade_moves_points_into_tighter_stages(self, trained):
        # After training, stage inputs migrate toward centers: later
        # stages accumulate regular positives with higher centerness,
        # while stage 1 still has none on the raw points.
        _, params, _ = trained
        stage_vals = {1: [], 2: [], 3: []}
        for hs in range(500, 506):
            scene = gen_scene(SMALL_CFG, seed=hs)
            props = scene_proposals(scene, uniform_seed_scores(scene), 32)
            trace = run_cascade(props, head_predictors(params), SCHED, gts=scene.gt_boxes)
            for rec in trace.stages:
                a = rec.assignment
                stage_vals[rec.stage].extend(
                    a.target_centerness[i]
                    for i in np.flatnonzero(a.matched_gt >= 0)
                    if not a.is_denoising[i]
                )
        assert len(stage_vals[1]) == 0
        assert len(stage_vals[2]) >= 3
        assert len(stage_vals[3]) >= 3
        assert np.mean(stage_vals[3]) > np.mean(stage_vals[2]) + 0.02
