import dataclasses
import math

import numpy as np
import pytest

from reference import centerness, match_point_to_gt, point_in_scaled_box, scalar_iou_rotated

from cascadev.cascade import Proposals
from cascadev.errors import ConfigError, PlacementError
from cascadev.geometry import (
    Deltas,
    Point3,
    decode_box,
    encode_deltas,
)
from cascadev.overlap import iou_rotated
from cascadev.synth import (
    OracleNoise,
    SceneConfig,
    SyntheticScene,
    gen_scene,
    oracle_predictor,
    oracle_seed_centerness,
    scene_proposals,
)

SMALL = SceneConfig(num_gt=(2, 3), points_per_box=60, num_clutter=150)


def scene_equal(a: SyntheticScene, b: SyntheticScene) -> bool:
    if len(a.gt_boxes) != len(b.gt_boxes) or a.num_points != b.num_points:
        return False
    for ba, bb in zip(a.gt_boxes, b.gt_boxes):
        if ba != bb:
            return False
    return bool(np.array_equal(a.points, b.points) and np.array_equal(a.features, b.features)
                and np.array_equal(a.point_gt_labels, b.point_gt_labels))


class TestGenScene:
    def test_deterministic(self):
        s1 = gen_scene(SMALL, 123)
        s2 = gen_scene(SMALL, 123)
        assert scene_equal(s1, s2)

    def test_different_seeds_differ(self):
        assert not scene_equal(gen_scene(SMALL, 1), gen_scene(SMALL, 2))

    def test_gt_count_in_range(self):
        for seed in range(30):
            s = gen_scene(SMALL, seed)
            assert 2 <= len(s.gt_boxes) <= 3
            for b in s.gt_boxes:
                assert 0 <= b.class_id < SMALL.num_classes

    def test_boxes_disjoint_and_inside_workspace(self):
        cfg = SceneConfig(num_gt=(3, 4), points_per_box=20, num_clutter=50, yaw_enabled=True)
        for seed in range(40):
            s = gen_scene(cfg, seed)
            for i, a in enumerate(s.gt_boxes):
                for b in s.gt_boxes[i + 1 :]:
                    assert scalar_iou_rotated(a, b) == 0.0
                r = math.hypot(a.size[0], a.size[1]) / 2.0
                (x0, x1), (y0, y1), (z0, z1) = cfg.workspace
                assert x0 + r <= a.center.x <= x1 - r + 1e-9
                assert y0 + r <= a.center.y <= y1 - r + 1e-9
                assert z0 + a.size[2] / 2.0 <= a.center.z <= z1 - a.size[2] / 2.0 + 1e-9

    def test_surface_points_on_faces(self):
        cfg = SceneConfig(num_gt=(2, 2), points_per_box=80, num_clutter=30, yaw_enabled=True)
        for seed in range(10):
            s = gen_scene(cfg, seed)
            for p, gi in zip((Point3(*row) for row in s.points), s.point_gt_labels.tolist()):
                if gi < 0:
                    continue
                d = encode_deltas(p, s.gt_boxes[gi])
                fs = d.faces()
                assert min(fs) >= -1e-9  # never outside
                assert min(abs(v) for v in fs) <= 1e-9  # touching some face

    def test_clutter_outside_all_boxes(self):
        for seed in range(10):
            s = gen_scene(SMALL, seed)
            for p, gi in zip((Point3(*row) for row in s.points), s.point_gt_labels.tolist()):
                if gi >= 0:
                    continue
                for b in s.gt_boxes:
                    assert not point_in_scaled_box(p, b, 0.5)

    def test_counts_and_shapes(self):
        s = gen_scene(SMALL, 5)
        expected = len(s.gt_boxes) * SMALL.points_per_box + SMALL.num_clutter
        assert s.num_points == expected
        assert s.points.shape == (expected, 3) and s.points.dtype == np.float64
        assert s.features.shape == (expected, SMALL.feature_dim)
        assert s.point_gt_labels.shape == (expected,) and s.point_gt_labels.dtype == np.int64
        counts = np.bincount(s.point_gt_labels + 1)
        assert counts.tolist() == [SMALL.num_clutter] + [SMALL.points_per_box] * len(s.gt_boxes)

    def test_point_order_shuffled(self):
        # Owning-box labels must not come out grouped by box.
        s = gen_scene(SMALL, 9)
        labels = s.point_gt_labels
        runs = int(np.count_nonzero(labels[1:] != labels[:-1]))
        assert runs > len(s.gt_boxes) + 1

    def test_noiseless_offset_feature_recovers_center(self):
        cfg = SceneConfig(num_gt=(2, 2), points_per_box=40, num_clutter=20, sigma_feature=0.0)
        s = gen_scene(cfg, 3)
        for i, (p, gi) in enumerate(zip(s.points, s.point_gt_labels.tolist())):
            if gi < 0:
                continue
            c = s.gt_boxes[gi].center
            rec = p + s.features[i, :3]
            assert rec == pytest.approx([c.x, c.y, c.z], abs=1e-9)
            assert s.features[i, 3 + s.gt_boxes[gi].class_id] == 1.0

    def test_placement_error_when_workspace_too_small(self):
        cfg = SceneConfig(
            num_gt=(6, 6),
            size_range=((1.0, 1.2), (1.0, 1.2), (0.5, 0.6)),
            points_per_box=5,
            num_clutter=0,
            workspace=((-1.4, 1.4), (-1.4, 1.4), (0.0, 1.0)),
        )
        with pytest.raises(PlacementError):
            gen_scene(cfg, 0)
        # A box that fills the workspace leaves no free volume for clutter.
        full = SceneConfig(
            num_gt=(1, 1),
            size_range=((1.0, 1.0),) * 3,
            num_clutter=5,
            workspace=((0.0, 1.0),) * 3,
        )
        with pytest.raises(PlacementError):
            gen_scene(full, 0)

    def test_feature_noise_that_overflows_is_config_error(self):
        # sigma 1e308 passes validation, but its noise overflows to infinity.
        cfg = dataclasses.replace(SMALL, sigma_feature=1e308)
        with pytest.raises(ConfigError, match="sigma_feature 1e[+]308 is too large"):
            gen_scene(cfg, 0)
        assert np.isfinite(gen_scene(dataclasses.replace(SMALL, sigma_feature=1e300), 0)
                           .features).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SceneConfig(num_gt=(0, 2))
        with pytest.raises(ValueError):
            SceneConfig(num_gt=(3, 2))
        with pytest.raises(ValueError):
            SceneConfig(feature_dim=6)
        with pytest.raises(ValueError):
            SceneConfig(sigma_feature=-0.1)


class TestMatching:
    def test_containing_box_wins(self):
        s = gen_scene(SMALL, 11)
        for gi, box in enumerate(s.gt_boxes):
            assert match_point_to_gt(box.center, s.gt_boxes) == gi

    def test_far_point_gets_nearest_center(self):
        s = gen_scene(SMALL, 12)
        p = Point3(3.9, 3.9, 2.5)
        centers = [(g.center.x, g.center.y, g.center.z) for g in s.gt_boxes]
        dists = [math.dist((p.x, p.y, p.z), c) for c in centers]
        assert match_point_to_gt(p, s.gt_boxes) == int(np.argmin(dists))


def proposals_at(s, idx):
    """Regular proposals on the scene points idx, with their features."""
    idx = list(idx)
    return Proposals(s.points[idx], s.features[idx],
                     np.array(idx, dtype=np.int64), np.full(len(idx), -1))


class TestOracle:
    def test_exact_oracle_reproduces_gt(self):
        s = gen_scene(SMALL, 21)
        predict = oracle_predictor(s, OracleNoise())
        idx = range(0, s.num_points, 37)
        preds = predict(proposals_at(s, idx))
        for i, probs, d in zip(idx, preds.class_probs, preds.deltas):
            p = Point3(*s.points[i])
            gi = match_point_to_gt(p, s.gt_boxes)
            gt = s.gt_boxes[gi]
            box = decode_box(p, Deltas(*d))
            assert box.center.x == pytest.approx(gt.center.x, abs=1e-9)
            assert box.center.y == pytest.approx(gt.center.y, abs=1e-9)
            assert box.center.z == pytest.approx(gt.center.z, abs=1e-9)
            assert box.size == pytest.approx(gt.size, abs=1e-9)
            assert int(np.argmax(probs[:-1])) == gt.class_id
            assert probs[-1] == 0.0
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_exact_oracle_class_accuracy(self):
        s = gen_scene(SMALL, 22)
        predict = oracle_predictor(s, OracleNoise(p_class_flip=0.0))
        idx = np.flatnonzero(s.point_gt_labels >= 0).tolist()
        preds = predict(proposals_at(s, idx))
        assert len(preds.centerness) == len(idx) > 0
        for i, probs in zip(idx, preds.class_probs):
            gi = s.point_gt_labels[i]
            assert int(np.argmax(probs[:-1])) == s.gt_boxes[gi].class_id

    def test_class_flip_rate(self):
        s = gen_scene(SMALL, 23)
        predict = oracle_predictor(s, OracleNoise(p_class_flip=0.3), seed=7)
        flips = 0
        n = 2000
        idx = [k % s.num_points for k in range(n)]
        preds = predict(proposals_at(s, idx))
        for i, probs in zip(idx, preds.class_probs):
            gi = match_point_to_gt(Point3(*s.points[i]), s.gt_boxes)
            flips += int(np.argmax(probs[:-1])) != s.gt_boxes[gi].class_id
        assert 0.25 < flips / n < 0.35

    def test_iou_degrades_with_delta_noise(self):
        mean_ious = []
        for sigma in (0.0, 0.05, 0.1, 0.2):
            total = 0.0
            count = 0
            for seed in range(15):
                s = gen_scene(SMALL, 100 + seed)
                predict = oracle_predictor(s, OracleNoise(sigma_delta=sigma), seed=1)
                idx = range(0, s.num_points, 23)
                preds = predict(proposals_at(s, idx))
                for i, d in zip(idx, preds.deltas):
                    p = Point3(*s.points[i])
                    gi = match_point_to_gt(p, s.gt_boxes)
                    box = decode_box(p, Deltas(*d))
                    total += iou_rotated(box, s.gt_boxes[gi])
                    count += 1
            mean_ious.append(total / count)
        assert all(a > b for a, b in zip(mean_ious, mean_ious[1:]))
        assert mean_ious[0] == pytest.approx(1.0, abs=1e-9)

    def test_noisy_deltas_always_decodable(self):
        # Large relative noise on far-away points must still produce legal sizes.
        s = gen_scene(SMALL, 24)
        predict = oracle_predictor(s, OracleNoise(sigma_delta=0.5), seed=3)
        idx = range(0, s.num_points, 11)
        preds = predict(proposals_at(s, idx))
        for i, d in zip(idx, preds.deltas):
            box = decode_box(Point3(*s.points[i]), Deltas(*d))  # must not raise
            assert min(box.size) >= 0.01 - 1e-12

    def test_predictor_deterministic(self):
        s = gen_scene(SMALL, 25)
        noise = OracleNoise(sigma_delta=0.1, sigma_heading=0.05, p_class_flip=0.1, centerness_bias=0.1)
        outs = []
        for _ in range(2):
            predict = oracle_predictor(s, noise, seed=9)
            outs.append(predict(proposals_at(s, range(50))))
        a, b = outs
        assert len(a.centerness) == len(b.centerness) == 50
        assert np.array_equal(a.class_probs, b.class_probs)
        assert np.array_equal(a.deltas, b.deltas)
        assert np.array_equal(a.centerness, b.centerness)

    def test_centerness_clamped(self):
        s = gen_scene(SMALL, 26)
        predict = oracle_predictor(s, OracleNoise(centerness_bias=2.0), seed=4)
        preds = predict(proposals_at(s, range(0, s.num_points, 13)))
        c = preds.centerness
        assert len(c) and np.all((c >= 0.0) & (c <= 1.0))

    def test_oracle_requires_gts(self):
        s = gen_scene(SMALL, 27)
        empty = SyntheticScene(
            gt_boxes=[],
            points=s.points,
            features=s.features,
            point_gt_labels=np.full(s.num_points, -1),
            seed=0,
            config=SMALL,
        )
        with pytest.raises(ValueError):
            oracle_predictor(empty, OracleNoise())

    def test_oracle_rejects_a_box_without_class(self):
        s = gen_scene(SMALL, 27)
        boxes = list(s.gt_boxes)
        boxes[1] = dataclasses.replace(boxes[1], class_id=None)
        classless = dataclasses.replace(s, gt_boxes=boxes)
        with pytest.raises(ValueError, match="^ground-truth box 1 has no class id"):
            oracle_predictor(classless, OracleNoise())

    @pytest.mark.parametrize("yaw", [False, True])
    @pytest.mark.parametrize("bias", [0.0, 0.1])
    def test_seed_centerness_equals_per_point_loop(self, yaw, bias):
        s = gen_scene(SceneConfig(num_gt=(3, 4), yaw_enabled=yaw), 28)
        gts = s.gt_boxes
        ref = np.array(
            [centerness(encode_deltas(p, gts[match_point_to_gt(p, gts)]))
             for p in (Point3(*row) for row in s.points)]
        )
        if bias:
            rng = np.random.Generator(np.random.Philox(key=(s.seed << 1) ^ 5 ^ 0x5EED))
            ref = np.clip(ref + bias * rng.normal(size=len(ref)), 0.0, 1.0)
        got = oracle_seed_centerness(s, OracleNoise(centerness_bias=bias), seed=5)
        assert np.array_equal(got, ref)

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            OracleNoise(sigma_delta=-0.1)
        with pytest.raises(ValueError):
            OracleNoise(p_class_flip=1.0)


class TestProposalSelection:
    def test_top_b_with_denoising(self):
        s = gen_scene(SMALL, 31)
        cent = oracle_seed_centerness(s, OracleNoise(centerness_bias=0.1), seed=2)
        props = scene_proposals(s, cent, 32, denoising_k=1)
        assert len(props) == 32 + len(s.gt_boxes)
        assert props.denoising_gt.tolist() == [-1] * 32 + list(range(len(s.gt_boxes)))
        # Denoising points are the l1-nearest scene points to each center.
        for gi, p in enumerate(props.points[32:]):
            c = s.gt_boxes[gi].center
            d_choice = abs(p[0] - c.x) + abs(p[1] - c.y) + abs(p[2] - c.z)
            for q in s.points:
                d_other = abs(q[0] - c.x) + abs(q[1] - c.y) + abs(q[2] - c.z)
                assert d_choice <= d_other + 1e-12

    def test_denoising_k_zero_appends_no_group(self):
        s = gen_scene(SMALL, 31)
        cent = oracle_seed_centerness(s, OracleNoise(), seed=2)
        props = scene_proposals(s, cent, 32, denoising_k=0)
        assert props.denoising_gt.tolist() == [-1] * 32
        assert props.origin_index.tolist() == scene_proposals(s, cent, 32).origin_index.tolist()
        with pytest.raises(ValueError, match="need denoising_k >= 0, got -1"):
            scene_proposals(s, cent, 32, denoising_k=-1)

    @pytest.mark.parametrize("extra", [-10, -1, 1])
    def test_centerness_of_another_length_rejected(self, extra):
        # A shorter array would never select the tail points; a longer one
        # could pick indices past the scene.
        s = gen_scene(SMALL, 32)
        cent = np.arange(s.num_points + extra, dtype=np.float64)
        with pytest.raises(ValueError, match=f"^{s.num_points + extra} predicted centerness "
                                             f"values for {s.num_points} scene points$"):
            scene_proposals(s, cent, 16)

    def test_proposals_carry_scene_features(self):
        s = gen_scene(SMALL, 32)
        cent = np.zeros(s.num_points)
        props = scene_proposals(s, cent, 16)
        assert len(props) == 16
        for p, f, i in zip(props.points, props.features, props.origin_index):
            assert np.array_equal(f, s.features[i])
            assert np.array_equal(p, s.points[i])
