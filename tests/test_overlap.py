import math

import numpy as np
import pytest

from reference import iou_aabb, scalar_iou_rotated
from rows import detections

from cascadev.errors import WrongVariantError
from cascadev.geometry import Boxes, OrientedBox, Point3
from cascadev.overlap import (
    Detection,
    _corner_array,
    bev_intersection_area,
    iou_mc,
    iou_rotated,
    nms,
)


def rand_box(rng, yaw=True, span=2.0):
    center = Point3(*rng.uniform(-span, span, size=3))
    size = tuple(rng.uniform(0.4, 2.0, size=3))
    return OrientedBox(center, size, yaw=rng.uniform(-math.pi, math.pi) if yaw else 0.0)


class TestAabb:
    def test_identical(self):
        b = OrientedBox(Point3(1.0, 2.0, 0.5), (1.0, 2.0, 0.8))
        assert iou_aabb(b, b) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint(self):
        a = OrientedBox(Point3(0, 0, 0), (1, 1, 1))
        b = OrientedBox(Point3(5, 0, 0), (1, 1, 1))
        assert iou_aabb(a, b) == 0.0

    def test_unit_cubes_offset_half(self):
        a = OrientedBox(Point3(0, 0, 0), (1, 1, 1))
        b = OrientedBox(Point3(0.5, 0, 0), (1, 1, 1))
        assert iou_aabb(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_rejects_rotated(self):
        a = OrientedBox(Point3(0, 0, 0), (1, 1, 1), yaw=0.3)
        b = OrientedBox(Point3(0, 0, 0), (1, 1, 1))
        with pytest.raises(WrongVariantError):
            iou_aabb(a, b)
        with pytest.raises(WrongVariantError):
            iou_aabb(b, a)

    def test_touching_faces_zero(self):
        a = OrientedBox(Point3(0, 0, 0), (1, 1, 1))
        b = OrientedBox(Point3(1.0, 0, 0), (1, 1, 1))
        assert iou_aabb(a, b) == 0.0


class TestRotated:
    def test_identical_any_yaw(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            b = rand_box(rng)
            assert iou_rotated(b, b) == pytest.approx(1.0, abs=1e-9)

    def test_matches_aabb_at_zero_yaw(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            a = rand_box(rng, yaw=False)
            b = rand_box(rng, yaw=False)
            assert iou_rotated(a, b) == pytest.approx(iou_aabb(a, b), abs=1e-9)

    def test_square_vs_45_degree_square(self):
        a = OrientedBox(Point3(0, 0, 0), (1, 1, 1))
        b = OrientedBox(Point3(0, 0, 0), (1, 1, 1), yaw=math.pi / 4.0)
        octagon = 2.0 * (math.sqrt(2.0) - 1.0)
        assert bev_intersection_area(a, b) == pytest.approx(octagon, abs=1e-12)
        assert iou_rotated(a, b) == pytest.approx(octagon / (2.0 - octagon), abs=1e-12)
        assert iou_rotated(a, b) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a = rand_box(rng)
            b = rand_box(rng)
            assert iou_rotated(a, b) == pytest.approx(iou_rotated(b, a), abs=1e-9)
            assert 0.0 <= iou_rotated(a, b) <= 1.0 + 1e-12

    def test_translation_and_joint_rotation_invariance(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            a = rand_box(rng)
            b = rand_box(rng)
            base = iou_rotated(a, b)
            t = rng.uniform(-5.0, 5.0, size=3)
            phi = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(phi), math.sin(phi)

            def move(bx):
                x, y = bx.center.x, bx.center.y
                return OrientedBox(
                    Point3(c * x - s * y + t[0], s * x + c * y + t[1], bx.center.z + t[2]),
                    bx.size,
                    yaw=bx.yaw + phi,
                )

            assert iou_rotated(move(a), move(b)) == pytest.approx(base, abs=1e-9)

    def test_containment(self):
        big = OrientedBox(Point3(0, 0, 0), (2.0, 2.0, 2.0), yaw=0.7)
        small = OrientedBox(Point3(0, 0, 0), (1.0, 1.0, 1.0), yaw=0.7)
        assert iou_rotated(big, small) == pytest.approx(1.0 / 8.0, abs=1e-9)

    def test_z_disjoint_zero(self):
        a = OrientedBox(Point3(0, 0, 0), (1, 1, 1), yaw=0.2)
        b = OrientedBox(Point3(0, 0, 3.0), (1, 1, 1), yaw=0.9)
        assert iou_rotated(a, b) == 0.0

    def test_edge_contact_zero(self):
        # Footprints share only an edge: BEV area degenerates to zero.
        a = OrientedBox(Point3(0, 0, 0), (1, 1, 1))
        b = OrientedBox(Point3(1.0, 0, 0), (1, 1, 1))
        assert iou_rotated(a, b) == 0.0

    def test_corners_shape_and_orientation(self):
        b = OrientedBox(Point3(1.0, -2.0, 0.0), (2.0, 4.0, 1.0), yaw=0.3)
        corners = _corner_array(Boxes.of([b]))[0]
        assert corners.shape == (4, 2)
        # Shoelace positive = counterclockwise; area equals w*l.
        area = 0.0
        for i in range(4):
            x1, y1 = corners[i]
            x2, y2 = corners[(i + 1) % 4]
            area += x1 * y2 - x2 * y1
        assert area / 2.0 == pytest.approx(8.0, abs=1e-9)


class TestMonteCarlo:
    def test_matches_analytic_within_3_sigma(self):
        rng = np.random.default_rng(25)
        failures = 0
        for trial in range(20):
            a = rand_box(rng, span=0.5)
            # Keep b near a so the overlap is substantial and the binomial
            # error model is well-behaved.
            b = OrientedBox(
                Point3(
                    a.center.x + rng.uniform(-0.3, 0.3),
                    a.center.y + rng.uniform(-0.3, 0.3),
                    a.center.z + rng.uniform(-0.2, 0.2),
                ),
                tuple(rng.uniform(0.5, 1.5, size=3)),
                yaw=rng.uniform(-math.pi, math.pi),
            )
            est, se = iou_mc(a, b, n_samples=200_000, seed=1000 + trial)
            exact = iou_rotated(a, b)
            if abs(est - exact) > 3.0 * se + 1e-12:
                failures += 1
        # 3-sigma misses should be rare; allow one outlier in 20.
        assert failures <= 1

    def test_disjoint_exact(self):
        a = OrientedBox(Point3(0, 0, 0), (1, 1, 1), yaw=0.5)
        b = OrientedBox(Point3(10, 0, 0), (1, 1, 1), yaw=1.1)
        est, se = iou_mc(a, b, n_samples=10_000, seed=3)
        assert est == 0.0
        assert se == 0.0

    @pytest.mark.parametrize("n_samples", [0, -5, 2.5, True])
    def test_sample_count_below_one_or_not_an_int_rejected(self, n_samples):
        box = OrientedBox(Point3(0, 0, 0), (1, 1, 1))
        with pytest.raises(ValueError, match="n_samples"):
            iou_mc(box, box, n_samples=n_samples)


def reference_nms(dets, thr, iou=scalar_iou_rotated):
    # Straightforward restatement of the greedy rule on the scalar IoU oracle,
    # kept independent of the implementation under test.
    remaining = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    kept = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        survivors = []
        for j in remaining:
            same_class = dets[j].class_id == dets[best].class_id
            if same_class and iou(dets[best].box, dets[j].box) > thr:
                continue
            survivors.append(j)
        remaining = survivors
    return kept


class TestNms:
    def test_single_kept(self):
        d = Detection(OrientedBox(Point3(0, 0, 0), (1, 1, 1)), 0.5, 0)
        assert nms(detections([d]), 0.5) == [0]

    def test_duplicate_suppressed(self):
        box = OrientedBox(Point3(0, 0, 0), (1, 1, 1))
        dets = [Detection(box, 0.8, 0), Detection(box, 0.9, 0)]
        assert nms(detections(dets), 0.5) == [1]

    def test_different_classes_not_suppressed(self):
        box = OrientedBox(Point3(0, 0, 0), (1, 1, 1))
        dets = [Detection(box, 0.9, 0), Detection(box, 0.8, 1)]
        assert nms(detections(dets), 0.5) == [0, 1]

    def test_score_tie_lower_index_first(self):
        box = OrientedBox(Point3(0, 0, 0), (1, 1, 1))
        dets = [Detection(box, 0.7, 0), Detection(box, 0.7, 0)]
        assert nms(detections(dets), 0.5) == [0]

    def test_threshold_strictly_exceeded(self):
        a = OrientedBox(Point3(0, 0, 0), (1, 1, 1))
        b = OrientedBox(Point3(0.5, 0, 0), (1, 1, 1))
        # IoU is exactly 1/3: threshold 1/3 keeps both, anything lower kills one.
        dets = [Detection(a, 0.9, 0), Detection(b, 0.8, 0)]
        assert nms(detections(dets), 1.0 / 3.0) == [0, 1]
        assert nms(detections(dets), 0.3) == [0]

    def test_matches_reference_on_random_sets(self):
        rng = np.random.default_rng(26)
        for trial in range(30):
            dets = [
                Detection(
                    rand_box(rng, span=1.0),
                    float(rng.uniform(0.0, 1.0)),
                    int(rng.integers(0, 3)),
                    stage=1,
                )
                for _ in range(20)
            ]
            thr = float(rng.uniform(0.1, 0.7))
            assert nms(detections(dets), thr) == reference_nms(dets, thr)

    def test_kept_mutually_below_threshold(self):
        rng = np.random.default_rng(27)
        dets = [
            Detection(rand_box(rng, span=0.8), float(rng.uniform(0, 1)), int(rng.integers(0, 2)))
            for _ in range(30)
        ]
        kept = nms(detections(dets), 0.4)
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                if dets[a].class_id == dets[b].class_id:
                    assert iou_rotated(dets[a].box, dets[b].box) <= 0.4 + 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_batches_equal_reference(self, n):
        box = OrientedBox(Point3(0, 0, 0), (1, 1, 1))
        shifted = OrientedBox(Point3(0.2, 0, 0), (1, 1, 1), yaw=0.1)
        dets = [Detection(box, 0.6, 0), Detection(shifted, 0.8, 0)][:n]
        kept = nms(detections(dets), 0.5)
        assert kept == reference_nms(dets, 0.5) == [[], [0], [1]][n]

    def test_invalid_threshold(self):
        d = Detection(OrientedBox(Point3(0, 0, 0), (1, 1, 1)), 0.5, 0)
        with pytest.raises(ValueError):
            nms(detections([d]), 0.0)
        with pytest.raises(ValueError):
            nms(detections([d]), 1.0)

    def test_detection_score_validated(self):
        with pytest.raises(ValueError):
            Detection(OrientedBox(Point3(0, 0, 0), (1, 1, 1)), 1.5, 0)
