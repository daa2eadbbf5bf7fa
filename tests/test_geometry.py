import math

import numpy as np
import pytest

from reference import centerness, point_in_scaled_box
from rows import xyz

from cascadev.errors import InvalidDeltasError
from cascadev.geometry import (
    EPS,
    Boxes,
    Deltas,
    OrientedBox,
    Point3,
    canonical_coords,
    contains_points,
    decode_box,
    encode_deltas,
    normalize_yaw,
    update_point,
)


def random_box(rng, yaw=True):
    center = Point3(*rng.uniform(-3.0, 3.0, size=3))
    size = tuple(rng.uniform(0.3, 2.5, size=3))
    return OrientedBox(center, size, yaw=rng.uniform(-math.pi, math.pi) if yaw else 0.0)


def random_point_inside(rng, box):
    q = rng.uniform(-0.5, 0.5, size=3) * np.array(box.size)
    c = math.cos(box.yaw)
    s = math.sin(box.yaw)
    return Point3(
        box.center.x + c * q[0] - s * q[1],
        box.center.y + s * q[0] + c * q[1],
        box.center.z + q[2],
    )


class TestEncode:
    def test_axis_aligned_example(self):
        box = OrientedBox(Point3(1.0, 2.0, 1.0), (2.0, 2.0, 2.0))
        d = encode_deltas(Point3(1.5, 2.0, 1.0), box)
        assert d.d1 == pytest.approx(0.5, abs=1e-12)
        assert d.d2 == pytest.approx(1.5, abs=1e-12)
        assert d.d3 == pytest.approx(1.0, abs=1e-12)
        assert d.d4 == pytest.approx(1.0, abs=1e-12)
        assert d.d5 == pytest.approx(1.0, abs=1e-12)
        assert d.d6 == pytest.approx(1.0, abs=1e-12)
        assert d.heading == 0.0

    def test_pairs_sum_to_size(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            box = random_box(rng)
            p = Point3(*rng.uniform(-5.0, 5.0, size=3))
            d = encode_deltas(p, box)
            w, l, h = box.size
            assert d.d1 + d.d2 == pytest.approx(w, abs=1e-9)
            assert d.d3 + d.d4 == pytest.approx(l, abs=1e-9)
            assert d.d5 + d.d6 == pytest.approx(h, abs=1e-9)
            assert d.heading == box.yaw

    def test_center_gives_symmetric_deltas(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            box = random_box(rng)
            d = encode_deltas(box.center, box)
            assert d.d1 == pytest.approx(d.d2, abs=1e-12)
            assert d.d3 == pytest.approx(d.d4, abs=1e-12)
            assert d.d5 == pytest.approx(d.d6, abs=1e-12)

    def test_outside_point_has_negative_component(self):
        box = OrientedBox(Point3(0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        d = encode_deltas(Point3(2.0, 0.0, 0.0), box)
        assert d.d1 < 0.0
        assert min(d.faces()) < 0.0


class TestRoundtrip:
    def test_encode_decode_recovers_box(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            box = random_box(rng)
            p = random_point_inside(rng, box)
            d = encode_deltas(p, box)
            back = decode_box(p, d)
            assert back.center.x == pytest.approx(box.center.x, abs=1e-9)
            assert back.center.y == pytest.approx(box.center.y, abs=1e-9)
            assert back.center.z == pytest.approx(box.center.z, abs=1e-9)
            assert back.size[0] == pytest.approx(box.size[0], abs=1e-9)
            assert back.size[1] == pytest.approx(box.size[1], abs=1e-9)
            assert back.size[2] == pytest.approx(box.size[2], abs=1e-9)
            assert back.yaw == pytest.approx(box.yaw, abs=1e-9)

    def test_roundtrip_from_outside_point(self):
        # The parametrization is valid for any point, not just interior ones.
        rng = np.random.default_rng(12)
        for _ in range(100):
            box = random_box(rng)
            p = Point3(*rng.uniform(-6.0, 6.0, size=3))
            back = decode_box(p, encode_deltas(p, box))
            assert back.center.x == pytest.approx(box.center.x, abs=1e-9)
            assert back.size[2] == pytest.approx(box.size[2], abs=1e-9)

    def test_decode_rejects_nonpositive_extent(self):
        p = Point3(0.0, 0.0, 0.0)
        with pytest.raises(InvalidDeltasError):
            decode_box(p, Deltas(1.0, -1.0, 0.5, 0.5, 0.5, 0.5))
        with pytest.raises(InvalidDeltasError):
            decode_box(p, Deltas(0.5, 0.5, 0.5, 0.5, 0.25, -0.25))


class TestUpdatePoint:
    def test_moves_to_center(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            box = random_box(rng)
            p = Point3(*rng.uniform(-5.0, 5.0, size=3))
            moved = update_point(p, encode_deltas(p, box))
            assert moved.x == pytest.approx(box.center.x, abs=1e-12)
            assert moved.y == pytest.approx(box.center.y, abs=1e-12)
            assert moved.z == pytest.approx(box.center.z, abs=1e-12)

    def test_symmetric_deltas_fixed_point(self):
        p = Point3(0.3, -0.7, 1.1)
        moved = update_point(p, Deltas(0.4, 0.4, 0.2, 0.2, 0.9, 0.9, heading=1.0))
        assert moved.x == pytest.approx(p.x, abs=1e-12)
        assert moved.y == pytest.approx(p.y, abs=1e-12)
        assert moved.z == pytest.approx(p.z, abs=1e-12)

    def test_agrees_with_decode_center(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            d = Deltas(*rng.uniform(0.05, 2.0, size=6), heading=rng.uniform(-3.0, 3.0))
            p = Point3(*rng.uniform(-2.0, 2.0, size=3))
            box = decode_box(p, d)
            moved = update_point(p, d)
            assert moved.x == pytest.approx(box.center.x, abs=1e-12)
            assert moved.y == pytest.approx(box.center.y, abs=1e-12)
            assert moved.z == pytest.approx(box.center.z, abs=1e-12)


class TestCenterness:
    def test_center_is_one(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            box = random_box(rng)
            assert centerness(encode_deltas(box.center, box)) == pytest.approx(1.0, abs=1e-12)

    def test_face_point_is_zero(self):
        box = OrientedBox(Point3(0.0, 0.0, 0.0), (2.0, 2.0, 2.0))
        assert centerness(encode_deltas(Point3(1.0, 0.0, 0.0), box)) == 0.0

    def test_face_point_zero_under_roundoff(self):
        # A face point reconstructed through rotations picks up ~1e-16 of
        # dust in its face distances; centerness must still be exactly 0.
        assert centerness(Deltas(1e-12, 2.0, 1.0, 1.0, 1.0, 1.0)) == 0.0
        rng = np.random.default_rng(9)
        for _ in range(100):
            box = random_box(rng)
            c, s = math.cos(box.yaw), math.sin(box.yaw)
            u, v = rng.uniform(-0.5, 0.5, size=2)
            q = (box.size[0] / 2.0, u * box.size[1], v * box.size[2])
            p = Point3(
                box.center.x + c * q[0] - s * q[1],
                box.center.y + s * q[0] + c * q[1],
                box.center.z + q[2],
            )
            assert centerness(encode_deltas(p, box)) == 0.0

    def test_outside_point_is_zero(self):
        box = OrientedBox(Point3(0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        assert centerness(encode_deltas(Point3(3.0, 3.0, 3.0), box)) == 0.0

    def test_known_value(self):
        # One axis balanced 1:3, the others 1:1 -> sqrt(1/3).
        d = Deltas(0.5, 1.5, 1.0, 1.0, 1.0, 1.0)
        assert centerness(d) == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-12)
        assert centerness(d) == pytest.approx(0.5773502691896258, abs=1e-12)

    def test_bounded_and_yaw_invariant(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            box = random_box(rng, yaw=False)
            p = random_point_inside(rng, box)
            c0 = centerness(encode_deltas(p, box))
            assert 0.0 <= c0 <= 1.0
            # Rotating box and point together must not change centerness.
            yaw = rng.uniform(-math.pi, math.pi)
            cy, sy = math.cos(yaw), math.sin(yaw)
            rot = OrientedBox(box.center, box.size, yaw=yaw)
            rel = np.array([p.x - box.center.x, p.y - box.center.y])
            pr = Point3(
                box.center.x + cy * rel[0] - sy * rel[1],
                box.center.y + sy * rel[0] + cy * rel[1],
                p.z,
            )
            assert centerness(encode_deltas(pr, rot)) == pytest.approx(c0, abs=1e-9)

    def test_monotone_along_axis_toward_center(self):
        box = OrientedBox(Point3(0.0, 0.0, 0.0), (2.0, 2.0, 2.0))
        xs = np.linspace(0.95, 0.0, 20)
        vals = [centerness(encode_deltas(Point3(x, 0.0, 0.0), box)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestScaledMembership:
    def test_half_scale_is_plain_membership(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            box = random_box(rng)
            inside = random_point_inside(rng, box)
            assert point_in_scaled_box(inside, box, 0.5)
            far = Point3(box.center.x + 10.0, box.center.y, box.center.z)
            assert not point_in_scaled_box(far, box, 0.5)

    def test_boundary_inclusive(self):
        box = OrientedBox(Point3(0.0, 0.0, 0.0), (2.0, 2.0, 2.0))
        assert point_in_scaled_box(Point3(1.0, 0.0, 0.0), box, 0.5)
        assert point_in_scaled_box(Point3(0.4, 0.0, 0.0), box, 0.2)
        assert not point_in_scaled_box(Point3(0.4 + 1e-6, 0.0, 0.0), box, 0.2)

    def test_shrinking_mu_shrinks_membership(self):
        box = OrientedBox(Point3(0.0, 0.0, 0.0), (2.0, 2.0, 2.0), yaw=0.4)
        rng = np.random.default_rng(18)
        pts = [Point3(*rng.uniform(-1.5, 1.5, size=3)) for _ in range(300)]
        for mu_small, mu_big in [(0.2, 0.3), (0.3, 0.5)]:
            small = {i for i, p in enumerate(pts) if point_in_scaled_box(p, box, mu_small)}
            big = {i for i, p in enumerate(pts) if point_in_scaled_box(p, box, mu_big)}
            assert small <= big

    def test_rejects_nonpositive_mu(self):
        box = OrientedBox(Point3(0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            point_in_scaled_box(box.center, box, 0.0)
        with pytest.raises(ValueError):
            point_in_scaled_box(box.center, box, -0.1)


class TestTypesAndHelpers:
    def test_yaw_normalized_on_construction(self):
        b = OrientedBox(Point3(0, 0, 0), (1, 1, 1), yaw=math.pi)
        assert b.yaw == pytest.approx(-math.pi)
        b2 = OrientedBox(Point3(0, 0, 0), (1, 1, 1), yaw=3.0 * math.pi + 0.1)
        assert b2.yaw == pytest.approx(-math.pi + 0.1, abs=1e-12)
        assert normalize_yaw(-math.pi) == pytest.approx(-math.pi)
        assert -math.pi <= normalize_yaw(123.456) < math.pi

    def test_box_validation(self):
        with pytest.raises(ValueError):
            OrientedBox(Point3(0, 0, 0), (0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            Point3(float("nan"), 0.0, 0.0)

    @pytest.mark.parametrize("size, yaw", [
        ((1.0, math.inf, 1.0), 0.0), ((1.0, 1.0, math.nan), 0.0),
        ((1.0, 1.0, 1.0), math.nan), ((1.0, 1.0, 1.0), -math.inf),
    ])
    def test_box_rejects_non_finite_size_or_yaw(self, size, yaw):
        with pytest.raises(ValueError, match="finite"):
            OrientedBox(Point3(0, 0, 0), size, yaw=yaw)

    def test_deltas_array_roundtrip(self):
        d = Deltas(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, heading=0.7)
        assert [*d.faces(), d.heading] == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
        assert Deltas(*d.faces(), d.heading) == d

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(19)
        box = random_box(rng)
        pts = [Point3(*rng.uniform(-3.0, 3.0, size=3)) for _ in range(100)]
        one, owner = Boxes.of([box]), np.zeros(len(pts), dtype=int)
        q = canonical_coords(one.centers, one.yaws, xyz(pts), owner)
        mask = contains_points(one.centers, one.sizes, one.yaws, xyz(pts), 0.37, owner)
        for i, p in enumerate(pts):
            d = encode_deltas(p, box)
            # canonical x recovered from the face distances
            assert q[i, 0] == pytest.approx((d.d2 - d.d1) / 2.0, abs=1e-9)
            assert bool(mask[i]) == point_in_scaled_box(p, box, 0.37)

    def test_volume(self):
        assert OrientedBox(Point3(0, 0, 0), (2.0, 3.0, 0.5)).volume == pytest.approx(3.0)
