import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import centerness, point_in_scaled_box
from rows import xyz

from cascadev.assignment import (
    Assignment,
    CpaSchedule,
    assign_targets,
    cpa_threshold,
    select_denoising,
    select_top_b,
)
from cascadev.geometry import (
    Boxes,
    Deltas,
    OrientedBox,
    Point3,
    contains_points,
    encode_deltas,
    matched_faces,
)


class TestSchedule:
    def test_default_three_stage_values(self):
        sched = CpaSchedule(0.4, 0.2, 3)
        assert cpa_threshold(1, sched) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert cpa_threshold(2, sched) == pytest.approx(0.4 - (2.0 / 3.0) * 0.2, abs=1e-12)
        assert cpa_threshold(2, sched) == pytest.approx(0.26666666666666666, abs=1e-12)
        assert cpa_threshold(3, sched) == pytest.approx(0.2, abs=1e-12)

    def test_last_stage_is_mu_min(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            mu_min = float(rng.uniform(0.05, 0.4))
            mu_max = float(rng.uniform(mu_min, 0.6))
            L = int(rng.integers(1, 8))
            sched = CpaSchedule(mu_max, mu_min, L)
            assert cpa_threshold(L, sched) == pytest.approx(mu_min, abs=1e-12)

    def test_non_increasing(self):
        sched = CpaSchedule(0.45, 0.15, 6)
        vals = [cpa_threshold(l, sched) for l in range(1, 7)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        flat = CpaSchedule(0.3, 0.3, 4)
        assert len({cpa_threshold(l, flat) for l in range(1, 5)}) == 1

    def test_stage_out_of_range(self):
        sched = CpaSchedule(0.4, 0.2, 3)
        with pytest.raises(ValueError):
            cpa_threshold(0, sched)
        with pytest.raises(ValueError):
            cpa_threshold(4, sched)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            CpaSchedule(0.2, 0.4, 3)
        with pytest.raises(ValueError):
            CpaSchedule(0.4, 0.0, 3)
        with pytest.raises(ValueError):
            CpaSchedule(0.4, 0.2, 0)
        with pytest.raises(ValueError, match="mu_max <= 1"):
            CpaSchedule(1.5, 0.2, 3)
        assert CpaSchedule(1.0, 0.2, 3).mu_max == 1.0


def brute_force_assign(points, gts, mu):
    # Independent restatement: check every (point, gt) membership, pick the
    # smallest-volume containing box.
    out = []
    for p in points:
        best = -1
        best_vol = math.inf
        for gi, gt in enumerate(gts):
            if point_in_scaled_box(p, gt, mu) and gt.volume < best_vol:
                best = gi
                best_vol = gt.volume
        out.append(best)
    return out


class TestAssignTargets:
    def test_center_point_positive_with_unit_centerness(self):
        gt = OrientedBox(Point3(1.0, 1.0, 1.0), (1.0, 1.0, 1.0), class_id=2)
        a = assign_targets(xyz([gt.center]), Boxes.of([gt]), 0.5)
        assert a.matched_gt.tolist() == [0]
        assert a.target_centerness[0] == pytest.approx(1.0, abs=1e-12)
        assert a.target_class[0] == 2
        assert a.is_denoising.tolist() == [False]

    def test_far_point_negative(self):
        gt = OrientedBox(Point3(0, 0, 0), (1, 1, 1))
        a = assign_targets(np.array([[5.0, 5.0, 5.0]]), Boxes.of([gt]), 0.5)
        assert a.matched_gt.tolist() == [-1]
        assert np.isnan(a.target_deltas[0]).all()
        assert np.isnan(a.target_centerness[0])
        assert a.target_class[0] == -1
        assert a.num_positives == 0

    def test_empty_gts_all_negative(self):
        a = assign_targets(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), Boxes.of([]), 0.3)
        assert a.matched_gt.tolist() == [-1, -1]
        assert a.target_deltas.shape == (2, 7) and np.isnan(a.target_deltas).all()

    def test_nested_boxes_prefer_smaller(self):
        big = OrientedBox(Point3(0, 0, 0), (4.0, 4.0, 4.0), class_id=0)
        small = OrientedBox(Point3(0.2, 0.0, 0.0), (1.0, 1.0, 1.0), class_id=1)
        a = assign_targets(np.array([[0.2, 0.0, 0.0]]), Boxes.of([big, small]), 0.5)
        assert a.matched_gt.tolist() == [1]
        assert a.target_class[0] == 1

    def test_matches_brute_force(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            gts = [
                OrientedBox(
                    Point3(*rng.uniform(-2, 2, size=3)),
                    tuple(rng.uniform(0.5, 2.5, size=3)),
                    yaw=rng.uniform(-math.pi, math.pi),
                    class_id=int(rng.integers(0, 3)),
                )
                for _ in range(4)
            ]
            points = [Point3(*rng.uniform(-3, 3, size=3)) for _ in range(120)]
            mu = float(rng.uniform(0.1, 0.6))
            a = assign_targets(xyz(points), Boxes.of(gts), mu)
            assert a.matched_gt.tolist() == brute_force_assign(points, gts, mu)

    def test_targets_computed_against_matched_box(self):
        rng = np.random.default_rng(33)
        gts = [
            OrientedBox(Point3(0, 0, 0), (2, 2, 2), yaw=0.3, class_id=0),
            OrientedBox(Point3(3, 0, 0), (1, 1, 1), class_id=1),
        ]
        points = [Point3(*rng.uniform(-1, 4, size=3)) for _ in range(200)]
        a = assign_targets(xyz(points), Boxes.of(gts), 0.5)
        for i, gi in enumerate(a.matched_gt.tolist()):
            if gi < 0:
                continue
            d = encode_deltas(points[i], gts[gi])
            want = np.array([*d.faces(), d.heading])
            assert a.target_deltas[i] == pytest.approx(want, abs=1e-12)
            assert a.target_centerness[i] == pytest.approx(centerness(d), abs=1e-12)

    def test_positive_centerness_strictly_positive_below_half(self):
        rng = np.random.default_rng(34)
        gts = [OrientedBox(Point3(0, 0, 0), (2, 2, 2), yaw=0.5)]
        points = [Point3(*rng.uniform(-1.5, 1.5, size=3)) for _ in range(500)]
        a = assign_targets(xyz(points), Boxes.of(gts), 0.4)
        for i in np.flatnonzero(a.matched_gt >= 0):
            assert a.target_centerness[i] > 0.0

    def test_positive_set_shrinks_with_mu(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            gts = [
                OrientedBox(
                    Point3(*rng.uniform(-1, 1, size=3)),
                    tuple(rng.uniform(0.8, 2.0, size=3)),
                    yaw=rng.uniform(-math.pi, math.pi),
                )
                for _ in range(3)
            ]
            points = [Point3(*rng.uniform(-2, 2, size=3)) for _ in range(300)]
            prev = None
            for mu in (0.5, 0.4, 0.3, 0.2, 0.1):
                matched = assign_targets(xyz(points), Boxes.of(gts), mu).matched_gt
                cur = set(np.flatnonzero(matched >= 0).tolist())
                if prev is not None:
                    assert cur <= prev
                prev = cur

    def test_fixed_assignment_overrides(self):
        gt = OrientedBox(Point3(0, 0, 0), (1, 1, 1), class_id=3)
        far = Point3(4.0, 4.0, 4.0)
        a = assign_targets(xyz([far]), Boxes.of([gt]), 0.2, denoising_gt=np.array([0]))
        assert a.matched_gt.tolist() == [0]
        assert a.is_denoising.tolist() == [True]
        assert a.target_class[0] == 3
        # Outside the box, so the forced target has zero centerness.
        assert a.target_centerness[0] == 0.0
        assert a.num_positives == 1
        assert a.num_regular_positives == 0

    def test_fixed_assignment_out_of_range(self):
        gt = Boxes.of([OrientedBox(Point3(0, 0, 0), (1, 1, 1))])
        with pytest.raises(ValueError):
            assign_targets(np.zeros((1, 3)), gt, 0.3, denoising_gt=np.array([-1] * 5 + [0]))
        with pytest.raises(ValueError):
            assign_targets(np.zeros((1, 3)), gt, 0.3, denoising_gt=np.array([2]))

    def test_bad_denoising_gt_is_rejected(self):
        gt = Boxes.of([OrientedBox(Point3(0, 0, 0), (1, 1, 1))])
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        with pytest.raises(ValueError, match=r"denoising_gt has shape \(3,\), expected \(2,\)"):
            assign_targets(pts, gt, 0.3, denoising_gt=np.array([-1, 0, -1]))
        with pytest.raises(ValueError, match=r"denoising_gt\[1\] = 1 outside \[-1, 1\)"):
            assign_targets(pts, gt, 0.3, denoising_gt=np.array([0, 1]))
        with pytest.raises(ValueError, match=r"denoising_gt\[0\] = -2 outside \[-1, 1\)"):
            assign_targets(pts, gt, 0.3, denoising_gt=np.array([-2, 0]))

    def test_invalid_mu(self):
        with pytest.raises(ValueError):
            assign_targets(np.zeros((1, 3)), Boxes.of([]), 0.0)


def pin_column(fixed: dict, n: int) -> np.ndarray:
    """The (n,) denoising_gt column pinning row i to fixed[i], -1 elsewhere."""
    col = np.full(n, -1, dtype=np.int64)
    col[list(fixed)] = list(fixed.values())
    return col


def per_row_assign_targets(points, gts, mu, *, fixed_assignments=None):
    """assign_targets as it was before its targets became columns: one list
    entry per point, a Deltas object per positive and None where unmatched.
    Returns (matched_gt, target_deltas, target_centerness, target_class,
    is_denoising)."""
    pts = xyz(points)
    n = len(pts)
    matched = np.full(n, -1, dtype=np.int64)
    if gts and n:
        best_vol = np.full(n, np.inf)
        for gi, gt in enumerate(gts):
            one = Boxes.of([gt])
            inside = contains_points(one.centers, one.sizes, one.yaws, pts, mu,
                                     np.zeros(n, dtype=int))
            better = inside & (gt.volume < best_vol)
            matched[better] = gi
            best_vol[better] = gt.volume
    is_denoising = [False] * n
    for pi, gi in (fixed_assignments or {}).items():
        matched[pi] = gi
        is_denoising[pi] = True
    target_deltas = [None] * n
    target_centerness = [None] * n
    target_class = [None] * n
    pos = np.flatnonzero(matched >= 0)
    owner = matched[pos]
    faces, cent = matched_faces(Boxes.of(gts), pts[pos], owner)
    for i, gi, row, c in zip(pos.tolist(), owner.tolist(), faces.tolist(), cent.tolist()):
        target_deltas[i] = Deltas(*row, heading=gts[gi].yaw)
        target_centerness[i] = c
        target_class[i] = gts[gi].class_id
    return [int(g) for g in matched], target_deltas, target_centerness, target_class, is_denoising


@st.composite
def assignment_cases(draw):
    """Boxes at yaw 0 or yawed, some without a class id, and points at a box
    center, inside it, on a face (within the 1e-9 band or just past it) or
    anywhere; plus a mu and a few pinned rows."""
    coord, extent = st.floats(-2.0, 2.0), st.floats(0.2, 2.0)
    gts = [
        OrientedBox(
            Point3(draw(coord), draw(coord), draw(coord)),
            (draw(extent), draw(extent), draw(extent)),
            yaw=draw(st.one_of(st.just(0.0), st.floats(-math.pi, math.pi, exclude_max=True))),
            class_id=draw(st.one_of(st.none(), st.integers(0, 4))),
        )
        for _ in range(draw(st.integers(0, 4)))
    ]
    mu = draw(st.floats(0.05, 0.6))
    points = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["center", "inside", "face", "free"] if gts else ["free"]))
        if kind == "free":
            points.append(Point3(draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0)),
                                 draw(st.floats(-4.0, 4.0))))
            continue
        box = draw(st.sampled_from(gts))
        q = [0.0, 0.0, 0.0] if kind == "center" else [draw(st.floats(-mu, mu)) * e
                                                      for e in box.size]
        if kind == "face":
            axis = draw(st.integers(0, 2))
            q[axis] = draw(st.sampled_from([-1.0, 1.0])) * (
                box.size[axis] * mu + draw(st.sampled_from([0.0, 1e-9, -1e-9, 2e-9, -2e-9])))
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        points.append(Point3(box.center.x + c * q[0] - s * q[1],
                             box.center.y + s * q[0] + c * q[1], box.center.z + q[2]))
    fixed = {}
    if gts and points:
        fixed = draw(st.dictionaries(st.integers(0, len(points) - 1),
                                     st.integers(0, len(gts) - 1), max_size=3))
    return points, gts, mu, fixed


class TestColumnsAgainstPerRowOracle:
    @settings(max_examples=300, deadline=None)
    @given(assignment_cases())
    def test_columns_equal_per_row_lists(self, case):
        points, gts, mu, fixed = case
        a = assign_targets(xyz(points), Boxes.of(gts), mu,
                           denoising_gt=pin_column(fixed, len(points)))
        matched, deltas, cent, classes, dn = per_row_assign_targets(
            points, gts, mu, fixed_assignments=fixed)
        n = len(points)
        assert a.matched_gt.dtype == np.int64 and a.matched_gt.tolist() == matched
        assert a.target_deltas.shape == (n, 7) and a.target_centerness.shape == (n,)
        assert a.target_class.dtype == np.int64 and a.is_denoising.dtype == bool
        assert a.is_denoising.tolist() == dn
        assert a.target_class.tolist() == [-1 if c is None else c for c in classes]
        for i in range(n):
            if deltas[i] is None:
                assert np.isnan(a.target_deltas[i]).all() and np.isnan(a.target_centerness[i])
            else:
                assert a.target_deltas[i].tolist() == [*deltas[i].faces(), deltas[i].heading]
                assert a.target_centerness[i] == cent[i]
        assert a.num_positives == sum(g >= 0 for g in matched)
        assert a.num_regular_positives == sum(g >= 0 and not d for g, d in zip(matched, dn))


class TestSelectDenoising:
    def test_coincident_point_wins(self):
        center = Point3(1.0, 2.0, 3.0)
        pts = xyz([Point3(0, 0, 0), center, Point3(1.1, 2.0, 3.0)])
        assert select_denoising(pts, xyz([center])) == [1]

    def test_shared_nearest_point(self):
        pts = np.array([[0.0, 0.0, 0.0], [10.0, 10.0, 10.0]])
        centers = np.array([[0.1, 0.0, 0.0], [-0.1, 0.0, 0.0]])
        assert select_denoising(pts, centers) == [0, 0]

    def test_tie_lower_index(self):
        pts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        assert select_denoising(pts, np.zeros((1, 3))) == [0]

    def test_l1_not_l2(self):
        # l1 distance 2.4 beats 2.7 even though l2 prefers the other point.
        pts = np.array([[0.8, 0.8, 0.8], [2.7, 0.0, 0.0]])
        assert select_denoising(pts, np.zeros((1, 3))) == [0]
        d_a = 0.8 * 3
        d_b = 2.7
        assert d_a < d_b
        assert math.dist((0.8, 0.8, 0.8), (0, 0, 0)) < 2.7  # sanity: l2 agrees here
        pts2 = np.array([[1.0, 1.0, 1.0], [2.9, 0.0, 0.0]])
        # l1: 3.0 vs 2.9 -> second point; l2: 1.73 vs 2.9 -> first point.
        assert select_denoising(pts2, np.zeros((1, 3))) == [1]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(36)
        for _ in range(30):
            pts = [Point3(*rng.uniform(-3, 3, size=3)) for _ in range(80)]
            centers = [Point3(*rng.uniform(-3, 3, size=3)) for _ in range(4)]
            got = select_denoising(xyz(pts), xyz(centers))
            got3 = select_denoising(xyz(pts), xyz(centers), k=3)
            for gi, c in enumerate(centers):
                dists = [abs(p.x - c.x) + abs(p.y - c.y) + abs(p.z - c.z) for p in pts]
                ranked = sorted(range(len(pts)), key=lambda i: (dists[i], i))
                assert got[gi] == ranked[0]
                assert got3[3 * gi : 3 * gi + 3] == ranked[:3]

    def test_permuting_gts_permutes_output(self):
        rng = np.random.default_rng(37)
        pts = [Point3(*rng.uniform(-2, 2, size=3)) for _ in range(50)]
        centers = [Point3(*rng.uniform(-2, 2, size=3)) for _ in range(5)]
        base = select_denoising(xyz(pts), xyz(centers))
        perm = [3, 0, 4, 1, 2]
        assert select_denoising(xyz(pts), xyz(centers)[perm]) == [base[i] for i in perm]

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            select_denoising([], np.zeros((1, 3)))
        with pytest.raises(ValueError, match="empty point set"):
            select_denoising(np.zeros((0, 3)), np.zeros((1, 3)))


class TestSelectTopB:
    def test_b_at_least_n_returns_all(self):
        vals = [0.2, 0.9, 0.5]
        assert select_top_b(vals, 3) == [1, 2, 0]
        assert select_top_b(vals, 10) == [1, 2, 0]

    def test_b_one_is_argmax(self):
        assert select_top_b([0.1, 0.7, 0.3, 0.7], 1) == [1]

    def test_ties_match_stable_sort(self):
        rng = np.random.default_rng(38)
        for _ in range(50):
            vals = [float(v) for v in rng.integers(0, 5, size=40)]  # many ties
            b = int(rng.integers(1, 41))
            ref = sorted(range(40), key=lambda i: (-vals[i], i))[:b]
            assert select_top_b(vals, b) == ref
            assert select_top_b(np.array(vals), b) == ref
        # Repeated fractional values, and signed zeros that compare equal.
        for _ in range(50):
            vals = [float(v) for v in rng.choice([0.0, -0.0, 0.25, 0.7, 1.0], size=30)]
            b = int(rng.integers(1, 31))
            ref = sorted(range(30), key=lambda i: (-vals[i], i))[:b]
            assert select_top_b(vals, b) == ref
        assert select_top_b([-0.0, 0.0, -0.0], 3) == [0, 1, 2]
        assert select_top_b([0.0, -0.0, 0.5], 3) == [2, 0, 1]

    def test_invalid_b(self):
        with pytest.raises(ValueError):
            select_top_b([0.5], 0)
