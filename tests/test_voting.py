import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import point_in_scaled_box
from rows import xyz

from cascadev import voting
from cascadev.errors import WrongVariantError
from cascadev.geometry import EPS, Boxes, OrientedBox, Point3, contains_points
from cascadev.voting import ia_voting


def brute_force_vote(updated_point, box, source_points, source_features, weighting):
    # Direct double-loop evaluation of the weighted-average definition,
    # written without the shift trick or any vectorization.
    weights = []
    feats = []
    for p, f in zip(source_points, source_features):
        if not point_in_scaled_box(p, box, 0.5):
            continue
        d = math.dist((p.x, p.y, p.z), (updated_point.x, updated_point.y, updated_point.z))
        if weighting == "exp_neg_dist":
            weights.append(math.exp(-d))
        else:
            weights.append(-math.exp(d))
        feats.append(np.asarray(f, dtype=float))
    if not weights:
        return None
    total = sum(weights)
    return sum((w / total) * f for w, f in zip(weights, feats))


def rand_instance(rng, n_src=10, dim=4):
    box = OrientedBox(
        Point3(*rng.uniform(-1, 1, size=3)),
        tuple(rng.uniform(0.8, 2.5, size=3)),
        yaw=rng.uniform(-math.pi, math.pi),
    )
    pts = [Point3(*rng.uniform(-2, 2, size=3)) for _ in range(n_src)]
    feats = [rng.normal(size=dim) for _ in range(n_src)]
    p_upd = Point3(*rng.uniform(-1.5, 1.5, size=3))
    return p_upd, box, pts, feats


def as_bits(a) -> np.ndarray:
    """float64 values as their int64 bit patterns, so -0.0 and 0.0 differ."""
    return np.asarray(a, dtype=np.float64).view(np.int64)


class TestVoting:
    def test_lone_inside_point_unchanged(self):
        box = OrientedBox(Point3(0, 0, 0), (1, 1, 1))
        pts = [Point3(0.1, 0.0, 0.0), Point3(5, 5, 5)]
        feats = [np.array([1.0, 2.0]), np.array([9.0, 9.0])]
        (out,) = ia_voting(np.zeros((1, 3)), Boxes.of([box]), xyz(pts), feats)
        assert out == pytest.approx(feats[0], abs=1e-12)

    def test_equidistant_pair_averages(self):
        box = OrientedBox(Point3(0, 0, 0), (2, 2, 2))
        pts = [Point3(0.5, 0, 0), Point3(-0.5, 0, 0)]
        feats = [np.array([2.0, 0.0]), np.array([0.0, 4.0])]
        (out,) = ia_voting(np.zeros((1, 3)), Boxes.of([box]), xyz(pts), feats)
        assert out == pytest.approx(np.array([1.0, 2.0]), abs=1e-12)

    @pytest.mark.parametrize("weighting", ["exp_neg_dist", "literal"])
    def test_matches_double_loop(self, weighting):
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(300):
            p_upd, box, pts, feats = rand_instance(rng)
            ref = brute_force_vote(p_upd, box, pts, feats, weighting)
            if ref is None:
                continue
            (out,) = ia_voting(xyz([p_upd]), Boxes.of([box]), xyz(pts), feats, weighting=weighting)
            assert out == pytest.approx(ref, abs=1e-12)
            checked += 1
        assert checked > 100

    def test_output_in_componentwise_hull(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            p_upd, box, pts, feats = rand_instance(rng, n_src=15)
            inside = [f for p, f in zip(pts, feats) if point_in_scaled_box(p, box, 0.5)]
            if not inside:
                continue
            (out,) = ia_voting(xyz([p_upd]), Boxes.of([box]), xyz(pts), feats)
            mat = np.array(inside)
            assert np.all(out >= mat.min(axis=0) - 1e-12)
            assert np.all(out <= mat.max(axis=0) + 1e-12)

    def test_outside_points_have_zero_influence(self):
        rng = np.random.default_rng(43)
        box = OrientedBox(Point3(0, 0, 0), (1.5, 1.5, 1.5), yaw=0.4)
        pts = [Point3(*rng.uniform(-3, 3, size=3)) for _ in range(30)]
        feats = [rng.normal(size=5) for _ in range(30)]
        # None of the 30 draws falls in the box; two that do give the vote its inputs.
        pts += [Point3(0.2, -0.1, 0.3), Point3(-0.3, 0.2, 0.0)]
        feats += [np.arange(5.0), -np.arange(5.0)]
        p_upd = Point3(0.1, 0.1, 0.1)
        (base,) = ia_voting(xyz([p_upd]), Boxes.of([box]), xyz(pts), feats)
        mutated = [
            f + 1000.0 if not point_in_scaled_box(p, box, 0.5) else f
            for p, f in zip(pts, feats)
        ]
        (after,) = ia_voting(xyz([p_upd]), Boxes.of([box]), xyz(pts), mutated)
        assert sum(f is not g for f, g in zip(feats, mutated)) == 30
        assert after == pytest.approx(base, abs=1e-9)

    def test_source_permutation_invariance(self):
        rng = np.random.default_rng(44)
        p_upd, box, pts, feats = rand_instance(rng, n_src=20)
        (base,) = ia_voting(xyz([p_upd]), Boxes.of([box]), xyz(pts), feats)
        perm = rng.permutation(20)
        (shuffled,) = ia_voting(
            xyz([p_upd]),
            Boxes.of([box]),
            xyz(pts[i] for i in perm),
            [feats[i] for i in perm],
        )
        assert shuffled == pytest.approx(base, abs=1e-12)

    def test_empty_mask_positional_fallback(self):
        # Sources align 1:1 with proposals, so the proposal's own feature
        # survives when its box is empty.
        box = OrientedBox(Point3(50, 50, 50), (1, 1, 1))
        pts = [Point3(0, 0, 0)]
        feats = [np.array([3.0, 4.0])]
        (out,) = ia_voting(np.zeros((1, 3)), Boxes.of([box]), xyz(pts), feats)
        assert out == pytest.approx(feats[0], abs=1e-12)

    def test_empty_mask_fallback_keeps_signed_zero(self):
        box = OrientedBox(Point3(50, 50, 50), (1, 1, 1))
        feats = np.array([[-0.0, 1.0]])
        out = ia_voting(np.zeros((1, 3)), Boxes.of([box]), np.zeros((1, 3)), feats)
        assert np.array_equal(as_bits(out), as_bits(feats))

    def test_empty_mask_without_own_feature_errors(self):
        box = OrientedBox(Point3(50, 50, 50), (1, 1, 1))
        pts = [Point3(0, 0, 0), Point3(1, 1, 1)]
        feats = [np.array([1.0]), np.array([2.0])]
        with pytest.raises(ValueError, match="proposal 0 has an empty vote mask"):
            ia_voting(np.zeros((1, 3)), Boxes.of([box]), xyz(pts), feats)

    def test_literal_variant_prefers_far_points(self):
        box = OrientedBox(Point3(0, 0, 0), (2, 2, 2))
        pts = [Point3(0.0, 0, 0), Point3(0.9, 0, 0)]
        feats = [np.array([0.0]), np.array([1.0])]
        p_upd = Point3(0, 0, 0)
        (near_heavy,) = ia_voting(xyz([p_upd]), Boxes.of([box]), xyz(pts), feats)
        (far_heavy,) = ia_voting(xyz([p_upd]), Boxes.of([box]), xyz(pts), feats, weighting="literal")
        assert near_heavy[0] < 0.5
        assert far_heavy[0] > 0.5

    def test_unknown_weighting_rejected(self):
        box = OrientedBox(Point3(0, 0, 0), (1, 1, 1))
        with pytest.raises(WrongVariantError):
            ia_voting(np.zeros((1, 3)), Boxes.of([box]), np.zeros((1, 3)), [np.array([1.0])], weighting="idw")

    def test_dimension_mismatch_rejected(self):
        box = OrientedBox(Point3(0, 0, 0), (1, 1, 1))
        pts = [Point3(0, 0, 0), Point3(0.1, 0, 0)]
        feats = [np.array([1.0, 2.0]), np.array([1.0])]
        with pytest.raises(ValueError):
            ia_voting(np.zeros((1, 3)), Boxes.of([box]), xyz(pts), feats)

    def test_alignment_validation(self):
        box = OrientedBox(Point3(0, 0, 0), (1, 1, 1))
        with pytest.raises(ValueError):
            ia_voting(np.zeros((1, 3)), Boxes.of([box, box]), np.zeros((1, 3)), [np.array([1.0])])
        with pytest.raises(ValueError):
            ia_voting(np.zeros((1, 3)), Boxes.of([box]), np.zeros((1, 3)), [])

    def test_variance_reduction(self):
        # Shared true feature plus i.i.d. noise: the weighted average must
        # beat a single noisy copy in mean squared error.
        rng = np.random.default_rng(45)
        box = OrientedBox(Point3(0, 0, 0), (2, 2, 2))
        true = np.array([1.0, -2.0, 0.5, 3.0])
        pts = [Point3(*rng.uniform(-0.9, 0.9, size=3)) for _ in range(12)]
        p_upd = Point3(0, 0, 0)
        agg_se = []
        single_se = []
        for _ in range(1000):
            noise = rng.normal(0.0, 0.3, size=(12, 4))
            feats = [true + noise[i] for i in range(12)]
            (out,) = ia_voting(xyz([p_upd]), Boxes.of([box]), xyz(pts), feats)
            agg_se.append(float(np.sum((out - true) ** 2)))
            single_se.append(float(np.sum((feats[0] - true) ** 2)))
        agg_mse = np.mean(agg_se)
        single_mse = np.mean(single_se)
        assert agg_mse < single_mse


def per_box_ia_voting(updated_points, predicted_boxes, source_points, source_features, *,
                      weighting="exp_neg_dist"):
    """ia_voting as it was when it took one OrientedBox per proposal and
    returned a list of rows, with its containment test written against the
    box object. The reference for the column form, which must match it bit
    for bit."""
    feats = np.asarray(source_features, dtype=np.float64)
    src = np.asarray(source_points, dtype=np.float64)
    upd = np.asarray(updated_points, dtype=np.float64)
    out = []
    for i, box in enumerate(predicted_boxes):
        rel = src - np.array([box.center.x, box.center.y, box.center.z])
        q = rel
        if box.yaw != 0.0:
            c, s = math.cos(box.yaw), math.sin(box.yaw)
            q = np.empty_like(rel)
            q[:, 0] = c * rel[:, 0] + s * rel[:, 1]
            q[:, 1] = -s * rel[:, 0] + c * rel[:, 1]
            q[:, 2] = rel[:, 2]
        mask = np.all(np.abs(q) <= np.array(box.size) * 0.5 + EPS, axis=1)
        if not mask.any():
            if len(feats) != len(upd):
                raise ValueError(f"proposal {i} has an empty vote mask")
            out.append(feats[i].copy())
            continue
        dist = np.linalg.norm(src[mask] - upd[i], axis=1)
        if weighting == "exp_neg_dist":
            w = np.exp(-(dist - dist.min()))
        else:
            w = np.exp(dist - dist.max())
        w /= w.sum()
        out.append(w @ feats[mask])
    return out


coords = st.floats(-2.0, 2.0)
extents = st.floats(0.1, 2.5)
headings = st.one_of(st.just(0.0), st.sampled_from([math.pi, -math.pi]), st.floats(-4.0, 4.0))
# On a face, inside or outside the EPS band around it, and just at its edges.
face_offsets = st.sampled_from([0.0, EPS, -EPS, 2 * EPS, -2 * EPS, EPS / 2, -EPS / 2])
signs = st.sampled_from([-1.0, 1.0])
ORIGINS = [(0.0, 0.0, 0.0), (1e3, -1e3, 5e2), (-1e6, 1e6, 1e6), (1e8, 1e8, -1e8)]


@st.composite
def vote_cases(draw):
    """Proposals with boxes, and sources that are free, on a box face or at
    a box corner at about EPS from it, or coincident with an earlier
    source, all near an origin up to 1e8 away, where the candidate window's
    rounding of center +- reach counts. Up to 64 sources; otherwise the
    sources are the proposals themselves, as in the cascade's hand-off, so
    an empty mask falls back positionally."""
    origin = draw(st.sampled_from(ORIGINS))

    def near():
        return [o + draw(coords) for o in origin]

    b = draw(st.integers(0, 8))
    dim = draw(st.integers(1, 4))
    boxes = [OrientedBox(Point3(*near()),
                         (draw(extents), draw(extents), draw(extents)), yaw=draw(headings))
             for _ in range(b)]
    n = draw(st.integers(0, 64)) if draw(st.booleans()) else b
    src = []
    for _ in range(n):
        kind = draw(st.sampled_from(["free", "face", "corner", "coincident"]))
        if kind == "coincident" and src:
            src.append(draw(st.sampled_from(src)))
        elif kind in ("face", "corner") and boxes:
            box = draw(st.sampled_from(boxes))
            q = [draw(st.floats(-0.5, 0.5)) * e for e in box.size]
            for axis in range(3) if kind == "corner" else [draw(st.integers(0, 2))]:
                q[axis] = draw(signs) * (box.size[axis] / 2.0 + draw(face_offsets))
            c, s = math.cos(box.yaw), math.sin(box.yaw)
            src.append([box.center.x + c * q[0] - s * q[1],
                        box.center.y + s * q[0] + c * q[1], box.center.z + q[2]])
        else:
            src.append(near())
    at_centers = draw(st.booleans())
    upd = [xyz([box.center])[0] if at_centers else near() for box in boxes]
    values = st.floats(-10.0, 10.0)
    feats = np.array([[draw(values) for _ in range(dim)] for _ in range(n)]).reshape(n, dim)
    return (np.array(upd, dtype=np.float64).reshape(b, 3), boxes,
            np.array(src, dtype=np.float64).reshape(n, 3), feats)


@settings(max_examples=300, deadline=None)
@given(case=vote_cases(), weighting=st.sampled_from(["exp_neg_dist", "literal"]))
def test_columns_equal_per_box_voting(case, weighting):
    upd, boxes, src, feats = case
    try:
        ref = per_box_ia_voting(upd, boxes, src, feats, weighting=weighting)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}"):
            ia_voting(upd, Boxes.of(boxes), src, feats, weighting=weighting)
        return
    out = ia_voting(upd, Boxes.of(boxes), src, feats, weighting=weighting)
    assert out.shape == (len(boxes), feats.shape[1])
    assert np.array_equal(as_bits(out), as_bits(np.reshape(ref, out.shape)))


# Edges of NumPy's pairwise sum (8-wide unrolling, 128-element blocks),
# and k=1, whose matmul skips BLAS.
SHARED_COUNTS = (1, 7, 8, 9, 127, 128, 129)


@settings(max_examples=100, deadline=None)
@given(per_count=st.lists(st.integers(2, 4), min_size=8, max_size=8),
       big=st.integers(280, 320), dim=st.sampled_from([1, 16, 33]),
       weighting=st.sampled_from(["exp_neg_dist", "literal"]),
       seed=st.integers(0, 2**32 - 1))
def test_shared_vote_counts_equal_per_box_voting(per_count, big, dim, weighting, seed):
    # Several proposals share each vote count, so every grouped pass
    # stacks more than one row; every box is far from the others and
    # holds exactly its count of sources, shuffled among the rest.
    rng = np.random.default_rng(seed)
    counts = [k for k, m in zip(SHARED_COUNTS + (big,), per_count) for _ in range(m)]
    rng.shuffle(counts)
    boxes, src = [], []
    for j, k in enumerate(counts):
        center = np.array([20.0 * j, rng.uniform(-5, 5), rng.uniform(-5, 5)])
        size = rng.uniform(0.5, 3.0, size=3)
        yaw = rng.uniform(-math.pi, math.pi)
        boxes.append(OrientedBox(Point3(*center), tuple(size), yaw=yaw))
        q = rng.uniform(-0.45, 0.45, size=(k, 3)) * size
        c, s = math.cos(yaw), math.sin(yaw)
        src.append(center + np.column_stack([c * q[:, 0] - s * q[:, 1],
                                             s * q[:, 0] + c * q[:, 1], q[:, 2]]))
    src = rng.permutation(np.concatenate(src))
    upd = np.array([[b.center.x, b.center.y, b.center.z] for b in boxes])
    upd += rng.normal(0.0, 0.5, size=upd.shape)
    # Magnitudes from 1e-300 to 1e300 and signed zeros.
    feats = rng.normal(size=(len(src), dim)) * 10.0 ** rng.integers(-300, 300, size=(len(src), 1))
    feats[rng.random(feats.shape) < 0.2] = -0.0
    feats[:, rng.random(dim) < 0.2] = -0.0
    out = ia_voting(upd, Boxes.of(boxes), src, feats, weighting=weighting)
    ref = per_box_ia_voting(upd, boxes, src, feats, weighting=weighting)
    assert np.array_equal(as_bits(out), as_bits(ref))


def test_containment_tests_only_pairs_near_each_box(monkeypatch):
    # Small boxes among many sources: the containment test must see the
    # pairs near each box only, never all B x N of them.
    rng = np.random.default_rng(11)
    n, b = 2000, 200
    src = rng.uniform(-5.0, 5.0, size=(n, 3))
    feats = rng.normal(size=(n, 4))
    boxes = [OrientedBox(Point3(*src[i]), tuple(rng.uniform(0.5, 1.0, size=3)),
                         yaw=rng.uniform(-math.pi, math.pi)) for i in range(b)]
    upd = src[:b] + rng.normal(0.0, 0.1, size=(b, 3))
    tested = []

    def spy(*args, **kwargs):
        mask = contains_points(*args, **kwargs)
        tested.append((len(mask), int(mask.sum())))
        return mask

    monkeypatch.setattr(voting, "contains_points", spy)
    out = ia_voting(upd, Boxes.of(boxes), src, feats)
    pairs, inside = map(sum, zip(*tested))
    assert inside >= b
    assert pairs < 0.05 * b * n
    ref = per_box_ia_voting(upd, boxes, src, feats)
    assert np.array_equal(as_bits(out), as_bits(ref))
