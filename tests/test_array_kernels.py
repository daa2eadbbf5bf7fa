"""Array kernels against their scalar oracles, by exact equality.

face_distances, centerness_array, matched_faces, decode_boxes,
box_owners, match_points_to_gt and contains_points over owned rows replace
per-point loops over encode_deltas, centerness, decode_box, match_point_to_gt
and point_in_scaled_box on the seed-scoring, assignment, oracle,
stage-decoding, voting and cascade-statistics paths. Pipeline artifacts stay
byte-identical only if every row is bit-equal to the scalar result, so
these properties use ==, never a tolerance. The kernels run with
warnings raised as errors: a stray RuntimeWarning (say, sqrt of a
negative ratio computed and then masked out) fails the test.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import centerness, match_point_to_gt, point_in_scaled_box
from rows import same_bits, xyz

from cascadev.assignment import box_owners, match_points_to_gt
from cascadev.errors import InvalidDeltasError
from cascadev.geometry import (
    EPS,
    MAX_COORD,
    Boxes,
    Deltas,
    OrientedBox,
    Point3,
    canonical_coords,
    centerness_array,
    contains_points,
    decode_boxes,
    encode_deltas,
    face_distances,
    matched_faces,
    near_pairs,
    normalize_yaw,
)
from cascadev.overlap import Detections
from cascadev.synth import OracleNoise, SceneConfig, gen_scene, oracle_seed_centerness

SETTINGS = settings(max_examples=150, deadline=None)

coords = st.floats(-3.0, 3.0)
extents = st.floats(0.05, 3.0)
yaws = st.one_of(st.just(0.0), st.floats(-math.pi, math.pi, exclude_max=True))
# Offsets from a face: on it, just inside or outside the 1e-9 band, and on its edges.
face_offsets = st.one_of(
    st.sampled_from([0.0, 1e-9, -1e-9, 5e-10, -5e-10, 2e-9, -2e-9]),
    st.floats(-3e-9, 3e-9),
)


@st.composite
def boxes(draw):
    center = Point3(draw(coords), draw(coords), draw(coords))
    return OrientedBox(center, (draw(extents), draw(extents), draw(extents)), yaw=draw(yaws))


def world_point(box: OrientedBox, q) -> Point3:
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    return Point3(
        box.center.x + c * q[0] - s * q[1],
        box.center.y + s * q[0] + c * q[1],
        box.center.z + q[2],
    )


@st.composite
def probes(draw, box: OrientedBox):
    """A point at, inside, on a face of, or far outside box, or anywhere."""
    kind = draw(st.sampled_from(["center", "inside", "face", "far", "free"]))
    if kind == "center":
        return box.center
    if kind == "far":
        return Point3(*(draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(20.0, 40.0))
                        for _ in range(3)))
    if kind == "free":
        return Point3(draw(coords), draw(coords), draw(coords))
    q = [draw(st.floats(-0.5, 0.5)) * e for e in box.size]
    if kind == "face":
        axis = draw(st.integers(0, 2))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        q[axis] = sign * (box.size[axis] / 2.0 + draw(face_offsets))
    return world_point(box, q)


def raising(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


@SETTINGS
@given(st.data())
def test_face_distances_and_centerness_arrays_equal_scalar(data):
    box = data.draw(boxes())
    pts = data.draw(st.lists(probes(box), min_size=1, max_size=24))
    one = Boxes.of([box])
    q = raising(canonical_coords, one.centers, one.yaws, xyz(pts), np.zeros(len(pts), dtype=int))
    d = raising(face_distances, q, np.array(box.size) / 2.0)
    c = raising(centerness_array, d)
    assert d.shape == (len(pts), 6) and c.shape == (len(pts),)
    for i, p in enumerate(pts):
        ref = encode_deltas(p, box)
        assert tuple(d[i].tolist()) == ref.faces()
        assert c[i] == centerness(ref)


@SETTINGS
@given(st.lists(
    st.lists(st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 1e-9, 2e-9, -1e-9])),
             min_size=6, max_size=6),
    min_size=1, max_size=24,
))
def test_centerness_array_equals_scalar_on_any_rows(rows):
    c = raising(centerness_array, np.array(rows))
    for i, row in enumerate(rows):
        assert c[i] == centerness(Deltas(*row))


@SETTINGS
@given(st.data())
def test_match_points_to_gt_equals_scalar(data):
    gts = data.draw(st.lists(boxes(), min_size=1, max_size=5))
    if data.draw(st.booleans()):
        # An equal-volume box centered inside another: the lower index keeps the tie.
        orig = gts[data.draw(st.integers(0, len(gts) - 1))]
        shift = [data.draw(st.floats(-0.5, 0.5)) * e for e in orig.size]
        twin = OrientedBox(world_point(orig, shift), orig.size, yaw=data.draw(yaws))
        gts.insert(data.draw(st.integers(0, len(gts))), twin)
    pts = data.draw(st.lists(st.one_of(*(probes(g) for g in gts)), min_size=1, max_size=32))
    got = raising(match_points_to_gt, xyz(pts), Boxes.of(gts))
    assert got.tolist() == [match_point_to_gt(p, gts) for p in pts]


@SETTINGS
@given(
    st.lists(st.integers(-8, 8), min_size=3, max_size=3),
    st.lists(st.integers(-8, 8), min_size=3, max_size=3).filter(lambda v: max(map(abs, v)) >= 2),
    st.integers(1, 3),
    yaws,
)
def test_equidistant_centers_go_to_lower_index(p, v, copies, yaw):
    # Centers at p + v and p - v (repeated) are exactly equidistant from p,
    # which lies outside every box: the first box listed wins.
    gts = []
    for k in range(copies):
        for sign in (1, -1):
            center = Point3(*(a + sign * b for a, b in zip(p, v)))
            gts.append(OrientedBox(center, (0.5, 0.5, 0.5), yaw=yaw + k))
    pts = [Point3(*map(float, p))]
    got = raising(match_points_to_gt, xyz(pts), Boxes.of(gts))
    assert got.tolist() == [match_point_to_gt(pts[0], gts)] == [0]


ORIGINS = [(0.0, 0.0, 0.0), (1e3, -1e3, 5e2), (-1e6, 1e6, 1e6), (1e8, 1e8, -1e8)]


@st.composite
def window_boxes(draw, origin):
    """A box near origin. Some yaws turn a corner onto the x or y axis, where
    the corner reaches the box's xy circumradius and its window is tight."""
    w, l, h = draw(extents), draw(extents), draw(extents)
    diagonal = st.integers(0, 3).map(lambda k: normalize_yaw(k * math.pi / 2 - math.atan2(l, w)))
    center = Point3(*(o + draw(coords) for o in origin))
    return OrientedBox(center, (w, l, h), yaw=draw(st.one_of(yaws, diagonal)))


@st.composite
def window_probes(draw, box: OrientedBox):
    """probes(box), or a corner of box moved off each face by a face offset."""
    if draw(st.booleans()):
        return draw(probes(box))
    return world_point(box, [draw(st.sampled_from([-1.0, 1.0])) * (e / 2.0 + draw(face_offsets))
                             for e in box.size])


@st.composite
def scaled_corners(draw, box: OrientedBox, mu: float):
    """A corner of box scaled by mu, moved off each face by a face offset."""
    return world_point(box, [draw(st.sampled_from([-1.0, 1.0])) * (e * mu + draw(face_offsets))
                             for e in box.size])


@SETTINGS
@given(st.data())
def test_near_pairs_hold_every_scaled_box_pair_in_order(data):
    # The candidate search behind box_owners, voting and clutter rejection:
    # at any mu in (0, 1] and far from the origin, every (box, row) pair that
    # point_in_scaled_box holds is listed, sorted by box, then by row. Probes
    # a few ulps along x from a corner test the rounding of the x window.
    origin = data.draw(st.sampled_from(ORIGINS))
    mu = data.draw(st.floats(0.0, 1.0, exclude_min=True))
    gts = data.draw(st.lists(window_boxes(origin), max_size=4))
    near = gts or [data.draw(window_boxes(origin))]
    pts = data.draw(st.lists(st.one_of(*(st.one_of(window_probes(g), scaled_corners(g, mu))
                                         for g in near)), max_size=32))
    pts = [Point3(p.x + data.draw(st.integers(-2, 2)) * math.ulp(p.x), p.y, p.z) for p in pts]
    box, row = raising(near_pairs, xyz(pts), Boxes.of(gts), mu)
    pairs = list(zip(box.tolist(), row.tolist()))
    assert pairs == sorted(set(pairs))
    held = {(gi, i) for gi, g in enumerate(gts) for i, p in enumerate(pts)
            if point_in_scaled_box(p, g, mu)}
    assert held <= set(pairs)


def test_near_pairs_reach_covers_rotation_rounding():
    # A corner turned onto the x axis: the box holds the point, whose x gap to
    # the center exceeds the circumradius by rounding, so the reach is widened.
    box = OrientedBox(Point3(-2.6764157857100614, -0.6997867152868906, -0.5491607674800081),
                      (2.4247586250488715, 2.4334253297226565, 1.570210405074319),
                      yaw=2.354410552910279)
    p = Point3(-0.9587856418405021, -0.699786715289414, -0.5491607674800081)
    assert point_in_scaled_box(p, box, 0.5)
    assert abs(p.x - box.center.x) > math.hypot(box.size[0] * 0.5 + EPS, box.size[1] * 0.5 + EPS)
    assert raising(near_pairs, xyz([p]), Boxes.of([box]), 0.5)[1].tolist() == [0]


def test_near_pairs_of_no_points_or_no_boxes_are_empty():
    one = Boxes.of([OrientedBox(Point3(0.0, 0.0, 0.0), (1.0, 1.0, 1.0))])
    for pts, gts in ((np.zeros((0, 3)), one), (np.zeros((2, 3)), Boxes.of([]))):
        box, row = raising(near_pairs, pts, gts, 0.5)
        assert box.shape == row.shape == (0,)


@SETTINGS
@given(st.data())
def test_match_points_to_gt_windows_keep_every_owner(data):
    # Each box tests only the points in its window; owners must not change.
    origin = data.draw(st.sampled_from(ORIGINS))
    gts = data.draw(st.lists(window_boxes(origin), min_size=1, max_size=4))
    for box in list(gts):
        if data.draw(st.booleans()):
            # A smaller box around this one's center: points in both go to the smaller.
            scale = data.draw(st.floats(0.2, 0.6))
            shift = [data.draw(st.floats(-0.1, 0.1)) * e for e in box.size]
            inner = OrientedBox(world_point(box, shift), tuple(scale * e for e in box.size),
                                yaw=data.draw(st.one_of(st.just(box.yaw), yaws)))
            gts.insert(data.draw(st.integers(0, len(gts))), inner)
    pts = data.draw(st.lists(st.one_of(*(window_probes(g) for g in gts)), min_size=1,
                             max_size=32))
    if data.draw(st.booleans()):
        # Two boxes exactly equidistant from a point outside both: the lower index wins.
        p = [o + data.draw(st.integers(-8, 8)) for o in origin]
        v = data.draw(st.lists(st.integers(-8, 8), min_size=3, max_size=3)
                      .filter(lambda v: max(map(abs, v)) >= 2))
        for sign in (1, -1):
            gts.append(OrientedBox(Point3(*(a + sign * b for a, b in zip(p, v))),
                                   (0.5, 0.5, 0.5), yaw=data.draw(yaws)))
        pts.append(Point3(*p))
    if data.draw(st.booleans()):
        # A box far from every point: its window holds no candidate.
        far = Point3(*(o + 50.0 for o in origin))
        gts.insert(data.draw(st.integers(0, len(gts))), OrientedBox(far, (1.0, 1.0, 1.0)))
    got = raising(match_points_to_gt, xyz(pts), Boxes.of(gts))
    assert got.tolist() == [match_point_to_gt(p, gts) for p in pts]


@SETTINGS
@given(st.data())
def test_box_owners_equals_brute_scaled_box_loop(data):
    # Each box tests only the points in its window at any mu in (0, 1]; the
    # owners must be those of testing every point against every box.
    origin = data.draw(st.sampled_from(ORIGINS))
    mu = data.draw(st.floats(0.0, 1.0, exclude_min=True))
    gts = data.draw(st.lists(window_boxes(origin), min_size=1, max_size=4))
    if data.draw(st.booleans()):
        # An equal-volume copy: points in both go to the lower index.
        twin = gts[data.draw(st.integers(0, len(gts) - 1))]
        gts.insert(data.draw(st.integers(0, len(gts))),
                   dataclasses.replace(twin, yaw=data.draw(yaws)))
    pts = data.draw(st.lists(st.one_of(*(st.one_of(window_probes(g), scaled_corners(g, mu))
                                         for g in gts)), min_size=1, max_size=32))
    want = []
    for p in pts:
        inside = [gi for gi, g in enumerate(gts) if point_in_scaled_box(p, g, mu)]
        want.append(min(inside, key=lambda gi: gts[gi].volume, default=-1))
    assert raising(box_owners, xyz(pts), Boxes.of(gts), mu).tolist() == want


def test_containment_band_includes_exactly_minus_1e9():
    # With a half-width of 2**-31, the point below sits exactly -1e-9 outside
    # the thin box's +x face, on the scaled rule's inclusive edge size*0.5 + EPS
    # (checked on the scalar side first); one ulp further out it leaves the
    # band and falls to the enclosing box.
    thin = OrientedBox(Point3(0.0, 0.0, 0.0), (2.0**-30, 1.0, 1.0))
    big = OrientedBox(Point3(0.0, 0.0, 0.0), (4.0, 4.0, 4.0))
    x = 2.0**-31 + 1e-9
    assert x == thin.size[0] * 0.5 + EPS
    pts = [Point3(x, 0.0, 0.0), Point3(math.nextafter(x, 1.0), 0.0, 0.0)]
    assert [point_in_scaled_box(p, thin, 0.5) for p in pts] == [True, False]
    assert [match_point_to_gt(p, [thin, big]) for p in pts] == [0, 1]
    assert raising(match_points_to_gt, xyz(pts), Boxes.of([thin, big])).tolist() == [0, 1]


def test_match_points_to_gt_empty_inputs():
    box = OrientedBox(Point3(0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    assert match_points_to_gt(np.zeros((0, 3)), Boxes.of([box])).shape == (0,)
    assert match_points_to_gt(np.zeros((0, 3)), Boxes.of([])).shape == (0,)
    with pytest.raises(ValueError):
        match_points_to_gt(xyz([box.center]), Boxes.of([]))


YAWED_SCENE = SceneConfig(num_gt=(2, 4), yaw_enabled=True, points_per_box=40, num_clutter=120)


@SETTINGS
@given(st.data(), st.sampled_from([0.0, 0.15]))
def test_seed_centerness_equals_centerness_against_every_owner(data, bias):
    # Seed scoring measures contained points only. A point inside no box is
    # more than 1e-9 outside every box, so its nearest-center owner would give
    # it centerness 0 too; the fallback may be skipped without changing a bit.
    scene = gen_scene(YAWED_SCENE, data.draw(st.integers(0, 2**16)))
    extra = data.draw(st.lists(st.one_of(*(window_probes(g) for g in scene.gt_boxes)),
                               max_size=32))
    pts = np.concatenate([scene.points, xyz(extra)])
    scene = dataclasses.replace(scene, points=pts)
    seed = data.draw(st.integers(0, 7))
    got = raising(oracle_seed_centerness, scene, OracleNoise(centerness_bias=bias), seed)
    gts = Boxes.of(scene.gt_boxes)
    want = matched_faces(gts, pts, match_points_to_gt(pts, gts))[1]
    if bias:
        # The seed-scoring noise stream, keyed as in oracle_seed_centerness.
        rng = np.random.Generator(np.random.Philox(key=(scene.seed << 1) ^ seed ^ 0x5EED))
        want = np.clip(want + bias * rng.normal(size=len(want)), 0.0, 1.0)
    assert got.tobytes() == want.tobytes()


def owned_rows(data):
    """Many boxes, some at yaw 0 and some yawed, owning rows in any order."""
    gts = data.draw(st.lists(boxes(), min_size=1, max_size=12))
    gts += [OrientedBox(g.center, g.size, yaw=0.0 if g.yaw else 0.7) for g in gts[:3]]
    rows = data.draw(st.lists(
        st.integers(0, len(gts) - 1).flatmap(lambda gi: st.tuples(st.just(gi), probes(gts[gi]))),
        min_size=0, max_size=40,
    ))
    return gts, rows, np.array([gi for gi, _ in rows], dtype=np.int64), [p for _, p in rows]


@SETTINGS
@given(st.data())
def test_matched_faces_equals_scalar(data):
    gts, rows, owner, pts = owned_rows(data)
    faces, cent = raising(matched_faces, Boxes.of(gts), xyz(pts), owner)
    assert faces.shape == (len(rows), 6) and cent.shape == (len(rows),)
    for i, (gi, p) in enumerate(rows):
        ref = encode_deltas(p, gts[gi])
        assert tuple(faces[i].tolist()) == ref.faces()
        assert cent[i] == centerness(ref)


@SETTINGS
@given(st.data(), st.sampled_from([0.5, 0.3]))
def test_contains_points_by_owner_equals_scalar(data, mu):
    gts, rows, owner, pts = owned_rows(data)
    b = Boxes.of(gts)
    mask = raising(contains_points, b.centers, b.sizes, b.yaws, xyz(pts), mu, owner)
    assert mask.tolist() == [point_in_scaled_box(p, gts[gi], mu) for gi, p in rows]


# --- decode_boxes against a copy of the scalar decode_box/update_point -----


def reference_decode(p: Point3, d: Deltas):
    """(center, size, yaw) of decode_box(p, d), spelled out."""
    w, l, h = d.d1 + d.d2, d.d3 + d.d4, d.d5 + d.d6
    if not (w > 0.0 and l > 0.0 and h > 0.0):
        raise InvalidDeltasError(f"implied box size not positive: {(w, l, h)}")
    qx, qy, qz = (d.d2 - d.d1) / 2.0, (d.d4 - d.d3) / 2.0, (d.d6 - d.d5) / 2.0
    if d.heading == 0.0:
        center = (p.x - qx, p.y - qy, p.z - qz)
    else:
        c, s = math.cos(d.heading), math.sin(d.heading)
        center = (p.x - (c * qx - s * qy), p.y - (s * qx + c * qy), p.z - qz)
    yaw = (d.heading + math.pi) % (2.0 * math.pi) - math.pi
    if yaw >= math.pi:
        yaw -= 2.0 * math.pi
    return center, (w, l, h), yaw


# Face distances, including tiny and negative ones whose pair still sums > 0.
faces_st = st.one_of(st.floats(-1.0, 3.0), st.sampled_from([1e-300, 5e-324, 1e-12, 0.0, -0.0]))
headings = st.one_of(
    # nextafter(-pi, -4) wraps onto +pi and must come back to -pi.
    st.sampled_from([0.0, -0.0, math.pi, -math.pi, 2.0 * math.pi, -3.0 * math.pi,
                     math.nextafter(-math.pi, -4.0)]),
    st.floats(-math.pi, math.pi, exclude_max=True),
    st.floats(-50.0, 50.0),
)


@st.composite
def decodable_rows(draw):
    d = [draw(faces_st) for _ in range(6)]
    for a in (0, 2, 4):
        if not d[a] + d[a + 1] > 0.0:
            d[a + 1] = draw(st.sampled_from([5e-324, 1e-9, 0.5])) - d[a]
            assume(d[a] + d[a + 1] > 0.0)
    return Point3(draw(coords), draw(coords), draw(coords)), Deltas(*d, heading=draw(headings))


@SETTINGS
@given(st.lists(decodable_rows(), min_size=0, max_size=24))
def test_decode_boxes_equals_scalar(rows):
    pts = xyz(p for p, _ in rows)
    deltas = np.array([[*d.faces(), d.heading] for _, d in rows]).reshape(len(rows), 7)
    centers, sizes, yaws = raising(decode_boxes, pts, deltas)
    assert centers.shape == sizes.shape == (len(rows), 3) and yaws.shape == (len(rows),)
    for i, (p, d) in enumerate(rows):
        center, size, yaw = reference_decode(p, d)
        assert tuple(centers[i].tolist()) == center
        assert tuple(sizes[i].tolist()) == size
        assert yaws[i] == yaw
        assert -math.pi <= yaws[i] < math.pi


# Every finite heading, with the wrap's edge values drawn often.
finite_headings = st.one_of(
    st.sampled_from([math.pi, -math.pi, math.nextafter(-math.pi, -4.0), 0.0, -0.0,
                     5e-324, -5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@SETTINGS
@given(st.lists(finite_headings, min_size=1, max_size=24))
def test_decoded_yaw_is_a_fixed_point_of_normalize_yaw(headings):
    # NMS and AP footprints read the decoded yaw column as it is, while a kept
    # detection's OrientedBox normalizes it once more; the written boxes and
    # kept lists agree only if that second wrap changes no bit, sign of zero
    # included.
    deltas = np.ones((len(headings), 7))
    deltas[:, 6] = headings
    _, _, yaws = raising(decode_boxes, np.zeros((len(headings), 3)), deltas)
    for yaw in yaws.tolist():
        assert normalize_yaw(yaw).hex() == yaw.hex()
        assert OrientedBox(Point3(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), yaw).yaw.hex() == yaw.hex()


@SETTINGS
@given(st.lists(decodable_rows(), min_size=1, max_size=12), st.data())
def test_decode_boxes_rejects_first_non_positive_extent(rows, data):
    deltas = np.array([[*d.faces(), d.heading] for _, d in rows])
    bad = sorted(data.draw(st.sets(st.integers(0, len(rows) - 1), min_size=1)))
    for i in bad:
        axis = data.draw(st.integers(0, 2))
        gap = data.draw(st.sampled_from([0.0, 1e-9, 2.0]))
        deltas[i, 2 * axis + 1] = -deltas[i, 2 * axis] - gap
    with pytest.raises(InvalidDeltasError, match=f"^proposal {bad[0]}: implied box size"):
        decode_boxes(xyz(p for p, _ in rows), deltas)


def test_decode_boxes_rejects_box_beyond_max_coord():
    # Volumes and squared distances of such boxes would overflow downstream.
    deltas = np.ones((3, 7))
    deltas[:, 6] = 0.3
    pts = np.zeros((3, 3))
    raising(decode_boxes, pts, deltas)
    wide = deltas.copy()
    wide[1, 0:2] = 1e200
    with pytest.raises(InvalidDeltasError, match=r"^proposal 1: decoded box beyond 1e\+100"):
        decode_boxes(pts, wide)
    far = pts.copy()
    far[2, 1] = -2.0 * MAX_COORD
    with pytest.raises(InvalidDeltasError, match=r"^proposal 2: decoded box beyond"):
        decode_boxes(far, deltas)
    far[2, 1] = -0.5 * MAX_COORD
    assert decode_boxes(far, deltas)[0][2, 1] == pytest.approx(-0.5 * MAX_COORD)


# --- Boxes.of and the row view: columns of box rows, bit for bit ----------

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=5e-324, allow_infinity=False)


@st.composite
def class_boxes(draw):
    return OrientedBox(Point3(draw(finite), draw(finite), draw(finite)),
                       (draw(positive), draw(positive), draw(positive)), yaw=draw(finite),
                       class_id=draw(st.one_of(st.none(), st.integers(0, 2**62))))


def bits(box: OrientedBox) -> tuple:
    """The box's seven numbers as hex strings, so -0.0 and 0.0 differ, and its class."""
    nums = (box.center.x, box.center.y, box.center.z, *box.size, box.yaw)
    return tuple(float(v).hex() for v in nums), box.class_id


@SETTINGS
@given(st.lists(class_boxes(), max_size=12), st.integers(1, 5))
def test_boxes_of_rows_round_trips_through_detections(rows, stage):
    b = Boxes.of(rows)
    assert len(b) == len(rows)
    assert b.centers.shape == b.sizes.shape == (len(rows), 3) and b.yaws.shape == (len(rows),)
    assert b.class_ids.dtype == np.int64 and b.class_ids.shape == (len(rows),)
    assert same_bits(Boxes.of(list(b)), b)
    scores = np.linspace(0.0, 1.0, len(rows))
    dets = Detections(b.centers, b.sizes, b.yaws, b.class_ids, scores,
                      np.full(len(rows), stage))
    assert len(list(dets)) == len(rows)
    for i, (box, score) in enumerate(zip(rows, scores.tolist())):
        det = dets[i]
        k = -1 if box.class_id is None else box.class_id
        col = OrientedBox(Point3(*b.centers[i].tolist()), tuple(b.sizes[i].tolist()),
                          b.yaws[i], class_id=int(b.class_ids[i]))
        assert bits(col) == bits(dataclasses.replace(box, class_id=k))
        # The row view reads class -1 back as None.
        assert bits(det.box) == bits(b[i]) == bits(box)
        assert (det.class_id, det.score, det.stage) == (k, score, stage)
