"""Array kernels against their scalar oracles, by exact equality.

encode_deltas_array, centerness_array, matched_faces, decode_boxes,
match_points_to_gt and contains_points over owned rows replace per-point
loops over encode_deltas, centerness, decode_box, match_point_to_gt and
point_in_scaled_box on the seed-scoring, assignment, oracle,
stage-decoding, voting and cascade-statistics paths. Pipeline artifacts stay
byte-identical only if every row is bit-equal to the scalar result, so
these properties use ==, never a tolerance. The kernels run with
warnings raised as errors: a stray RuntimeWarning (say, sqrt of a
negative ratio computed and then masked out) fails the test.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cascadev.errors import InvalidDeltasError
from cascadev.geometry import (
    EPS,
    MAX_COORD,
    Deltas,
    OrientedBox,
    Point3,
    centerness,
    centerness_array,
    contains_points,
    decode_boxes,
    encode_deltas,
    encode_deltas_array,
    matched_faces,
    normalize_yaw,
    point_in_scaled_box,
)
from cascadev.synth import match_point_to_gt, match_points_to_gt

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
def test_encode_and_centerness_arrays_equal_scalar(data):
    box = data.draw(boxes())
    pts = data.draw(st.lists(probes(box), min_size=1, max_size=24))
    d = raising(encode_deltas_array, box, pts)
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
    got = raising(match_points_to_gt, pts, gts)
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
    got = raising(match_points_to_gt, pts, gts)
    assert got.tolist() == [match_point_to_gt(pts[0], gts)] == [0]


def test_containment_band_includes_exactly_minus_1e9():
    # With a half-width of 2**-31, the point below sits exactly -1e-9 outside
    # the thin box's +x face (checked on the scalar side first); one ulp
    # further out it leaves the band and falls to the enclosing box.
    thin = OrientedBox(Point3(0.0, 0.0, 0.0), (2.0**-30, 1.0, 1.0))
    big = OrientedBox(Point3(0.0, 0.0, 0.0), (4.0, 4.0, 4.0))
    x = 2.0**-31 + 1e-9
    assert encode_deltas(Point3(x, 0.0, 0.0), thin).d1 == -1e-9
    pts = [Point3(x, 0.0, 0.0), Point3(math.nextafter(x, 1.0), 0.0, 0.0)]
    assert [match_point_to_gt(p, [thin, big]) for p in pts] == [0, 1]
    assert raising(match_points_to_gt, pts, [thin, big]).tolist() == [0, 1]


def test_match_points_to_gt_empty_inputs():
    box = OrientedBox(Point3(0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    assert match_points_to_gt([], [box]).shape == (0,)
    assert match_points_to_gt(np.zeros((0, 3)), []).shape == (0,)
    with pytest.raises(ValueError):
        match_points_to_gt([box.center], [])


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
    faces, cent = raising(matched_faces, gts, pts, owner)
    assert faces.shape == (len(rows), 6) and cent.shape == (len(rows),)
    for i, (gi, p) in enumerate(rows):
        ref = encode_deltas(p, gts[gi])
        assert tuple(faces[i].tolist()) == ref.faces()
        assert cent[i] == centerness(ref)


@SETTINGS
@given(st.data(), st.sampled_from([0.5, 0.3]))
def test_contains_points_by_owner_equals_scalar(data, mu):
    gts, rows, owner, pts = owned_rows(data)
    columns = (np.array([g.center.as_array() for g in gts]), np.array([g.size for g in gts]),
               np.array([g.yaw for g in gts]))
    mask = raising(contains_points, *columns, pts, mu, EPS, owner)
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
    pts = [p for p, _ in rows]
    deltas = np.array([d.as_array() for _, d in rows]).reshape(len(rows), 7)
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
    deltas = np.array([d.as_array() for _, d in rows])
    bad = sorted(data.draw(st.sets(st.integers(0, len(rows) - 1), min_size=1)))
    for i in bad:
        axis = data.draw(st.integers(0, 2))
        gap = data.draw(st.sampled_from([0.0, 1e-9, 2.0]))
        deltas[i, 2 * axis + 1] = -deltas[i, 2 * axis] - gap
    with pytest.raises(InvalidDeltasError, match=f"^proposal {bad[0]}: implied box size"):
        decode_boxes([p for p, _ in rows], deltas)


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
