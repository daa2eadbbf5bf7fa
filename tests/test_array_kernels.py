"""Array kernels against their scalar oracles, by exact equality.

encode_deltas_array, centerness_array and match_points_to_gt replace
per-point loops over encode_deltas, centerness and match_point_to_gt on
the seed-scoring and cascade-statistics paths. Pipeline artifacts stay
byte-identical only if every row is bit-equal to the scalar result, so
these properties use ==, never a tolerance. The kernels run with
warnings raised as errors: a stray RuntimeWarning (say, sqrt of a
negative ratio computed and then masked out) fails the test.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadev.geometry import (
    Deltas,
    OrientedBox,
    Point3,
    centerness,
    centerness_array,
    encode_deltas,
    encode_deltas_array,
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
