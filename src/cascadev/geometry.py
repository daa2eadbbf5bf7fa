"""Oriented 3D boxes and the point-based box parametrization.

Conventions used throughout the package:

* World frame: right-handed, z up, coordinates in meters.
* A box is (center, size, yaw) with size = (w, l, h) along the box's
  local x/y/z axes. yaw rotates the local frame about world z and is
  normalized to [-pi, pi).
* The regression target of a point against a box is the six distances
  from the point to the box faces, measured in the box's canonical
  frame (the point is rotated by -yaw about the box center before the
  distances are taken):

      d1 = w/2 - qx      d2 = qx + w/2
      d3 = l/2 - qy      d4 = qy + l/2
      d5 = h/2 - qz      d6 = qz + h/2

  where (qx, qy, qz) are the point's canonical-frame coordinates.
  All six are positive strictly inside the box, zero on a face,
  negative outside, and opposite pairs sum to the box extent on that
  axis. A heading angle rides along with the six distances so a box
  can be reconstructed from them.
* Centerness of a point is the geometric mean of the three min/max
  face-distance ratios: 1 at the box center, 0 on any face or outside.
* All geometric comparisons use an absolute epsilon of 1e-9 scene
  units (EPS below).

Everything here is a pure function of its arguments and safe to call
from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDeltasError

EPS = 1e-9
# Largest decoded center coordinate or extent: volumes and squared distances stay finite.
MAX_COORD = 1e100
# Relative widening of near_pairs' reach: far above the ~1e-15 relative rounding
# of rotated coordinates. A wider window only adds candidates for the exact test.
_SLACK = 1e-12

_TWO_PI = 2.0 * math.pi


def normalize_yaw(yaw: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    wrapped = (yaw + math.pi) % _TWO_PI - math.pi
    # The modulo can land exactly on +pi for inputs like -pi - 2^-52.
    if wrapped >= math.pi:
        wrapped -= _TWO_PI
    return wrapped


@dataclass(frozen=True, slots=True)
class Point3:
    """A 3D point in world coordinates (meters)."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError(f"non-finite point coordinates: {(self.x, self.y, self.z)}")


@dataclass(frozen=True, slots=True)
class OrientedBox:
    """A 7-DoF oriented box: center, (w, l, h) size, yaw about z, optional class id.

    A detection's score lives on overlap.Detection, not on its box.
    """

    center: Point3
    size: tuple[float, float, float]
    yaw: float = 0.0
    class_id: int | None = None

    def __post_init__(self) -> None:
        w, l, h = self.size
        if not (0.0 < w < math.inf and 0.0 < l < math.inf and 0.0 < h < math.inf):
            raise ValueError(f"box size must be positive and finite, got {self.size}")
        if not math.isfinite(self.yaw):
            raise ValueError(f"non-finite box yaw: {self.yaw}")
        object.__setattr__(self, "yaw", normalize_yaw(float(self.yaw)))

    @property
    def volume(self) -> float:
        w, l, h = self.size
        return w * l * h


@dataclass(frozen=True, slots=True)
class Deltas:
    """Six face distances plus a heading angle.

    Opposite pairs (d1, d2), (d3, d4), (d5, d6) sum to the box extent
    on their axis when encoded from a box; individual values may be
    negative for points outside the box.
    """

    d1: float
    d2: float
    d3: float
    d4: float
    d5: float
    d6: float
    heading: float = 0.0

    def faces(self) -> tuple[float, float, float, float, float, float]:
        return (self.d1, self.d2, self.d3, self.d4, self.d5, self.d6)


def _to_canonical(p: Point3, box: OrientedBox) -> tuple[float, float, float]:
    """Coordinates of p in the box's canonical (yaw-derotated) frame."""
    dx = p.x - box.center.x
    dy = p.y - box.center.y
    dz = p.z - box.center.z
    if box.yaw == 0.0:
        return dx, dy, dz
    c = math.cos(box.yaw)
    s = math.sin(box.yaw)
    return c * dx + s * dy, -s * dx + c * dy, dz


def encode_deltas(p: Point3, box: OrientedBox) -> Deltas:
    """Face distances of a point against a box, taken in the box's canonical frame.

    Points outside the box yield negative components; callers decide
    what to do with those.
    """
    qx, qy, qz = _to_canonical(p, box)
    w, l, h = box.size
    return Deltas(
        d1=w / 2.0 - qx,
        d2=qx + w / 2.0,
        d3=l / 2.0 - qy,
        d4=qy + l / 2.0,
        d5=h / 2.0 - qz,
        d6=qz + h / 2.0,
        heading=box.yaw,
    )


def decode_box(p: Point3, d: Deltas) -> OrientedBox:
    """Reconstruct the box whose face distances from p are d.

    Raises InvalidDeltasError when an opposite pair sums to a
    non-positive extent.
    """
    w = d.d1 + d.d2
    l = d.d3 + d.d4
    h = d.d5 + d.d6
    if not (w > 0.0 and l > 0.0 and h > 0.0):
        raise InvalidDeltasError(f"implied box size not positive: {(w, l, h)}")
    return OrientedBox(center=update_point(p, d), size=(w, l, h), yaw=d.heading)


def update_point(p: Point3, d: Deltas) -> Point3:
    """Move a point onto the center of the box its face distances describe.

    Symmetric distances (d1 = d2 and so on) leave the point unchanged.
    This is the per-stage proposal-point update of the cascade decoder.
    """
    qx = (d.d2 - d.d1) / 2.0
    qy = (d.d4 - d.d3) / 2.0
    qz = (d.d6 - d.d5) / 2.0
    if d.heading == 0.0:
        return Point3(p.x - qx, p.y - qy, p.z - qz)
    c = math.cos(d.heading)
    s = math.sin(d.heading)
    return Point3(p.x - (c * qx - s * qy), p.y - (s * qx + c * qy), p.z - qz)


@dataclass(frozen=True, slots=True, eq=False)
class Boxes:
    """Boxes as columns, row i being box i: centers (N, 3), sizes (N, 3), yaws (N,)
    and class_ids (N,) int64, -1 for a box with no class; boxes[i] is row i as an
    OrientedBox, class -1 read back as None."""

    centers: np.ndarray
    sizes: np.ndarray
    yaws: np.ndarray
    class_ids: np.ndarray

    def __len__(self) -> int:
        return len(self.yaws)

    def __getitem__(self, i: int) -> OrientedBox:
        k = self.class_ids.item(i)
        return OrientedBox(Point3(*self.centers[i].tolist()), tuple(self.sizes[i].tolist()),
                           self.yaws.item(i), None if k < 0 else k)

    @property
    def volumes(self) -> np.ndarray:
        """(N,) w * l * h, as OrientedBox.volume computes it."""
        return self.sizes[:, 0] * self.sizes[:, 1] * self.sizes[:, 2]

    @classmethod
    def of(cls, rows: list[OrientedBox]) -> "Boxes":
        """The columns of a box list."""
        return cls(
            np.array([(b.center.x, b.center.y, b.center.z) for b in rows], dtype=np.float64)
            .reshape(-1, 3),
            np.array([b.size for b in rows], dtype=np.float64).reshape(-1, 3),
            np.array([b.yaw for b in rows], dtype=np.float64),
            np.array([-1 if b.class_id is None else b.class_id for b in rows], dtype=np.int64),
        )


# Vectorized helpers. Bulk geometry (voting masks, scene generation, seed
# scoring, the oracle predictor, target assignment, cascade statistics,
# stage decoding) goes through near_pairs, canonical_coords, contains_points,
# face_distances, centerness_array, matched_faces and decode_boxes, on (N, 3)
# point arrays. canonical_coords and contains_points take box columns and an
# owner index naming each point's box; near_pairs lists the pairs worth testing.
# The kernels repeat the scalar arithmetic operation for operation, so their
# results are bit-identical to encode_deltas and decode_box row by row.


def points_as_array(points) -> np.ndarray:
    """points as an (N, 3) float array; ValueError for any other shape."""
    a = np.asarray(points, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) array, got shape {a.shape}")
    return a


def canonical_coords(centers, yaws, points, owner) -> np.ndarray:
    """(N, 3) coordinates of row i of points in the frame of box owner[i] of the
    (B, 3) centers and (B,) yaws columns."""
    pts = points_as_array(points)
    # cos and sin once per box. A zero yaw's c = 1, s = 0 keep rel exact.
    rel = pts - np.asarray(centers)[owner]
    yaws = np.asarray(yaws).tolist()
    c = np.array([math.cos(h) for h in yaws])[owner]
    s = np.array([math.sin(h) for h in yaws])[owner]
    out = np.empty_like(rel)
    out[:, 0] = c * rel[:, 0] + s * rel[:, 1]
    out[:, 1] = -s * rel[:, 0] + c * rel[:, 1]
    out[:, 2] = rel[:, 2]
    return out


def face_distances(q: np.ndarray, half: np.ndarray) -> np.ndarray:
    """(N, 6) face distances from canonical coordinates q and half extents,
    one (3,) triple for all rows or an (N, 3) array with one per row."""
    # Built column by column and returned as a transposed view, so the
    # row-wise min of a caller's containment test is a fast reduction.
    out = np.empty((6, len(q)))
    for axis in range(3):
        out[2 * axis] = half[..., axis] - q[:, axis]
        out[2 * axis + 1] = q[:, axis] + half[..., axis]
    return out.T


def centerness_array(d: np.ndarray) -> np.ndarray:
    """Row-wise centerness of an (N, 6) face-distance array, shape (N,).

    Row i is zero where any distance is <= EPS (on a face or outside),
    else the sqrt of the three opposite pairs' min/max ratios' product;
    only the rows inside reach the ratios and the sqrt.
    """
    out = np.zeros(len(d))
    inside = d.min(axis=1) > EPS
    f = d[inside]
    r1, r2, r3 = (np.minimum(f[:, a], f[:, a + 1]) / np.maximum(f[:, a], f[:, a + 1])
                  for a in (0, 2, 4))
    out[inside] = np.sqrt(r1 * r2 * r3)
    return out


def matched_faces(boxes: Boxes, points, owner: np.ndarray):
    """Face distances of each row against box owner[row], and their centerness.

    Returns an (N, 6) array and an (N,) array; every owner entry must
    index boxes. Row i equals encode_deltas(points[i], box owner[i])
    and its centerness. Each row gathers its box's center, half extents
    and cos/sin, so all rows are computed together whatever the box count.
    """
    q = canonical_coords(boxes.centers, boxes.yaws, points, owner)
    faces = face_distances(q, (boxes.sizes / 2.0)[owner])
    return faces, centerness_array(faces)


def decode_boxes(points, deltas: np.ndarray):
    """decode_box over rows: (B, 3) centers, (B, 3) sizes and (B,) yaws.

    Row i equals decode_box(points[i], Deltas(*deltas[i])). Raises
    InvalidDeltasError naming the first row whose implied size is not positive,
    or else the first whose center or size reaches beyond MAX_COORD.
    """
    pts = points_as_array(points)
    d = np.asarray(deltas, dtype=np.float64).reshape(len(pts), 7)
    sizes = d[:, 0:6:2] + d[:, 1:6:2]
    bad = np.flatnonzero(~(sizes > 0.0).all(axis=1))
    if len(bad):
        raise InvalidDeltasError(f"proposal {bad[0]}: implied box size not positive: "
                                 f"{tuple(sizes[bad[0]].tolist())}")
    q = (d[:, 1:6:2] - d[:, 0:6:2]) / 2.0
    centers = pts - q
    # update_point rotates the offset only for a non-zero heading.
    rot = np.flatnonzero(d[:, 6] != 0.0)
    c = np.array([math.cos(h) for h in d[rot, 6].tolist()])
    s = np.array([math.sin(h) for h in d[rot, 6].tolist()])
    centers[rot, 0] = pts[rot, 0] - (c * q[rot, 0] - s * q[rot, 1])
    centers[rot, 1] = pts[rot, 1] - (s * q[rot, 0] + c * q[rot, 1])
    far = np.flatnonzero(~((np.abs(centers) <= MAX_COORD) & (sizes <= MAX_COORD)).all(axis=1))
    if len(far):
        raise InvalidDeltasError(f"proposal {far[0]}: decoded box beyond {MAX_COORD:g}: center "
                                 f"{centers[far[0]].tolist()}, size {sizes[far[0]].tolist()}")
    # normalize_yaw, row by row.
    yaws = np.remainder(d[:, 6] + math.pi, _TWO_PI) - math.pi
    yaws[yaws >= math.pi] -= _TWO_PI
    return centers, sizes, yaws


def contains_points(centers, sizes, yaws, points, mu: float, owner) -> np.ndarray:
    """(N,) mask: row i of points lies in box owner[i] of these columns scaled by mu."""
    q = canonical_coords(centers, yaws, points, owner)
    half = np.asarray(sizes) * mu + EPS
    return np.all(np.abs(q) <= half[owner], axis=1)


def near_pairs(points, boxes: Boxes, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """(box, row) index pairs, sorted by box then row: for each box, a superset of
    the rows of the (N, 3) points that contains_points at mu can hold.

    The points' x are sorted once, and each box takes by searchsorted the rows
    whose x lies within reach of its center's: the xy circumradius of its
    size*mu + EPS, widened by _SLACK. Those within reach on y and within the half
    height on z stay. A held row's x gap is below reach and rounding is monotone,
    so its x lies within the rounded center x +- reach, however far out it is.
    """
    pts = points_as_array(points)
    n = len(pts)
    half = boxes.sizes * mu + EPS
    reach = np.hypot(half[:, 0], half[:, 1]) * (1.0 + _SLACK)
    cx, cy, cz = boxes.centers.T
    x, y, z = pts.T
    order = np.argsort(x)
    xs = x[order]
    lo = np.searchsorted(xs, cx - reach, side="left")
    count = np.searchsorted(xs, cx + reach, side="right") - lo
    box = np.repeat(np.arange(len(boxes)), count)
    row = order[np.arange(len(box)) + np.repeat(lo - (np.cumsum(count) - count), count)]
    near = np.flatnonzero((np.abs(y[row] - cy[box]) <= reach[box])
                          & (np.abs(z[row] - cz[box]) <= half[box, 2]))
    key = np.sort(box[near] * n + row[near])
    return key // n, key % n
