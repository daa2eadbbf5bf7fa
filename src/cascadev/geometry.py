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
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDeltasError

EPS = 1e-9

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

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)

    @staticmethod
    def from_array(a) -> "Point3":
        return Point3(float(a[0]), float(a[1]), float(a[2]))


@dataclass(frozen=True, slots=True)
class OrientedBox:
    """A 7-DoF oriented box: center, (w, l, h) size, yaw about z.

    Optionally carries a class id and a score so the same type can
    serve as ground truth and as prediction.
    """

    center: Point3
    size: tuple[float, float, float]
    yaw: float = 0.0
    class_id: int | None = None
    score: float | None = None

    def __post_init__(self) -> None:
        w, l, h = self.size
        if not (w > 0.0 and l > 0.0 and h > 0.0):
            raise ValueError(f"box size must be positive, got {self.size}")
        object.__setattr__(self, "yaw", normalize_yaw(float(self.yaw)))
        if self.score is not None and not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score outside [0, 1]: {self.score}")

    @property
    def volume(self) -> float:
        w, l, h = self.size
        return w * l * h

    def with_meta(self, class_id: int | None = None, score: float | None = None) -> "OrientedBox":
        return OrientedBox(self.center, self.size, self.yaw, class_id=class_id, score=score)


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

    def as_array(self) -> np.ndarray:
        """Seven-vector layout (d1..d6, heading)."""
        return np.array(
            [self.d1, self.d2, self.d3, self.d4, self.d5, self.d6, self.heading],
            dtype=np.float64,
        )

    @staticmethod
    def from_array(a) -> "Deltas":
        return Deltas(*(float(v) for v in a[:6]), heading=float(a[6]) if len(a) > 6 else 0.0)


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


def centerness(d: Deltas) -> float:
    """Normalized closeness of a point to its box center, in [0, 1].

    Defined as sqrt of the product of min/max ratios of the three
    opposite face-distance pairs. Zero whenever any distance is <= 0
    (the point sits on a face or outside the box); one exactly when
    all three pairs are balanced. On-face is judged within EPS, so a
    point constructed on a face stays at zero under roundoff instead
    of ranking above other face points by floating-point dust.
    """
    fs = d.faces()
    if min(fs) <= EPS:
        return 0.0
    r1 = min(d.d1, d.d2) / max(d.d1, d.d2)
    r2 = min(d.d3, d.d4) / max(d.d3, d.d4)
    r3 = min(d.d5, d.d6) / max(d.d5, d.d6)
    return math.sqrt(r1 * r2 * r3)


def point_in_scaled_box(p: Point3, box: OrientedBox, mu: float) -> bool:
    """Membership of p in the box scaled by mu around its center.

    The test is |q_axis| <= mu * extent_axis in the canonical frame,
    boundary inclusive (within EPS). mu = 0.5 is ordinary point-in-box
    membership; smaller values keep only points near the center.
    """
    if mu <= 0.0:
        raise ValueError(f"scale threshold must be positive, got {mu}")
    qx, qy, qz = _to_canonical(p, box)
    w, l, h = box.size
    return (
        abs(qx) <= mu * w + EPS
        and abs(qy) <= mu * l + EPS
        and abs(qz) <= mu * h + EPS
    )


# Vectorized helpers. Bulk geometry (voting masks, Monte-Carlo overlap,
# scene generation, seed scoring, cascade statistics) goes through these
# instead of the scalar API: canonical_coords, contains_points,
# encode_deltas_array and centerness_array. The array kernels repeat the
# scalar arithmetic operation for operation, so their results are
# bit-identical to encode_deltas and centerness row by row.


def points_as_array(points) -> np.ndarray:
    """Accept a list of Point3 or an (N, 3) array; return an (N, 3) float array."""
    if isinstance(points, np.ndarray):
        a = np.asarray(points, dtype=np.float64)
        if a.ndim != 2 or a.shape[1] != 3:
            raise ValueError(f"expected an (N, 3) array, got shape {a.shape}")
        return a
    out = np.empty((len(points), 3))
    for axis, name in enumerate("xyz"):
        out[:, axis] = np.fromiter(map(operator.attrgetter(name), points), np.float64, len(points))
    return out


def canonical_coords(box: OrientedBox, points) -> np.ndarray:
    """Canonical-frame coordinates of many points at once, shape (N, 3)."""
    pts = points_as_array(points)
    rel = pts - np.array([box.center.x, box.center.y, box.center.z])
    if box.yaw == 0.0:
        return rel
    c = math.cos(box.yaw)
    s = math.sin(box.yaw)
    out = np.empty_like(rel)
    out[:, 0] = c * rel[:, 0] + s * rel[:, 1]
    out[:, 1] = -s * rel[:, 0] + c * rel[:, 1]
    out[:, 2] = rel[:, 2]
    return out


def encode_deltas_array(box: OrientedBox, points) -> np.ndarray:
    """Face distances (d1..d6) of many points against one box, shape (N, 6).

    Row i equals encode_deltas(points[i], box).faces(); the heading is
    box.yaw for every row and is left out.
    """
    q = canonical_coords(box, points)
    # Built column by column and returned as a transposed view, so the
    # row-wise min of a caller's containment test is a fast reduction.
    out = np.empty((6, len(q)))
    for axis, extent in enumerate(box.size):
        half = extent / 2.0
        out[2 * axis] = half - q[:, axis]
        out[2 * axis + 1] = q[:, axis] + half
    return out.T


def centerness_array(d: np.ndarray) -> np.ndarray:
    """Row-wise centerness of an (N, 6) face-distance array, shape (N,).

    Row i equals centerness(Deltas(*d[i])): zero where any distance is
    <= EPS, and only the other rows reach the ratios and the sqrt.
    """
    out = np.zeros(len(d))
    inside = d.min(axis=1) > EPS
    f = d[inside]
    r1, r2, r3 = (np.minimum(f[:, a], f[:, a + 1]) / np.maximum(f[:, a], f[:, a + 1])
                  for a in (0, 2, 4))
    out[inside] = np.sqrt(r1 * r2 * r3)
    return out


def contains_points(box: OrientedBox, points, mu: float = 0.5, eps: float = EPS) -> np.ndarray:
    """Vectorized scaled-box membership; returns a boolean (N,) mask."""
    q = canonical_coords(box, points)
    half = np.array(box.size) * mu + eps
    return np.all(np.abs(q) <= half, axis=1)
