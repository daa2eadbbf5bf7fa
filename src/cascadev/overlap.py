"""3D box overlap (yaw-rotated IoU) and greedy NMS.

Rotated IoU is BEV footprint intersection area times vertical extent
overlap. The rule runs in this order: identical boxes score 1.0; boxes
whose z extents do not overlap, or whose centers lie farther apart than
the sum of their circumradii, score 0.0; otherwise one footprint (a
convex quadrilateral) is clipped against the other with
Sutherland-Hodgman, an area below 1e-12 counts as empty, and the IoU is
the intersection volume over the union. `pair_ious` is the one
implementation: it runs the rule over arrays of index pairs into box
columns for NMS, cascade statistics, AP matching and box placement, and
`iou_rotated` and `bev_intersection_area` are its one-pair cases.

NMS reads a `Detections` batch of columns and returns the greedy's kept
row indices from a few batched passes (see `nms`).

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import Boxes, OrientedBox, Point3

_AREA_EPS = 1e-12


@dataclass(frozen=True, slots=True)
class Detection:
    """A scored, classified box attributed to the decoder stage that produced it."""

    box: OrientedBox
    score: float
    class_id: int
    stage: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise ValueError(f"detection score outside [0, 1]: {self.score}")


@dataclass(frozen=True, slots=True, eq=False)
class Detections(Boxes):
    """Scored boxes as columns: the Boxes columns, then scores (N,) in [0, 1]."""

    scores: np.ndarray

    def rows(self, stage, index=slice(None)) -> list[Detection]:
        """Detection rows at index (default all), of stage: one int, or one per row."""
        cols = [c[index].tolist()
                for c in (self.centers, self.sizes, self.yaws, self.class_ids, self.scores)]
        stages = np.broadcast_to(stage, len(cols[-1])).tolist()
        return [
            Detection(OrientedBox(Point3(*c), tuple(size), yaw, class_id=k), p, k, st)
            for c, size, yaw, k, p, st in zip(*cols, stages)
        ]


# Corner order of a footprint: counterclockwise from (+w/2, +l/2).
_CORNER_SIGNS = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def _corner_array(boxes: Boxes) -> np.ndarray:
    """(N, 4, 2) footprint corners of boxes, counterclockwise.

    One stacked matmul runs the same per-box product as a single (4, 2)
    @ (2, 2), so every row is bit-equal to the one-box case.
    """
    local = (boxes.sizes[:, :2] / 2.0)[:, None, :] * _CORNER_SIGNS
    c = np.array([math.cos(yaw) for yaw in boxes.yaws.tolist()])
    s = np.array([math.sin(yaw) for yaw in boxes.yaws.tolist()])
    rot = np.stack([np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1)
    return local @ rot.transpose(0, 2, 1) + boxes.centers[:, None, :2]


def iou_mc(a: OrientedBox, b: OrientedBox, n_samples: int, seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo IoU estimate and its standard error.

    Samples uniformly inside box a, counts the fraction landing in b,
    converts the hit rate to an intersection volume, and propagates the
    binomial error through the IoU ratio. Slow by design; this is the
    measurement oracle the analytic IoU is validated against. n_samples
    must be an int of at least 1.
    """
    if (isinstance(n_samples, bool) or not isinstance(n_samples, (int, np.integer))
            or n_samples < 1):
        raise ValueError(f"n_samples must be an int of at least 1, got {n_samples!r}")
    rng = np.random.default_rng(seed)
    u = rng.random((3, n_samples))
    qx = (u[0] - 0.5) * a.size[0]
    qy = (u[1] - 0.5) * a.size[1]
    qz = (u[2] - 0.5) * a.size[2]
    # One composed transform takes a-frame samples straight into b's
    # frame: Rz(b)^T Rz(a) = Rz(a - b), plus the rotated center offset.
    c = math.cos(a.yaw - b.yaw)
    s = math.sin(a.yaw - b.yaw)
    cb = math.cos(b.yaw)
    sb = math.sin(b.yaw)
    dx = a.center.x - b.center.x
    dy = a.center.y - b.center.y
    tx = cb * dx + sb * dy
    ty = -sb * dx + cb * dy
    tz = a.center.z - b.center.z
    hits = (
        (np.abs(c * qx - s * qy + tx) <= b.size[0] / 2.0)
        & (np.abs(s * qx + c * qy + ty) <= b.size[1] / 2.0)
        & (np.abs(qz + tz) <= b.size[2] / 2.0)
    )
    p = float(np.mean(hits))
    inter = p * a.volume
    union = a.volume + b.volume - inter
    if union <= 0.0:
        return 0.0, 0.0
    iou = inter / union
    se_p = math.sqrt(max(p * (1.0 - p), 0.0) / n_samples)
    # d(iou)/d(inter) with union = volA + volB - inter:
    se_iou = (a.volume + b.volume) / union**2 * a.volume * se_p
    return iou, se_iou


# --- rotated IoU over index pairs ------------------------------------------

# Exact rounds before nms scores every open pair at once. On 1,536-row pooled
# scenes, 2 rounds leave 1k-4k of ~100k pairs open; running rounds to the end
# takes 20-40, and 2 measured fastest.
_EXACT_ROUNDS = 2
# Candidate pairs screened per array pass, which bounds nms's temporaries.
_PAIR_CHUNK = 1 << 14


class _Columns(NamedTuple):
    """What the rule needs of a box batch, as columns.

    key (N, 7) is each box's (x, y, z, w, l, h, yaw); cx and cy (4, N) are
    the _corner_array corners, one row per corner.
    """

    key: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z_lo: np.ndarray
    z_hi: np.ndarray
    radius: np.ndarray
    volume: np.ndarray


def _columns(boxes: Boxes) -> _Columns:
    corners = _corner_array(boxes)
    (x, y, z), h = boxes.centers.T, boxes.sizes[:, 2]
    radius = [math.hypot(w, l) / 2.0 for w, l in boxes.sizes[:, :2].tolist()]
    return _Columns(np.column_stack([boxes.centers, boxes.sizes, boxes.yaws]),
                    corners[:, :, 0].T.copy(), corners[:, :, 1].T.copy(), x, y,
                    z - h / 2.0, z + h / 2.0, np.array(radius, dtype=np.float64), boxes.volumes)


def _within_reach(dx: np.ndarray, dy: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """not math.hypot(dx, dy) > reach, elementwise.

    Squared distances decide every element where they clear reach**2 by a
    margin far above their rounding error; math.hypot decides the rest.
    (np.hypot is no substitute: it differs from math.hypot in the last bit.)
    """
    d2, r2 = dx * dx + dy * dy, reach * reach
    out = d2 < r2 * (1.0 - 1e-9) - 1e-300
    near = np.flatnonzero(~out & ~(d2 > r2 * (1.0 + 1e-9) + 1e-300))
    out[near] = [not math.hypot(u, v) > r
                 for u, v, r in zip(dx[near].tolist(), dy[near].tolist(), reach[near].tolist())]
    return out


def _clip_areas(x: np.ndarray, y: np.ndarray, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """BEV intersection areas of P footprint pairs; an area below 1e-12 is 0.

    x, y (4, P) are the subject corners and cx, cy (4, P) the clip corners,
    both counterclockwise. Sutherland-Hodgman runs on (K, P) vertex rows,
    the first n[p] valid in column p: per clip edge, the side test, t and
    intersection point run on every vertex at once, and each output vertex
    lands at the row a one-polygon loop would append it at, so every area
    is bit-equal to clipping that pair alone. The shoelace sum then runs in
    vertex order.
    """
    p = x.shape[1]
    col = np.arange(p)
    n = np.full(p, 4)
    for e in range(4):
        if not len(x):  # every polygon is empty
            break
        ax, ay = cx[e], cy[e]
        ex, ey = cx[(e + 1) % 4] - ax, cy[(e + 1) % 4] - ay
        side = ex * (y - ay) - ey * (x - ax)
        last = np.maximum(n - 1, 0)
        prev_side = np.empty_like(side)
        prev_side[1:] = side[:-1]
        prev_side[0] = side[last, col]
        valid = np.arange(len(x))[:, None] < n
        inside = (side >= 0.0) & valid
        cross = ((prev_side >= 0.0) != (side >= 0.0)) & valid
        count = inside.view(np.int8) + cross.view(np.int8)
        start = np.cumsum(count, axis=0, dtype=np.int64)
        n = start[-1].copy()
        start -= count
        xf, yf, sf, start = x.ravel(), y.ravel(), side.ravel(), start.ravel()
        width = n.max(initial=0)
        nx, ny = np.zeros(width * p), np.zeros(width * p)
        f = np.flatnonzero(cross)
        c = f % p
        pf = np.where(f < p, last[c] * p + c, f - p)  # each vertex's predecessor
        t = sf[pf] / (sf[pf] - sf[f])
        at = start[f] * p + c
        nx[at] = xf[pf] + t * (xf[f] - xf[pf])
        ny[at] = yf[pf] + t * (yf[f] - yf[pf])
        f = np.flatnonzero(inside)
        at = (start[f] + cross.ravel()[f]) * p + f % p
        nx[at], ny[at] = xf[f], yf[f]
        x, y = nx.reshape(width, p), ny.reshape(width, p)
    # Shoelace: vertex k pairs with k + 1, and the last valid one with vertex 0.
    last = np.maximum(n - 1, 0)
    xn, yn = np.empty_like(x), np.empty_like(y)
    xn[:-1], yn[:-1] = x[1:], y[1:]
    if len(x):
        xn[last, col], yn[last, col] = x[0], y[0]
    acc = np.zeros(p)
    for k in range(len(x)):
        acc = np.where(k < n, acc + (x[k] * yn[k] - xn[k] * y[k]), acc)
    area = np.abs(np.where(n >= 3, acc / 2.0, 0.0))
    return np.where(area < _AREA_EPS, 0.0, area)


def _ious(a: _Columns, ia: np.ndarray, b: _Columns, ib: np.ndarray) -> np.ndarray:
    """Rotated IoU of box a[ia[k]] with box b[ib[k]] for every k: the rule's
    exits in order, then one batched clip of the pairs still open."""
    out = (a.key[ia] == b.key[ib]).all(axis=1).astype(np.float64)
    oz = np.minimum(a.z_hi[ia], b.z_hi[ib]) - np.maximum(a.z_lo[ia], b.z_lo[ib])
    live = np.flatnonzero((out == 0.0) & (oz > 0.0))
    ja, jb = ia[live], ib[live]
    live = live[_within_reach(a.x[ja] - b.x[jb], a.y[ja] - b.y[jb], a.radius[ja] + b.radius[jb])]
    if not len(live):
        return out
    ja, jb = ia[live], ib[live]
    area = _clip_areas(a.cx[:, ja], a.cy[:, ja], b.cx[:, jb], b.cy[:, jb])
    inter = area * oz[live]
    union = a.volume[ja] + b.volume[jb] - inter
    nonzero = area > 0.0
    out[live[nonzero]] = inter[nonzero] / union[nonzero]
    return out


def pair_ious(a: Boxes, ia: np.ndarray, b: Boxes, ib: np.ndarray) -> np.ndarray:
    """Rotated IoU of box a[ia[k]] with box b[ib[k]] for every k, in array passes.

    a[ia[k]] is the clipped box and b[ib[k]] the clipping one; the clip is
    not bit-symmetric, so a caller that needs one order keeps it.
    """
    return _ious(_columns(a), ia, _columns(b), ib)


def _one_pair(a: OrientedBox, b: OrientedBox) -> tuple[_Columns, np.ndarray, np.ndarray]:
    """The columns of boxes a and b, and the index pair (a, b) into them."""
    return _columns(Boxes.of([a, b])), np.array([0]), np.array([1])


def iou_rotated(a: OrientedBox, b: OrientedBox) -> float:
    """Yaw-aware 3D IoU of two boxes: the batched rule on the one pair (a, b)."""
    cols, ia, ib = _one_pair(a, b)
    return float(_ious(cols, ia, cols, ib)[0])


def bev_intersection_area(a: OrientedBox, b: OrientedBox) -> float:
    """BEV intersection area of two boxes, a clipped against b; < 1e-12 is 0."""
    cols, ia, ib = _one_pair(a, b)
    return float(_clip_areas(cols.cx[:, ia], cols.cy[:, ia], cols.cx[:, ib], cols.cy[:, ib])[0])


def _candidate_pairs(cols: _Columns, class_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Same-class row pairs (a, b), a < b, that rotated IoU could score above 0.

    A pair is left out only where one of the rule's exits certainly
    ends it at 0: z overlap not above 0 (unless the boxes are identical),
    or a center gap beyond the circumradius sum. A sort-and-sweep on x
    per class lists the pairs whose x gap is within the row's circumradius
    plus the class's largest; the window's margin covers rounding, so the
    pairs it skips fail the circumradius exit. The listed ones are screened
    _PAIR_CHUNK at a time.
    """
    n = len(class_ids)
    perm = np.lexsort((cols.x, class_ids)).astype(np.int32)
    cls, x, y = class_ids[perm], cols.x[perm], cols.y[perm]
    z_lo, z_hi, r = cols.z_lo[perm], cols.z_hi[perm], cols.radius[perm]
    flat = ~(z_hi > z_lo)
    end = np.empty(n, dtype=np.int64)
    edges = np.flatnonzero(np.diff(cls)) + 1
    for lo, hi in zip([0, *edges.tolist()], [*edges.tolist(), n]):
        xs, rs = x[lo:hi], r[lo:hi]
        window = (rs + rs.max()) * (1.0 + 1e-9) + 1e-9 * np.abs(xs)
        end[lo:hi] = lo + np.searchsorted(xs, xs + window, side="right")
    count = end - np.arange(1, n + 1)
    before = np.cumsum(count) - count
    out_a, out_b = [np.empty(0, dtype=np.int32)], [np.empty(0, dtype=np.int32)]
    i0 = 0
    while i0 < n:
        i1 = max(i0 + 1, int(np.searchsorted(before, before[i0] + _PAIR_CHUNK)))
        c = count[i0:i1]
        f = np.repeat(np.arange(i0, i1), c)
        s = np.arange(len(f)) + np.repeat(np.arange(i0 + 1, i1 + 1) - (np.cumsum(c) - c), c)
        oz = np.minimum(z_hi[f], z_hi[s]) - np.maximum(z_lo[f], z_lo[s])
        ok = oz > 0.0
        if flat[i0:i1].any():  # identical zero-height boxes still score 1.0
            ok |= flat[f] & (cols.key[perm[f]] == cols.key[perm[s]]).all(axis=1)
        f, s = f[ok], s[ok]
        ok = _within_reach(x[f] - x[s], y[f] - y[s], r[f] + r[s])
        f, s = perm[f[ok]], perm[s[ok]]
        out_a.append(np.minimum(f, s))
        out_b.append(np.maximum(f, s))
        i0 = i1
    return np.concatenate(out_a), np.concatenate(out_b)


def nms(dets: Detections, iou_threshold: float) -> list[int]:
    """Greedy class-wise NMS; returns kept row indices into dets.

    Detections are visited by descending score (ties by lower row
    index); one is suppressed iff its rotated IoU with an already-kept
    detection of the same class strictly exceeds the threshold.

    The greedy's decisions come from a few batched IoU calls. Rows are
    ranked by visit order, and candidate pairs are the same-class pairs
    rotated IoU could score above 0. Each of _EXACT_ROUNDS rounds keeps
    every open row with no open higher-ranked partner, then suppresses
    that row's open partners above the threshold, as the greedy would.
    One more call scores the pairs still open, and the greedy finishes in
    rank order on those verdicts. A row's fate depends only on the kept
    rows ranked above it that it could overlap, and every IoU is the
    greedy's (higher-ranked, lower-ranked) one bit for bit, so the kept
    list is the greedy's exactly.
    """
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError(f"NMS IoU threshold must lie in (0, 1), got {iou_threshold}")
    if not len(dets):
        return []
    order = np.argsort(-dets.scores, kind="stable")
    n = len(order)
    ranked = Boxes(dets.centers[order], dets.sizes[order], dets.yaws[order],
                   dets.class_ids[order])
    cols = _columns(ranked)
    a, b = _candidate_pairs(cols, ranked.class_ids)
    fate = np.zeros(n, dtype=np.int8)  # by rank: 0 open, 1 kept, -1 suppressed
    for _ in range(_EXACT_ROUNDS):
        blocked = np.zeros(n, dtype=bool)
        blocked[b] = True
        keep = (fate == 0) & ~blocked
        fate[keep] = 1
        test = keep[a]
        hit = _ious(cols, a[test], cols, b[test]) > iou_threshold
        fate[b[test][hit]] = -1
        still_open = (fate[a] == 0) & (fate[b] == 0)
        a, b = a[still_open], b[still_open]
    hit = _ious(cols, a, cols, b) > iou_threshold
    suppressors: dict[int, list[int]] = {}
    for lo, hi in zip(b[hit].tolist(), a[hit].tolist()):
        suppressors.setdefault(lo, []).append(hi)
    fate = fate.tolist()
    for r in range(n):
        if fate[r] == 0:
            fate[r] = -1 if any(fate[s] == 1 for s in suppressors.get(r, ())) else 1
    return [i for i, f in zip(order.tolist(), fate) if f == 1]
