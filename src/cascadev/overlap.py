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
row indices from a few batched passes (see `nms`). It lists and scores
only the pairs its greedy can still use: passes over the highest-ranked
open rows decide most rows first, and only the rows left get every pair
among them listed. The pipeline keeps detections as that batch; a
`Detection` row is only the view `dets[i]`, which the file writers read.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import Boxes, OrientedBox, cos_sin

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
    """Scored boxes as columns: the Boxes columns, then scores (N,) in [0, 1] and
    stages (N,) int64, each row's decoder stage; dets[i] is row i as a Detection."""

    scores: np.ndarray
    stages: np.ndarray

    def __getitem__(self, i: int) -> Detection:
        # Zero-argument super() fails in a slots dataclass, so name the base.
        return Detection(Boxes.__getitem__(self, i), self.scores.item(i),
                         self.class_ids.item(i), self.stages.item(i))


# Corner order of a footprint: counterclockwise from (+w/2, +l/2).
_CORNER_SIGNS = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def _corner_array(boxes: Boxes) -> np.ndarray:
    """(N, 4, 2) footprint corners of boxes, counterclockwise.

    One stacked matmul runs the same per-box product as a single (4, 2)
    @ (2, 2), so every row is bit-equal to the one-box case.
    """
    local = (boxes.sizes[:, :2] / 2.0)[:, None, :] * _CORNER_SIGNS
    c, s = cos_sin(boxes.yaws)
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

# Open rows that one prefix pass of nms decides over; nms runs passes while
# more rows than this are open. On 1,536-row pooled scenes one pass leaves
# 280-360 open at IoU 0.25; 256 and 768 measured no faster.
_PREFIX = 512
# Exact rounds before nms scores every pair among the last open rows at
# once. 2 leave 1k-4k pairs for that call, and 1 or 2 measured fastest. A
# round costs about one _ious call's fixed cost, what clipping a few hundred
# pairs costs, so the rounds stop once at most _ROUND_PAIRS pairs are open.
_EXACT_ROUNDS = 2
_ROUND_PAIRS = 512
# Candidate pairs screened per array pass, which bounds nms's temporaries.
_PAIR_CHUNK = 1 << 14
# Pairs clipped per _clip_areas call. Its per-vertex arrays then stay in
# cache: 20,000 pairs clipped 4,096 at a time took 12 ms, at once 22 ms.
_CLIP_CHUNK = 1 << 12


class _Columns(NamedTuple):
    """What the rule needs of a box batch, as columns.

    key (N, 7) is each box's (x, y, z, w, l, h, yaw); corners (N, 4, 2)
    is _corner_array's.
    """

    key: np.ndarray
    corners: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z_lo: np.ndarray
    z_hi: np.ndarray
    radius: np.ndarray
    volume: np.ndarray


def _columns(boxes: Boxes) -> _Columns:
    (x, y, z), h = boxes.centers.T, boxes.sizes[:, 2]
    w, l = boxes.sizes[:, :2].T.tolist()
    radius = np.fromiter(map(math.hypot, w, l), dtype=np.float64, count=len(w)) / 2.0
    return _Columns(np.column_stack([boxes.centers, boxes.sizes, boxes.yaws]),
                    _corner_array(boxes), x, y,
                    z - h / 2.0, z + h / 2.0, radius, boxes.volumes)


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


def _clip_areas(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """BEV intersection areas of P footprint pairs; an area below 1e-12 is 0.

    subject and clip (P, 4, 2) are each pair's _corner_array corners.
    Sutherland-Hodgman runs on every polygon's vertices at once, held back
    to back (n[p] vertices of polygon p). Per clip edge, the side test and
    the crossing points run on every vertex at once, and one gather of the
    interleaved (crossing point, vertex) slots emits each polygon's
    vertices in the order a one-polygon loop appends them, so every area
    is bit-equal to clipping that pair alone. The shoelace sum then runs
    in vertex order.
    """
    p = len(subject)
    n = np.full(p, 4)
    owner = np.repeat(np.arange(p), 4)  # each vertex's polygon
    # Per clip edge and pair: the edge's start (y, x), then its direction (ex, ey).
    corners = np.ascontiguousarray(clip.transpose(1, 0, 2))
    edges = np.empty((4, p, 4))
    edges[:, :, :2] = corners[:, :, ::-1]
    np.subtract(corners[1:], corners[:3], out=edges[:3, :, 2:])
    np.subtract(corners[0], corners[3], out=edges[3, :, 2:])
    xy = np.ascontiguousarray(subject.reshape(-1, 2).T)
    for e in range(4):
        v = xy.shape[1]
        if not v:  # every polygon is empty
            break
        ay, ax, ex, ey = np.take(edges[e], owner, axis=0).T
        side = ex * (xy[1] - ay) - ey * (xy[0] - ax)
        prev = _predecessors(n, v)
        emits = np.empty((v, 2), dtype=bool)  # a crossing point, then the vertex
        inside = np.greater_equal(side, 0.0, out=emits[:, 1])
        f = np.flatnonzero(np.not_equal(inside, inside[prev], out=emits[:, 0]))
        pf = prev[f]
        t = side[pf] / (side[pf] - side[f])
        before = np.take(xy, pf, axis=1)
        slots = np.empty((2, v, 2))
        slots[:, :, 1] = xy
        slots[:, f, 0] = before + t * (np.take(xy, f, axis=1) - before)
        out = np.flatnonzero(emits)
        owner = owner[out >> 1]
        n = np.bincount(owner, minlength=p)
        xy = np.take(slots.reshape(2, -1), out, axis=1)
    # Shoelace: vertex k pairs with k + 1, and the last one with vertex 0,
    # summed in vertex order down the (K, P) rows.
    v = xy.shape[1]
    nxt = np.empty(v, dtype=np.int64)
    nxt[_predecessors(n, v)] = np.arange(v)
    x, y = xy
    terms = np.zeros((n.max(initial=0), p))
    terms.reshape(-1)[(np.arange(v) - (np.cumsum(n) - n)[owner]) * p + owner] = (
        x * y[nxt] - x[nxt] * y)
    acc = np.zeros(p)
    for term in terms:
        acc = acc + term
    area = np.abs(np.where(n >= 3, acc / 2.0, 0.0))
    return np.where(area < _AREA_EPS, 0.0, area)


def _predecessors(n: np.ndarray, v: int) -> np.ndarray:
    """Each vertex's predecessor in its polygon, for polygons of n[p] vertices
    held back to back (v in all): the one before it, and the last for the first."""
    prev = np.arange(-1, v - 1)
    full = np.flatnonzero(n)
    prev[(np.cumsum(n) - n)[full]] += n[full]
    return prev


def _ious(a: _Columns, ia: np.ndarray, b: _Columns, ib: np.ndarray) -> np.ndarray:
    """Rotated IoU of box a[ia[k]] with box b[ib[k]] for every k: the rule's
    exits in order, then batched clips of the pairs still open."""
    out = (a.key[ia] == b.key[ib]).all(axis=1).astype(np.float64)
    oz = np.minimum(a.z_hi[ia], b.z_hi[ib]) - np.maximum(a.z_lo[ia], b.z_lo[ib])
    live = np.flatnonzero((out == 0.0) & (oz > 0.0))
    ja, jb = ia[live], ib[live]
    live = live[_within_reach(a.x[ja] - b.x[jb], a.y[ja] - b.y[jb], a.radius[ja] + b.radius[jb])]
    if not len(live):
        return out
    ja, jb = ia[live], ib[live]
    area = np.concatenate([_clip_areas(a.corners[ja[i:i + _CLIP_CHUNK]],
                                       b.corners[jb[i:i + _CLIP_CHUNK]])
                           for i in range(0, len(ja), _CLIP_CHUNK)])
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
    return float(_clip_areas(cols.corners[ia], cols.corners[ib])[0])


def _candidate_pairs(cols: _Columns, class_ids: np.ndarray, left: np.ndarray,
                     right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Same-class row pairs (a, b), a in left and b in right, a < b, that
    rotated IoU could score above 0.

    A pair is left out only where one of the rule's exits certainly
    ends it at 0: z overlap not above 0 (unless the boxes are identical),
    or a center gap beyond the circumradius sum. right is sorted on x per
    class, and each left row's window reaches its circumradius plus the
    largest of its class in right; the window's margin covers rounding, so
    the rows it skips fail the circumradius exit. When left is right, a
    row's window opens just past it, so each pair is listed once. The
    window entries are screened _PAIR_CHUNK at a time.
    """
    empty = np.empty(0, dtype=np.int32)
    if not (len(left) and len(right)):
        return empty, empty
    within = left is right
    right = right[np.lexsort((cols.x[right], class_ids[right]))]
    if within:
        left = right
    rc, rx, lx = class_ids[right], cols.x[right], cols.x[left]
    lo = np.arange(1, len(left) + 1) if within else np.zeros(len(left), dtype=np.int64)
    hi = np.zeros(len(left), dtype=np.int64)
    edges = (np.flatnonzero(np.diff(rc)) + 1).tolist()
    for s, e in zip([0, *edges], [*edges, len(right)]):
        sel = slice(s, e) if within else np.flatnonzero(class_ids[left] == rc[s])
        window = ((cols.radius[left[sel]] + cols.radius[right[s:e]].max()) * (1.0 + 1e-9)
                  + 1e-9 * np.abs(lx[sel]))
        hi[sel] = s + np.searchsorted(rx[s:e], lx[sel] + window, side="right")
        if not within:
            lo[sel] = s + np.searchsorted(rx[s:e], lx[sel] - window, side="left")
    count = hi - lo
    before = np.cumsum(count) - count
    out_a, out_b = [empty], [empty]
    i0 = 0
    while i0 < len(left):
        i1 = max(i0 + 1, int(np.searchsorted(before, before[i0] + _PAIR_CHUNK)))
        c = count[i0:i1]
        a = np.repeat(left[i0:i1], c)
        b = right[np.arange(len(a)) + np.repeat(lo[i0:i1] - (np.cumsum(c) - c), c)]
        if within:
            a, b = np.minimum(a, b), np.maximum(a, b)
        else:
            a, b = a[a < b], b[a < b]
        ok = np.minimum(cols.z_hi[a], cols.z_hi[b]) - np.maximum(cols.z_lo[a], cols.z_lo[b]) > 0.0
        flat = ~(cols.z_hi[a] > cols.z_lo[a])
        if flat.any():  # identical zero-height boxes still score 1.0
            ok |= flat & (cols.key[a] == cols.key[b]).all(axis=1)
        a, b = a[ok], b[ok]
        ok = _within_reach(cols.x[a] - cols.x[b], cols.y[a] - cols.y[b],
                           cols.radius[a] + cols.radius[b])
        out_a.append(a[ok])
        out_b.append(b[ok])
        i0 = i1
    return np.concatenate(out_a), np.concatenate(out_b)


def nms(dets: Detections, iou_threshold: float) -> list[int]:
    """Greedy class-wise NMS; returns kept row indices into dets.

    Detections are visited by descending score (ties by lower row
    index); one is suppressed iff its rotated IoU with an already-kept
    detection of the same class strictly exceeds the threshold.

    The greedy's decisions come from a few batched IoU calls over rows
    ranked by visit order; candidate pairs are the same-class pairs rotated
    IoU could score above 0. While more than _PREFIX rows are open, a
    prefix pass takes the first _PREFIX open rows: every open row ranked
    above one of them is among them, so the pairs inside the prefix show
    which rows have no open higher-ranked partner. Those are kept, and
    their open lower-ranked partners above the threshold are suppressed.
    A pass that decides fewer than _PREFIX // 8 rows ends the passes. The
    rows still open then get up to _EXACT_ROUNDS rounds of the same rule
    over their pairs, while more than _ROUND_PAIRS are open; one call
    scores the pairs left, and the greedy finishes in rank order on those
    verdicts. A row's fate depends only on the kept rows ranked above it
    that it could overlap, and every IoU is the greedy's (higher-ranked,
    lower-ranked) one bit for bit, so the kept list is the greedy's
    exactly.
    """
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError(f"NMS IoU threshold must lie in (0, 1), got {iou_threshold}")
    if not len(dets):
        return []
    order = np.argsort(-dets.scores, kind="stable")
    n = len(order)
    cls = dets.class_ids[order]
    cols = _columns(Boxes(dets.centers[order], dets.sizes[order], dets.yaws[order], cls))
    fate = np.zeros(n, dtype=np.int8)  # by rank: 0 open, 1 kept, -1 suppressed
    rows = np.arange(n, dtype=np.int32)  # the open rows, by rank
    while len(rows) > _PREFIX:
        prefix = rows[:_PREFIX]
        _, b = _candidate_pairs(cols, cls, prefix, prefix)
        blocked = np.zeros(n, dtype=bool)
        blocked[b] = True
        keep = prefix[~blocked[prefix]]
        fate[keep] = 1
        a, b = _candidate_pairs(cols, cls, keep, rows[fate[rows] == 0])
        fate[b[_ious(cols, a, cols, b) > iou_threshold]] = -1
        n_open, rows = len(rows), rows[fate[rows] == 0]
        if n_open - len(rows) < _PREFIX // 8:
            break
    a, b = _candidate_pairs(cols, cls, rows, rows)
    for _ in range(_EXACT_ROUNDS):
        if len(a) <= _ROUND_PAIRS:
            break
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
