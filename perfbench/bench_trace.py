"""Spans and counters around the calls into each cascadev module.

Instrumentation lives entirely in the benchmark process: `instrument`
replaces module attributes under the name each caller looks them up by
(for example `cascadev.cascade.ia_voting`, which `run_cascade` calls)
and restores them afterwards. Nothing in the package changes.

A span records (id, parent id, name, start, end, op). Spans are kept in
memory and written out when the run ends. Functions called about 1e5
times per scene (`encode_deltas`, `iou_rotated`) only bump counters.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple[int, int | None, str, float, float, int | None]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self.enabled = True
        # Parent adopted by spans that open on a worker thread with an
        # empty stack (the CLI's scene pool): the op span of the caller.
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _frames(self) -> list[tuple[int, str]]:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def current(self) -> str | None:
        """Name of the innermost open span on this thread."""
        frames = self._frames()
        return frames[-1][1] if frames else None

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] += n

    def peak(self, name: str, value: float) -> None:
        """Keep the largest value seen under name."""
        if self.enabled:
            with self._lock:
                self.counts[name] = max(self.counts[name], value)

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn under a span named name; returns fn's result."""
        return self._call(name, False, fn, args, kwargs)

    def op_span(self, name: str, op: int, fn, *args, **kwargs):
        """A top-level span for benchmark operation op; worker threads adopt it."""
        self.op = op
        return self._call(name, True, fn, args, kwargs)

    def _call(self, name: str, top: bool, fn, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        frames = self._frames()
        parent = frames[-1][0] if frames else self.root
        sid = next(self._ids)
        if top:
            self.root = sid
        frames.append((sid, name))
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            frames.pop()
            if top:
                self.root = None
            self.spans.append((sid, parent, name, t0, t1, self.op))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s,op\n")
            for sid, parent, name, t0, t1, op in self.spans:
                fh.write(f"{sid},{'' if parent is None else parent},{name},{t0!r},{t1!r},"
                         f"{'' if op is None else op}\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, t0, t1, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    return {
        sid: (t1 - t0) - _covered(children.get(sid, []), t0, t1)
        for sid, _, _, t0, t1, _ in spans
    }


def span_totals(spans) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per span name: summed duration, summed self time and call count."""
    selfs = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    self_total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for sid, _, name, t0, t1, _ in spans:
        total[name] += t1 - t0
        self_total[name] += selfs[sid]
        calls[name] += 1
    return total, self_total, calls


# --- instrumentation -------------------------------------------------------


def _spanned(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.span(name, fn, *args, **kwargs)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _predictor_factory(tracer: Tracer, name: str, factory):
    """Wrap a factory so every predictor callable it returns is spanned."""

    @functools.wraps(factory)
    def wrapper(*args, **kwargs):
        made = factory(*args, **kwargs)
        if callable(made):
            return _spanned(tracer, name, made)
        return [_spanned(tracer, name, p) for p in made]

    return wrapper


def instrument(tracer: Tracer, cv):
    """Patch spans and counters into the cascadev package; returns an undo callable."""
    patched: list[tuple[object, str, object]] = []

    def patch(module, attr: str, make):
        original = getattr(module, attr)
        patched.append((module, attr, original))
        setattr(module, attr, make(original))

    def span(name, after=None):
        return lambda fn: _spanned(tracer, name, fn, after)

    def count(name):
        return lambda fn: _counted(tracer, name, fn)

    def predictors(name):
        return lambda fn: _predictor_factory(tracer, name, fn)

    def seed_points(args, result):
        tracer.count("synth.seed_scoring.points", len(result))

    def stage_proposals(args, result):
        tracer.count("cascade.stages", len(result.stages))
        tracer.count("cascade.stage_proposals", sum(len(r.proposals_in) for r in result.stages))

    def mask_evals(args, result):
        tracer.count("voting.mask_evals", len(args[0]) * len(args[2]))

    def positives(args, result):
        tracer.count("assignment.positives", result.num_positives)

    def nms_sizes(args, result):
        tracer.count("overlap.nms.in", len(args[0]))
        tracer.count("overlap.nms.kept", len(result))

    def vote_mask(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mask = fn(*args, **kwargs)
            inside = int(mask.sum())
            tracer.count("geometry.contains_points.calls")
            tracer.count("voting.masks")
            tracer.count("voting.mask_points", inside)
            tracer.count("voting.empty_masks", inside == 0)
            return mask

        return wrapper

    def bev_area(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            area = fn(*args, **kwargs)
            tracer.count("overlap.iou_rotated.clipped")
            tracer.count("overlap.iou_rotated.nonzero", area > 0.0)
            return area

        return wrapper

    def match_iou(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count("overlap.iou_rotated.calls")
            if tracer.current() == "evaluation.evaluate_scenes":
                tracer.count("evaluation.match_iou_calls")
            return fn(*args, **kwargs)

        return wrapper

    def workers(cls):
        @functools.wraps(cls)
        def make(*args, **kwargs):
            pool = cls(*args, **kwargs)
            tracer.peak("cli.pool_workers", pool._max_workers)
            return pool

        return make

    def json_io(verb, counter, kind_of):
        # write_json/read_json serve every artifact kind; name the span by kind.
        def make(fn):
            @functools.wraps(fn)
            def wrapper(path, arg):
                result = tracer.span(f"formats.{verb}_json.{kind_of(arg)}", fn, path, arg)
                tracer.count(counter, os.path.getsize(path))
                return result

            return wrapper

        return make

    # Calls the benchmark itself makes through the package's public API.
    patch(cv, "oracle_seed_centerness", span("synth.seed_scoring", seed_points))
    patch(cv, "oracle_predictor", predictors("synth.predictor"))
    patch(cv, "scene_proposals", span("synth.scene_proposals"))
    patch(cv, "run_cascade", span("cascade.run_cascade", stage_proposals))
    patch(cv, "ensemble_stages", span("cascade.ensemble_stages"))
    patch(cv, "evaluate_scenes", span("evaluation.evaluate_scenes"))
    patch(cv, "train_cascade", span("learner.train_cascade"))
    patch(cv, "head_predictors", predictors("learner.head_predictor"))
    # The CLI's own lookups.
    cli = cv.cli
    patch(cli, "gen_scene", span("synth.gen_scene"))
    patch(cli, "oracle_seed_centerness", span("synth.seed_scoring", seed_points))
    patch(cli, "oracle_predictor", predictors("synth.predictor"))
    patch(cli, "head_predictors", predictors("learner.head_predictor"))
    patch(cli, "scene_proposals", span("synth.scene_proposals"))
    patch(cli, "run_cascade", span("cascade.run_cascade", stage_proposals))
    patch(cli, "ensemble_stages", span("cascade.ensemble_stages"))
    patch(cli, "evaluate_scenes", span("evaluation.evaluate_scenes"))
    patch(cli, "cascade_stats", span("evaluation.cascade_stats"))
    patch(cli, "scene_to_doc", span("formats.scene_to_doc"))
    patch(cli, "trace_to_doc", span("formats.trace_to_doc"))
    patch(cli, "scene_from_doc", span("formats.scene_from_doc"))
    patch(cli, "trace_from_doc", span("formats.trace_from_doc"))
    patch(cli, "write_json", json_io("write", "formats.bytes_written", lambda doc: doc["kind"]))
    patch(cli, "read_json", json_io("read", "formats.bytes_read", lambda kind: kind))
    patch(cli, "ThreadPoolExecutor", workers)
    # Inside the cascade and the learner.
    for mod in (cv.cascade, cv.learner):
        patch(mod, "ia_voting", span("voting.ia_voting", mask_evals))
        patch(mod, "assign_targets", span("assignment.assign_targets", positives))
        patch(mod, "decode_box", span("geometry.decode_update"))
        patch(mod, "update_point", span("geometry.decode_update"))
    patch(cv.cascade, "nms", span("overlap.nms", nms_sizes))
    patch(cv.learner, "scene_proposals", span("synth.scene_proposals"))
    patch(cv.learner, "compute_losses", span("learner.compute_losses"))
    # Hot kernels: counters only.
    for mod in (cv.synth, cv.assignment, cv.evaluation):
        patch(mod, "encode_deltas", count("geometry.encode_deltas.calls"))
    for mod in (cv.synth, cv.assignment):
        patch(mod, "contains_points", count("geometry.contains_points.calls"))
    patch(cv.voting, "contains_points", vote_mask)
    for mod in (cv.overlap, cv.synth):
        patch(mod, "iou_rotated", count("overlap.iou_rotated.calls"))
    patch(cv.evaluation, "iou_rotated", match_iou)
    patch(cv.overlap, "bev_intersection_area", bev_area)

    def undo() -> None:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)

    return undo


# --- per-layer metrics -----------------------------------------------------

# Every per-layer metric, in report order: (name, unit, better, source).
# "/op" means per operation of the workload: a scene for cli-small and
# detect-large, a training step for train. Sources:
#   ("time", span...)     summed duration of the named spans, per op
#   ("self", span)        summed self time of the named span, per op
#   ("calls", span)       number of the named spans, per op
#   ("count",)            the counter of the same name, per op
#   ("ratio", num, den)   one counter over another
#   ("peak",)             the largest value recorded under the name
#   ("extra",)            measured outside the trace and passed in
_LAYERS = [
    ("synth.seed_scoring.s", "s/op", "lower", ("time", "synth.seed_scoring")),
    ("synth.seed_scoring.points", "count/op", "lower", ("count",)),
    ("synth.predictor.s", "s/op", "lower", ("time", "synth.predictor")),
    ("synth.predictor.calls", "count/op", "lower", ("calls", "synth.predictor")),
    ("synth.gen_scene.s", "s/op", "lower", ("time", "synth.gen_scene")),
    ("synth.scene_proposals.s", "s/op", "lower", ("time", "synth.scene_proposals")),
    ("cascade.run_cascade.s", "s/op", "lower", ("time", "cascade.run_cascade")),
    ("cascade.run_cascade.self_s", "s/op", "lower", ("self", "cascade.run_cascade")),
    ("cascade.proposals_per_stage", "count", "lower",
     ("ratio", "cascade.stage_proposals", "cascade.stages")),
    ("cascade.ensemble_stages.s", "s/op", "lower", ("time", "cascade.ensemble_stages")),
    ("voting.ia_voting.s", "s/op", "lower", ("time", "voting.ia_voting")),
    ("voting.ia_voting.calls", "count/op", "lower", ("calls", "voting.ia_voting")),
    ("voting.mask_evals", "count/op", "lower", ("count",)),
    ("voting.mask_size_mean", "count", "lower", ("ratio", "voting.mask_points", "voting.masks")),
    ("voting.empty_mask_frac", "fraction", "lower",
     ("ratio", "voting.empty_masks", "voting.masks")),
    ("assignment.assign_targets.s", "s/op", "lower", ("time", "assignment.assign_targets")),
    ("assignment.assign_targets.calls", "count/op", "lower",
     ("calls", "assignment.assign_targets")),
    ("assignment.positives", "count/op", "higher", ("count",)),
    ("geometry.encode_deltas.calls", "count/op", "lower", ("count",)),
    ("geometry.contains_points.calls", "count/op", "lower", ("count",)),
    ("geometry.decode_update.s", "s/op", "lower", ("time", "geometry.decode_update")),
    ("overlap.nms.s", "s/op", "lower", ("time", "overlap.nms")),
    ("overlap.nms.in", "count/op", "lower", ("count",)),
    ("overlap.nms.kept", "count/op", "lower", ("count",)),
    ("overlap.iou_rotated.calls", "count/op", "lower", ("count",)),
    ("overlap.iou_rotated.clipped", "count/op", "lower", ("count",)),
    ("overlap.iou_rotated.nonzero", "count/op", "lower", ("count",)),
    ("overlap.iou_rotated.useful_frac", "fraction", "higher",
     ("ratio", "overlap.iou_rotated.nonzero", "overlap.iou_rotated.clipped")),
    ("evaluation.evaluate_scenes.s", "s/op", "lower", ("time", "evaluation.evaluate_scenes")),
    ("evaluation.cascade_stats.s", "s/op", "lower", ("time", "evaluation.cascade_stats")),
    ("evaluation.match_iou_calls", "count/op", "lower", ("count",)),
    ("learner.train_cascade.s", "s/op", "lower", ("time", "learner.train_cascade")),
    ("learner.train_cascade.self_s", "s/op", "lower", ("self", "learner.train_cascade")),
    ("learner.compute_losses.s", "s/op", "lower", ("time", "learner.compute_losses")),
    ("learner.head_predictor.s", "s/op", "lower", ("time", "learner.head_predictor")),
    ("learner.head_predictor.calls", "count/op", "lower", ("calls", "learner.head_predictor")),
    ("formats.scene_encode.s", "s/op", "lower",
     ("time", "formats.scene_to_doc", "formats.write_json.scene")),
    ("formats.scene_decode.s", "s/op", "lower",
     ("time", "formats.read_json.scene", "formats.scene_from_doc")),
    ("formats.trace_encode.s", "s/op", "lower",
     ("time", "formats.trace_to_doc", "formats.write_json.trace")),
    ("formats.trace_decode.s", "s/op", "lower",
     ("time", "formats.read_json.trace", "formats.trace_from_doc")),
    ("formats.bytes_written", "B/op", "lower", ("count",)),
    ("formats.bytes_read", "B/op", "lower", ("count",)),
    ("cli.gen.s", "s/op", "lower", ("time", "cli.gen")),
    ("cli.run.s", "s/op", "lower", ("time", "cli.run")),
    ("cli.eval.s", "s/op", "lower", ("time", "cli.eval")),
    ("cli.pool_workers", "count", "higher", ("peak",)),
    ("cli.nonzero_exits", "count", "lower", ("extra",)),
    ("cli.artifact_kb_per_scene", "KB", "lower", ("extra",)),
    ("trace_overhead", "ratio", "lower", ("extra",)),
]

PER_LAYER = [(name, unit, better) for name, unit, better, _ in _LAYERS]

# Counts that must repeat exactly across two traced runs of the same code.
EXACT_COUNTS = (
    "geometry.encode_deltas.calls",
    "voting.mask_evals",
    "overlap.iou_rotated.calls",
    "overlap.iou_rotated.clipped",
    "overlap.nms.kept",
    "cli.artifact_kb_per_scene",
)


def layer_metrics(tracer: Tracer, ops: int, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics over ops operations; extra supplies values measured elsewhere.

    A layer the workload never reaches reports 0.
    """
    total, self_total, calls = span_totals(tracer.spans)
    counts = tracer.counts
    out: dict[str, float] = {}
    for name, _, _, (kind, *args) in _LAYERS:
        if kind == "time":
            value = sum(total.get(s, 0.0) for s in args) / ops
        elif kind == "self":
            value = self_total.get(args[0], 0.0) / ops
        elif kind == "calls":
            value = calls.get(args[0], 0) / ops
        elif kind == "count":
            value = counts.get(name, 0.0) / ops
        elif kind == "ratio":
            den = counts.get(args[1], 0.0)
            value = counts.get(args[0], 0.0) / den if den else 0.0
        elif kind == "peak":
            value = counts.get(name, 0.0)
        else:
            value = extra.get(name, 0.0)
        out[name] = float(value)
    return out
