"""The three benchmark workloads.

Each workload builds its inputs from the seed in `setup`, then runs
identical rounds. A round times the calls into the program only; checks
on the outputs run outside the timed regions. Every round must reproduce
the first round's results exactly, and for the default seed the first
round must match `reference.json` to 1e-9.

The program is reached through its public surface only: `cascadev.cli.main`
for cli-small and the package's Python API for the others, always looked
up at call time so the traced run's instrumentation sees the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

from bench_stats import Ledger

DEFAULT_SEED = 0
TOL = 1e-9

# Noisy oracle shared by every workload. Zero noise would saturate mAP at
# 1.0 and send iou_rotated down its identical-box shortcut, so the polygon
# clipping path would never run.
NOISE = {"sigma_delta": 0.25, "sigma_heading": 0.2, "p_class_flip": 0.1, "centerness_bias": 0.15}

# Scene seeds are seed * SEED_STRIDE + i, so nearby benchmark seeds share no scene.
SEED_STRIDE = 1000


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= TOL


class Workload:
    """Common round bookkeeping: timed operations, determinism and reference checks."""

    name = ""
    unit = ""  # what one op of the per-layer metrics is

    def __init__(self, cv, seed: int, workdir: str, reference: dict) -> None:
        self.cv = cv
        self.seed = seed
        self.workdir = workdir
        self.reference = reference.get(self.name) if seed == DEFAULT_SEED else None
        self.first: dict[str, float] | None = None
        self.tracer = None  # set for the traced phase

    def timed(self, ledger: Ledger, label: str, op_index: int, fn, *args):
        """One operation, under a top-level span when tracing."""
        if self.tracer is None:
            return ledger.run(label, fn, *args)
        return ledger.run(label, self.tracer.op_span, label, op_index, fn, *args)

    @contextlib.contextmanager
    def untraced(self):
        """Checks call the program too; keep those calls out of the trace."""
        if self.tracer is None:
            yield
            return
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = True

    def check_results(self, ledger: Ledger, results: dict[str, tuple[float, int]]) -> None:
        """Compare a round's exact results, as (value, op), with round 0 and,
        for the default seed, the reference."""
        for key, (value, op) in results.items():
            ledger.check(op, math.isfinite(value), f"{key} is not finite: {value}")
        if self.first is None:
            self.first = {key: value for key, (value, _) in results.items()}
            for key, want in (self.reference or {}).items():
                got, op = results[key]
                ledger.check(op, _close(got, want), f"{key} = {got!r}, reference {want!r}")
            return
        for key, (value, op) in results.items():
            ledger.check(op, value == self.first[key],
                         f"{key} = {value!r} differs from round 0 ({self.first[key]!r})")


class CliSmall(Workload):
    """`cascadev gen` -> `run` -> `eval` in-process on 16 default scenes, b=64."""

    name = "cli-small"
    unit = "scene"
    NUM_SCENES = 16
    B = 64
    COMMANDS = ("gen", "run", "eval")

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        self.config = os.path.join(self.workdir, "config.json")
        doc = {"num_scenes": self.NUM_SCENES, "b": self.B, "seed": self.seed * SEED_STRIDE,
               "noise": NOISE}
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.dirs = {k: os.path.join(self.workdir, k) for k in ("scenes", "traces", "metrics")}
        self.hashes: dict[str, str] | None = None

    def _cli(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return self.cv.cli.main(argv)

    def round(self, r: int, ledger: Ledger) -> dict:
        d = self.dirs
        argvs = {
            "gen": ["gen", "--config", self.config, "--out", d["scenes"]],
            "run": ["run", d["scenes"], "--config", self.config, "--out", d["traces"]],
            "eval": ["eval", d["traces"], "--config", self.config, "--out", d["metrics"]],
        }
        seconds, ops = {}, {}
        for cmd in self.COMMANDS:
            op, code, seconds[cmd] = self.timed(ledger, f"cli.{cmd}", r, self._cli, argvs[cmd])
            ops[cmd] = op
            if code is None:
                return {"ok": False}
            if code != 0:
                ledger.fail(op, f"cascadev {cmd} exited {code}")
                if self.tracer is not None:
                    self.tracer.count("cli.nonzero_exits")
                return {"ok": False}
        with self.untraced():
            self._check_artifacts(r, ledger, ops)
        total = sum(os.path.getsize(p) for p in self._files().values())
        return {"ok": True, "ops": self.NUM_SCENES, "seconds": seconds,
                "artifact_kb": total / self.NUM_SCENES / 1024}

    def _files(self) -> dict[str, str]:
        return {
            f"{k}/{n}": os.path.join(path, n)
            for k, path in self.dirs.items()
            for n in sorted(os.listdir(path))
        }

    def _check_artifacts(self, r: int, ledger: Ledger, ops: dict[str, int]) -> None:
        cv = self.cv
        files = self._files()
        hashes = {}
        for rel, path in files.items():
            with open(path, "rb") as fh:
                hashes[rel] = hashlib.sha256(fh.read()).hexdigest()
        if hashes == self.hashes:
            return  # byte-identical to round 0, which was read back in full
        if self.hashes is not None:
            changed = sorted(k for k in hashes.keys() | self.hashes.keys()
                             if hashes.get(k) != self.hashes.get(k))
            ledger.fail(ops["run"], f"round {r} artifacts differ from round 0: {changed[:4]}")
        scenes = self._read_back(ledger, ops["gen"], files, "scene", cv.formats.scene_from_doc)
        traces = self._read_back(ledger, ops["run"], files, "trace", cv.formats.trace_from_doc)
        try:
            ap = cv.formats.ap_from_doc(cv.read_json(files["metrics/ap.json"], "ap"))
        except (KeyError, cv.CascadevError) as exc:
            ledger.fail(ops["eval"], f"ap.json does not read back: {exc!r}")
            return
        results = {"map25": ap.at(0.25).mean_ap, "map50": ap.at(0.5).mean_ap}
        self.check_results(ledger, {k: (v, ops["eval"]) for k, v in results.items()})
        if self.hashes is None:
            self.hashes = hashes
        if scenes is None or traces is None:
            return
        # The CLI must agree with the Python API on the same inputs: re-run
        # scene 0 and re-evaluate the read-back traces in-process.
        noise = cv.OracleNoise(**NOISE)
        s0 = scenes[0]
        props = cv.scene_proposals(s0, cv.oracle_seed_centerness(s0, noise, seed=s0.seed), self.B)
        again = cv.run_cascade(props, cv.oracle_predictor(s0, noise, seed=s0.seed),
                               cv.CpaSchedule(), gts=s0.gt_boxes)
        same = (cv.formats.trace_to_doc(again, scene_seed=s0.seed)
                == cv.formats.trace_to_doc(traces[0], scene_seed=s0.seed))
        ledger.check(ops["run"], same, "scene 0 trace differs from an in-process run_cascade")
        api = cv.evaluate_scenes(
            [(cv.ensemble_stages(t, (1, 3), 0.25), t.gts) for t in traces], [0.25, 0.5])
        for thr, key in ((0.25, "map25"), (0.5, "map50")):
            ledger.check(ops["eval"], _close(api.at(thr).mean_ap, results[key]),
                         f"CLI {key} {results[key]!r} != API {api.at(thr).mean_ap!r}")

    def _read_back(self, ledger: Ledger, op: int, files: dict[str, str], kind: str, decode):
        """Every `kind` artifact through read_json + its decoder, or None on failure."""
        paths = [p for rel, p in files.items() if rel.split("/")[1].startswith(kind + "_")]
        try:
            docs = [decode(self.cv.read_json(p, kind)) for p in paths]
        except self.cv.CascadevError as exc:
            ledger.fail(op, f"{kind} artifact does not read back: {exc}")
            return None
        if not ledger.check(op, len(docs) == self.NUM_SCENES, f"{len(docs)} {kind} files"):
            return None
        return docs

    def summarize(self, rounds: list[dict]) -> tuple[float, dict]:
        scenes = self.NUM_SCENES * len(rounds)
        rate = {c: scenes / sum(r["seconds"][c] for r in rounds) for c in self.COMMANDS}
        pipeline = scenes / sum(sum(r["seconds"].values()) for r in rounds)
        return pipeline, {
            "cli.gen_scenes_per_s": (rate["gen"], "scenes/s"),
            "cli.run_scenes_per_s": (rate["run"], "scenes/s"),
            "cli.eval_scenes_per_s": (rate["eval"], "scenes/s"),
            "cli.artifact_kb_per_scene": (rounds[0]["artifact_kb"], "KB"),
        }


class DetectLarge(Workload):
    """The README's Python API loop on large yawed scenes, b=512."""

    name = "detect-large"
    unit = "scene"
    # One scene per box count in 8..12 each round, so a round's work does
    # not hinge on the seed's draw of box counts.
    BOX_COUNTS = (8, 9, 10, 11, 12)
    B = 512

    def setup(self) -> None:
        cv = self.cv
        self.scenes = [
            cv.gen_scene(
                cv.SceneConfig(num_gt=(g, g), points_per_box=1200, num_clutter=12000,
                               workspace=((-8.0, 8.0), (-8.0, 8.0), (0.0, 3.0)),
                               yaw_enabled=True),
                self.seed * SEED_STRIDE + g,
            )
            for g in self.BOX_COUNTS
        ]
        self.noise = cv.OracleNoise(**NOISE)
        self.sched = cv.CpaSchedule()

    def _scene(self, scene):
        cv = self.cv
        scores = cv.oracle_seed_centerness(scene, self.noise, seed=scene.seed)
        props = cv.scene_proposals(scene, scores, self.B)
        trace = cv.run_cascade(props, cv.oracle_predictor(scene, self.noise, seed=scene.seed),
                               self.sched, gts=scene.gt_boxes)
        return cv.ensemble_stages(trace, (1, 3), 0.25)

    def round(self, r: int, ledger: Ledger) -> dict:
        seconds = []
        dets = []
        for i, scene in enumerate(self.scenes):
            _, out, dt = self.timed(ledger, "detect.scene", r * len(self.scenes) + i,
                                    self._scene, scene)
            if out is None:
                return {"ok": False}
            seconds.append(dt)
            dets.append(out)
        results = [(d, s.gt_boxes) for d, s in zip(dets, self.scenes)]
        op, report, dt = self.timed(ledger, "detect.evaluate", r, self.cv.evaluate_scenes,
                                    results, [0.25, 0.5])
        if report is None:
            return {"ok": False}
        values = {"map25": report.at(0.25).mean_ap, "map50": report.at(0.5).mean_ap}
        with self.untraced():
            if self.first is None:
                self._check_geometry(ledger, op, dets)
            self.check_results(ledger, {k: (v, op) for k, v in values.items()})
        return {"ok": True, "ops": len(self.scenes), "seconds": seconds + [dt], **values}

    def _check_geometry(self, ledger: Ledger, op: int, dets) -> None:
        """NMS left no same-class pair above its threshold, and rotated IoU
        agrees with the Monte-Carlo oracle on a few detection/truth pairs."""
        iou = self.cv.overlap.iou_rotated
        for kept in dets:
            for a in range(len(kept)):
                for b in range(a + 1, len(kept)):
                    if kept[a].class_id == kept[b].class_id and iou(kept[a].box, kept[b].box) > 0.25:
                        ledger.fail(op, "NMS kept two same-class boxes with IoU > 0.25")
                        return
        pairs = [(d.box, g) for d in dets[0] for g in self.scenes[0].gt_boxes
                 if iou(d.box, g) > 0.1][:4]
        ledger.check(op, len(pairs) > 0, "no detection overlaps a ground-truth box")
        for box, gt in pairs:
            want, se = self.cv.iou_mc(box, gt, 40000, seed=7)
            got = iou(box, gt)
            ledger.check(op, abs(got - want) <= 5 * se + 1e-3,
                         f"iou_rotated {got:.4f} vs Monte-Carlo {want:.4f} +- {se:.4f}")

    def summarize(self, rounds: list[dict]) -> tuple[float, dict]:
        rate = sum(r["ops"] for r in rounds) / sum(sum(r["seconds"]) for r in rounds)
        return rate, {
            "detect.scenes_per_s": (rate, "scenes/s"),
            "detect.map50": (rounds[0]["map50"], "mAP"),
        }


class Train(Workload):
    """`train_cascade` on the criterion-9 scene config, then held-out inference."""

    name = "train"
    unit = "step"
    STEPS = 200
    SCENE = dict(num_gt=(3, 5), points_per_box=60,
                 size_range=((0.8, 1.3), (0.8, 1.3), (0.6, 1.1)),
                 sigma_feature=0.03, num_clutter=400)

    def setup(self) -> None:
        cv = self.cv
        cfg = cv.SceneConfig(**self.SCENE)
        base = self.seed * SEED_STRIDE
        self.train = [cv.gen_scene(cfg, base + i) for i in range(32)]
        self.held = [cv.gen_scene(cfg, base + 500 + i) for i in range(16)]
        self.sched = cv.CpaSchedule()

    def _fit(self):
        return self.cv.train_cascade(self.train, self.sched, self.STEPS, 1e-2, self.seed,
                                     b=64, denoising_k=4)

    def _heldout(self, params):
        cv = self.cv
        results = []
        for scene in self.held:
            props = cv.scene_proposals(scene, cv.uniform_seed_scores(scene), 64)
            trace = cv.run_cascade(props, cv.head_predictors(params), self.sched,
                                   gts=scene.gt_boxes)
            results.append((cv.ensemble_stages(trace, (3, 3), 0.25), scene.gt_boxes))
        return cv.evaluate_scenes(results, [0.25]).at(0.25).mean_ap

    def round(self, r: int, ledger: Ledger) -> dict:
        op, fitted, t_fit = self.timed(ledger, "train.fit", r, self._fit)
        if fitted is None:
            return {"ok": False}
        params, history = fitted
        ledger.check(op, len(history) == self.STEPS * self.sched.num_stages,
                     f"{len(history)} loss reports for {self.STEPS} steps")
        final_loss = sum(rep.total for rep in history if rep.step == self.STEPS - 1)
        op_h, map25, t_held = self.timed(ledger, "train.heldout", r, self._heldout, params)
        if map25 is None:
            return {"ok": False}
        self.check_results(ledger, {"final_loss": (final_loss, op), "map25": (map25, op_h)})
        return {"ok": True, "ops": self.STEPS, "seconds": {"fit": t_fit, "heldout": t_held},
                "map25": map25, "final_loss": final_loss}

    def summarize(self, rounds: list[dict]) -> tuple[float, dict]:
        steps = self.STEPS * len(rounds) / sum(r["seconds"]["fit"] for r in rounds)
        held = len(self.held) * len(rounds) / sum(r["seconds"]["heldout"] for r in rounds)
        return steps, {
            "train.steps_per_s": (steps, "steps/s"),
            "train.heldout_scenes_per_s": (held, "scenes/s"),
            "train.heldout_map25": (rounds[0]["map25"], "mAP"),
            "train.final_loss": (rounds[0]["final_loss"], "loss"),
        }


WORKLOADS = {w.name: w for w in (CliSmall, DetectLarge, Train)}
