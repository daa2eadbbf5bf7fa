"""Command-line pipeline over the library: gen, run, eval, train.

Each subcommand reads an optional JSON config (unknown keys rejected),
applies flag overrides, and writes versioned artifacts into --out.
Commands are deterministic given config and seeds, so rerunning one
reproduces its files byte for byte.

Exit codes: 0 success, 2 config error (including a config whose arrays
cannot be allocated), 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field

# Not called here; perfbench/bench_trace.py patches this name on this module.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401

from .assignment import CpaSchedule
from .cascade import ensemble_stages, run_cascade
from .config import check_types, from_doc
from .errors import ConfigError, DataError, NumericalError
from .evaluation import cascade_stats, evaluate_scenes
from .formats import (
    RNG_FAMILY,
    SCHEMA_VERSION,
    ap_to_doc,
    config_hash,
    detection_doc,
    loss_csv,
    model_from_doc,
    model_to_doc,
    read_json,
    scene_from_doc,
    scene_to_doc,
    stats_csv,
    trace_from_doc,
    trace_to_doc,
    write_json,
)
from .learner import (
    LossWeights,
    head_predictors,
    train_cascade,
    uniform_seed_scores,
)
from .synth import (
    OracleNoise,
    SceneConfig,
    SyntheticScene,
    gen_scene,
    oracle_predictor,
    oracle_seed_centerness,
    scene_proposals,
)
from .voting import WEIGHTINGS

PREDICTORS = ("oracle", "head")


@dataclass
class RunConfig:
    """Resolved parameters for one CLI invocation."""

    num_scenes: int = 100
    b: int = 64
    seed: int = 0
    predictor: str = "oracle"
    model: str | None = None
    scene: SceneConfig = field(default_factory=SceneConfig)
    schedule: CpaSchedule = field(default_factory=CpaSchedule)
    noise: OracleNoise = field(default_factory=OracleNoise)
    iou_thresholds: tuple[float, ...] = (0.25, 0.5)
    weighting: str = "exp_neg_dist"
    ensemble: tuple[int, int] | None = None
    nms_iou: float = 0.25
    steps: int = 2500
    lr: float = 1e-2
    hidden: int = 32
    denoising_k: int = 4
    loss_weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self) -> None:
        check_types(self)
        for name in ("num_scenes", "b", "steps", "hidden", "denoising_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"need {name} >= 1, got {getattr(self, name)}")
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must be a u64, got {self.seed}")
        for name, allowed in (("predictor", PREDICTORS), ("weighting", WEIGHTINGS)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}, expected {allowed}")
        if not self.iou_thresholds:
            raise ValueError("need at least one IoU threshold")
        for t in self.iou_thresholds:
            if not (0.0 < t < 1.0):
                raise ValueError(f"IoU threshold outside (0, 1): {t}")
        if not (0.0 < self.nms_iou < 1.0):
            raise ValueError(f"nms_iou outside (0, 1): {self.nms_iou}")
        if self.ensemble is None:
            self.ensemble = (1, self.schedule.num_stages)
        i, j = self.ensemble
        if not (1 <= i <= j <= self.schedule.num_stages):
            raise ValueError(
                f"invalid ensemble range {self.ensemble} for {self.schedule.num_stages} stages"
            )
        if self.lr <= 0.0:
            raise ValueError(f"need lr > 0, got {self.lr}")

    def resolved_doc(self) -> dict:
        """The full effective config as plain JSON-ready data."""
        return asdict(self)


def run_config_from_doc(doc: dict) -> RunConfig:
    try:
        return from_doc(RunConfig, doc, "run config")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _read(path: str, kind: str, decode):
    """The {kind} artifact at path, decoded by decode; a DataError names the file."""
    try:
        return decode(read_json(path, kind))
    except DataError as exc:
        if path not in str(exc):
            exc.args = (f"{exc} (in {path})",)
        raise


def _load(dirpath: str, kind: str) -> list:
    """(file name, decoded artifact) for every {kind}_*.json in dirpath, by name."""
    if not os.path.isdir(dirpath):
        raise DataError(f"{kind} directory {dirpath!r} does not exist")
    names = sorted(
        n for n in os.listdir(dirpath) if n.startswith(f"{kind}_") and n.endswith(".json")
    )
    if not names:
        raise DataError(f"no {kind}_*.json files in {dirpath!r}")
    decode = scene_from_doc if kind == "scene" else trace_from_doc
    return [(n, _read(os.path.join(dirpath, n), kind, decode)) for n in names]


def cmd_gen(cfg: RunConfig, out: str) -> None:
    if cfg.seed + cfg.num_scenes > 2**64:
        raise ConfigError(f"seed {cfg.seed} and num_scenes {cfg.num_scenes} give scene "
                          "seeds past the u64 range")
    # Every scene is generated before the first write, so a config that fails
    # on any of them leaves no files behind.
    scenes = [gen_scene(cfg.scene, cfg.seed + i) for i in range(cfg.num_scenes)]
    os.makedirs(out, exist_ok=True)
    entries = []
    for i, scene in enumerate(scenes):
        name = f"scene_{i:04d}.json"
        write_json(os.path.join(out, name), scene_to_doc(scene))
        entries.append(
            {
                "file": name,
                "seed": scene.seed,
                "num_gt": len(scene.gt_boxes),
                "num_points": scene.num_points,
            }
        )
    resolved = cfg.resolved_doc()
    manifest = {
        "kind": "manifest",
        "schema_version": SCHEMA_VERSION,
        "command": "gen",
        "rng": RNG_FAMILY,
        "config": resolved,
        "config_hash": config_hash(resolved),
        "scenes": entries,
    }
    write_json(os.path.join(out, "manifest.json"), manifest)
    print(f"wrote {len(entries)} scenes and manifest.json to {out}")


def cmd_run(cfg: RunConfig, scenes_dir: str, out: str) -> None:
    scenes = _load(scenes_dir, "scene")
    params = None
    if cfg.predictor == "oracle":
        for name, scene in scenes:
            if not scene.gt_boxes or any(g.class_id is None for g in scene.gt_boxes):
                raise DataError("the oracle predictor needs ground-truth boxes with class "
                                f"ids, which {name} lacks")
    else:
        if cfg.model is None:
            raise ConfigError("predictor 'head' requires a model path in the config")
        params = _read(cfg.model, "model", model_from_doc)
        for name, scene in scenes:
            if scene.features.shape[1] != params.feature_dim:
                raise DataError(f"model expects feature_dim {params.feature_dim}, "
                                f"{name} has {scene.features.shape[1]}")
            if scene.config.num_classes > params.num_classes:
                raise DataError(f"model predicts {params.num_classes} classes, "
                                f"{name} has {scene.config.num_classes}")
        if params.num_stages != cfg.schedule.num_stages:
            raise DataError(
                f"model has {params.num_stages} stages, schedule expects "
                f"{cfg.schedule.num_stages}"
            )

    def one(scene: SyntheticScene):
        if cfg.predictor == "oracle":
            scores = oracle_seed_centerness(scene, cfg.noise, seed=scene.seed)
            predictor = oracle_predictor(scene, cfg.noise, seed=scene.seed)
        else:
            scores = uniform_seed_scores(scene)
            predictor = head_predictors(params)
        props = scene_proposals(scene, scores, cfg.b)
        return run_cascade(
            props, predictor, cfg.schedule, gts=scene.gt_boxes, weighting=cfg.weighting
        )

    traces = [one(scene) for _, scene in scenes]
    os.makedirs(out, exist_ok=True)
    det_entries = []
    for i, ((_, scene), trace) in enumerate(zip(scenes, traces)):
        name = f"trace_{i:04d}.json"
        write_json(os.path.join(out, name), trace_to_doc(trace, scene_seed=scene.seed))
        dets = ensemble_stages(trace, cfg.ensemble, cfg.nms_iou)
        det_entries.append(
            {
                "trace": name,
                "scene_seed": scene.seed,
                "detections": [detection_doc(d) for d in dets],
            }
        )
    write_json(
        os.path.join(out, "detections.json"),
        {
            "kind": "detections",
            "schema_version": SCHEMA_VERSION,
            "ensemble": list(cfg.ensemble),
            "nms_iou": cfg.nms_iou,
            "scenes": det_entries,
        },
    )
    print(f"wrote {len(traces)} traces and detections.json to {out}")


def cmd_eval(cfg: RunConfig, traces_dir: str, out: str) -> None:
    named = _load(traces_dir, "trace")
    for name, t in named:
        if not t.gts:
            raise DataError(f"evaluation needs traces recorded with ground-truth boxes, which "
                            f"{name} lacks")
        if cfg.ensemble[1] > t.num_stages:
            raise ConfigError(
                f"stage range {cfg.ensemble} invalid for a {t.num_stages}-stage trace"
            )
    traces = [t for _, t in named]
    scene_results = [
        (ensemble_stages(t, cfg.ensemble, cfg.nms_iou), t.gts) for t in traces
    ]
    ap = evaluate_scenes(scene_results, list(cfg.iou_thresholds))
    stats = cascade_stats(traces)
    os.makedirs(out, exist_ok=True)
    write_json(os.path.join(out, "ap.json"), ap_to_doc(ap))
    with open(os.path.join(out, "stats.csv"), "w", encoding="utf-8") as fh:
        fh.write(stats_csv(stats))
    for r in ap.results:
        print(f"mAP@{r.iou_threshold:g} = {r.mean_ap:.4f}")
    print(f"wrote ap.json and stats.csv to {out}")


def cmd_train(cfg: RunConfig, scenes_dir: str, out: str) -> None:
    named = _load(scenes_dir, "scene")
    for name, scene in named:
        if any(g.class_id is None for g in scene.gt_boxes):
            raise DataError(f"training needs a class id on every box, which {name} lacks")
    scenes = [scene for _, scene in named]
    shapes = sorted({(s.features.shape[1], s.config.num_classes) for s in scenes})
    if len(shapes) > 1:
        raise DataError("all training scenes must share feature_dim and num_classes, "
                        f"found (feature_dim, num_classes) {shapes}")
    params, history = train_cascade(
        scenes,
        cfg.schedule,
        cfg.steps,
        cfg.lr,
        cfg.seed,
        b=cfg.b,
        hidden=cfg.hidden,
        denoising_k=cfg.denoising_k,
        weights=cfg.loss_weights,
        weighting=cfg.weighting,
    )
    os.makedirs(out, exist_ok=True)
    write_json(os.path.join(out, "model.json"), model_to_doc(params))
    with open(os.path.join(out, "loss.csv"), "w", encoding="utf-8") as fh:
        fh.write(loss_csv(history, cfg.schedule.num_stages))
    last = [r for r in history if r.step == cfg.steps - 1]
    total = sum(r.total for r in last)
    print(f"trained {cfg.steps} steps; final summed stage loss {total:.4f}")
    print(f"wrote model.json and loss.csv to {out}")


def _add_common_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON run config file")
    sp.add_argument("--seed", type=int, help="base seed (u64)")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--stages", type=int, dest="num_stages", help="number of cascade stages")
    sp.add_argument("--mu-max", type=float, dest="mu_max", help="first-stage assignment scale")
    sp.add_argument("--mu-min", type=float, dest="mu_min", help="last-stage assignment scale")
    sp.add_argument("--weighting", choices=list(WEIGHTINGS), help="voting weight variant")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascadev",
        description="Synthetic cascade point-voting detection pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    gen = sub.add_parser("gen", help="generate seeded scenes plus a manifest")
    run = sub.add_parser("run", help="run the cascade over generated scenes")
    run.add_argument("scenes", help="directory holding scene_*.json")
    ev = sub.add_parser("eval", help="evaluate trace files")
    ev.add_argument("traces", help="directory holding trace_*.json")
    train = sub.add_parser("train", help="train the cascade head on scenes")
    train.add_argument("scenes", help="directory holding scene_*.json")
    for sp in (gen, run, ev, train):
        _add_common_flags(sp)
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """The config file's document with the flags merged in, built once."""
    doc: dict = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nesting too deep
            raise ConfigError(f"invalid JSON in config {args.config!r}: {exc}") from exc
    flags = {k: v for k, v in vars(args).items() if v is not None}
    if isinstance(doc, dict):
        doc = {**doc, **{k: flags[k] for k in ("seed", "weighting") if k in flags}}
        schedule = {k: flags[k] for k in ("num_stages", "mu_max", "mu_min") if k in flags}
        if schedule and isinstance(doc.get("schedule", {}), dict):
            doc["schedule"] = {**doc.get("schedule", {}), **schedule}
    return run_config_from_doc(doc)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "gen":
            cmd_gen(cfg, args.out)
        elif args.command == "run":
            cmd_run(cfg, args.scenes, args.out)
        elif args.command == "eval":
            cmd_eval(cfg, args.traces, args.out)
        else:
            cmd_train(cfg, args.scenes, args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"config error: the config asks for more memory than there is: {exc}",
              file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
