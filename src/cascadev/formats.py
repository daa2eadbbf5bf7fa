"""Versioned JSON/CSV serialization for pipeline artifacts.

Every JSON document carries a `kind` tag and a `schema_version`;
readers accept any minor revision of the supported major version and
reject the rest. Dumps are compact and canonical (sorted keys, no
whitespace, shortest-roundtrip floats), so rerunning a command with the
same config and seeds reproduces files byte for byte. Without an indent
json.dumps runs the C encoder. Files written under 1.0 with a two-space
indent parse to the same documents. CSV numbers use repr for the same
reason.

A trace stores each stage's inputs and predictions only. The reader
rebuilds the moved points, the assignment and the detections with
cascade.stage_record, the step run_cascade took, so floats that
round-trip exactly give back the records the run computed, and a trace
whose predictions break the predictor contract does not read.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np

from .cascade import Predictions, Proposals, StageRecord, StageTrace, stage_record
from .config import from_doc
from .errors import DataError, InvalidDeltasError, PredictorOutputError, SchemaVersionError
from .evaluation import ApResult, CascadeStats, ThresholdResult
from .geometry import OrientedBox, Point3
from .learner import BranchParams, HeadParams, LossReport, StageParams
from .synth import SceneConfig, SyntheticScene

SCHEMA_VERSION = "1.1"
RNG_FAMILY = "philox4x64"

STATS_CSV_COLUMNS = (
    "stage",
    "mu",
    "positives",
    "mean_centerness_before",
    "mean_centerness_after",
    "spearman_rho",
)


def canonical_dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def config_hash(doc: dict) -> str:
    """sha256 over the compact canonical encoding of a config mapping."""
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _parse_version(text: str) -> tuple[int, int]:
    try:
        major, minor = text.split(".")
        return int(major), int(minor)
    except (AttributeError, ValueError) as exc:
        raise DataError(f"malformed schema_version {text!r}") from exc


def check_schema(doc: dict, kind: str) -> None:
    """Validate the version/kind envelope of a loaded document."""
    if not isinstance(doc, dict):
        raise DataError(f"expected a JSON object for a {kind} document")
    if "schema_version" not in doc:
        raise DataError(f"{kind} document lacks schema_version")
    major, _ = _parse_version(doc["schema_version"])
    supported, _ = _parse_version(SCHEMA_VERSION)
    if major != supported:
        raise SchemaVersionError(
            f"unsupported major schema version {doc['schema_version']!r}"
            f" (reader supports {SCHEMA_VERSION})"
        )
    if doc.get("kind") != kind:
        raise DataError(f"expected a {kind} document, got kind {doc.get('kind')!r}")


def _envelope(kind: str) -> dict:
    return {"kind": kind, "schema_version": SCHEMA_VERSION}


def write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(doc))


def read_json(path, kind: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON in {path}: {exc}") from exc
    check_schema(doc, kind)
    return doc


def _box_doc(b: OrientedBox) -> dict:
    doc = {
        "center": [b.center.x, b.center.y, b.center.z],
        "size": list(b.size),
        "yaw": b.yaw,
        "class_id": b.class_id,
    }
    if b.score is not None:
        doc["score"] = b.score
    return doc


def _box_from(doc: dict) -> OrientedBox:
    return OrientedBox(
        center=Point3(*doc["center"]),
        size=tuple(doc["size"]),
        yaw=doc["yaw"],
        class_id=doc["class_id"],
        score=doc.get("score"),
    )


def _rows(values: list, width: int | None = None) -> np.ndarray:
    """values as a (len(values), width) float array, width None taking the first
    row's; ValueError when the rows are ragged, of another width or not finite."""
    if width is None:
        width = len(values[0]) if values else 0
    a = np.array(values, dtype=np.float64).reshape(len(values), width)
    if not np.isfinite(a).all():
        raise ValueError("non-finite values")
    return a


def _int(v, name: str, lo: int, hi: float = float("inf")) -> int:
    """v itself; ValueError unless it is an int in [lo, hi)."""
    if not (type(v) is int and lo <= v < hi):
        raise ValueError(f"{name} {v!r} is not an int in [{lo}, {hi})")
    return v


def _ints(values: list, name: str, lo: int, hi: float = float("inf")) -> np.ndarray:
    """values as an int64 column; ValueError unless each is an int in [lo, hi)."""
    return np.array([_int(v, name, lo, hi) for v in values], dtype=np.int64)


def scene_to_doc(scene: SyntheticScene) -> dict:
    doc = _envelope("scene")
    doc.update(
        seed=scene.seed,
        rng=RNG_FAMILY,
        config=asdict(scene.config),
        gt_boxes=[_box_doc(b) for b in scene.gt_boxes],
        points=scene.points.tolist(),
        features=scene.features.tolist(),
        point_gt_labels=scene.point_gt_labels.tolist(),
    )
    return doc


def scene_from_doc(doc: dict) -> SyntheticScene:
    check_schema(doc, "scene")
    try:
        config = from_doc(SceneConfig, doc["config"], "scene config")
        gt_boxes = [_box_from(b) for b in doc["gt_boxes"]]
        for b in gt_boxes:
            if b.class_id is not None:
                _int(b.class_id, "ground-truth class_id", 0, config.num_classes)
        scene = SyntheticScene(
            gt_boxes=gt_boxes,
            points=_rows(doc["points"], 3),
            features=_rows(doc["features"]),
            point_gt_labels=_ints(doc["point_gt_labels"], "point_gt_label", -1, len(gt_boxes)),
            seed=_int(doc["seed"], "seed", 0, 2**64),
            config=config,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed scene document: {exc}") from exc
    lengths = (len(scene.points), len(scene.features), len(scene.point_gt_labels))
    if len(set(lengths)) > 1:
        raise DataError(f"scene points, features and point_gt_labels differ in length: {lengths}")
    return scene


def detection_doc(d) -> dict:
    return {
        "box": _box_doc(d.box),
        "score": d.score,
        "class_id": d.class_id,
        "stage": d.stage,
    }


def _stage_doc(rec: StageRecord) -> dict:
    props, preds = rec.proposals_in, rec.predictions
    return {
        "stage": rec.stage,
        "mu": rec.mu,
        "proposals_in": [
            {"point": p, "feature": f, "origin_index": o, "denoising_gt": None if g < 0 else g}
            for p, f, o, g in zip(props.points.tolist(), props.features.tolist(),
                                  props.origin_index.tolist(), props.denoising_gt.tolist())
        ],
        "predictions": [
            {"class_probs": p, "deltas": d, "centerness": c}
            for p, d, c in zip(preds.class_probs.tolist(), preds.deltas.tolist(),
                               preds.centerness.tolist())
        ],
    }


def trace_to_doc(trace: StageTrace, scene_seed: int | None = None) -> dict:
    doc = _envelope("trace")
    if scene_seed is not None:
        doc["scene_seed"] = scene_seed
    doc["gts"] = None if trace.gts is None else [_box_doc(b) for b in trace.gts]
    doc["stages"] = [_stage_doc(rec) for rec in trace.stages]
    return doc


def _mu(v, gts: list[OrientedBox] | None) -> float | None:
    """v itself; ValueError unless it is null without ground truth, or a number
    in (0, 1] with it."""
    if gts is None:
        if v is not None:
            raise ValueError(f"mu {v!r} in a trace without ground truth")
    elif not (type(v) in (int, float) and 0.0 < v <= 1.0):
        raise ValueError(f"mu {v!r} is not a number in (0, 1]")
    return v


def _stage_from(l: int, rec: dict, gts: list[OrientedBox] | None) -> StageRecord:
    """Stage l's record, rebuilt from its inputs and predictions by stage_record."""
    props, preds = rec["proposals_in"], rec["predictions"]
    pins = [p["denoising_gt"] for p in props]
    _ints([g for g in pins if g is not None], "denoising_gt", 0)
    proposals = Proposals(
        points=_rows([p["point"] for p in props], 3),
        features=_rows([p["feature"] for p in props]),
        origin_index=_ints([p["origin_index"] for p in props], "origin_index", 0),
        denoising_gt=np.array([-1 if g is None else g for g in pins], dtype=np.int64),
    )
    predictions = Predictions(
        # An empty stage has no row to take the class count from; one class
        # plus background is the narrowest width the predictor contract allows.
        class_probs=_rows([pr["class_probs"] for pr in preds], None if preds else 2),
        deltas=_rows([pr["deltas"] for pr in preds], 7),
        centerness=np.array([pr["centerness"] for pr in preds], dtype=np.float64),
    )
    return stage_record(_int(rec["stage"], "stage", l, l + 1), _mu(rec["mu"], gts),
                        proposals, predictions, gts)


def trace_from_doc(doc: dict) -> StageTrace:
    check_schema(doc, "trace")
    try:
        gts = None if doc["gts"] is None else [_box_from(b) for b in doc["gts"]]
        stages = [_stage_from(l, rec, gts) for l, rec in enumerate(doc["stages"], start=1)]
        return StageTrace(stages=stages, gts=gts)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed trace document: {exc}") from exc
    except (PredictorOutputError, InvalidDeltasError) as exc:
        raise DataError(f"trace predictions break the predictor contract: {exc}") from exc


def _branch_doc(bp: BranchParams) -> dict:
    return {
        "w1": bp.w1.tolist(),
        "b1": bp.b1.tolist(),
        "w2": bp.w2.tolist(),
        "b2": bp.b2.tolist(),
    }


def _branch_from(doc: dict, rows: int, hidden: int, out: int) -> BranchParams:
    """The branch read from doc; ValueError unless its arrays are finite and shaped."""
    shapes = {"w1": (rows, hidden), "b1": (hidden,), "w2": (hidden, out), "b2": (out,)}
    arrays = {}
    for name, shape in shapes.items():
        a = np.asarray(doc[name], dtype=np.float64)
        if a.shape != shape:
            raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
        if not np.isfinite(a).all():
            raise ValueError(f"{name} holds non-finite values")
        arrays[name] = a
    return BranchParams(**arrays)


def model_to_doc(params: HeadParams) -> dict:
    doc = _envelope("model")
    doc.update(
        feature_dim=params.feature_dim,
        num_classes=params.num_classes,
        hidden=params.hidden,
        num_stages=params.num_stages,
        stages=[
            {name: _branch_doc(bp) for name, bp in sp.branches().items()}
            for sp in params.stages
        ],
    )
    return doc


def model_from_doc(doc: dict) -> HeadParams:
    check_schema(doc, "model")
    try:
        f, c, h, num_stages = (
            _int(doc[k], k, 1) for k in ("feature_dim", "num_classes", "hidden", "num_stages")
        )
        outputs = {"cls": c + 1, "reg": 7, "cent": 1}
        stages = [
            StageParams(**{name: _branch_from(sp[name], f, h, out) for name, out in outputs.items()})
            for sp in doc["stages"]
        ]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed model document: {exc}") from exc
    if num_stages != len(stages):
        raise DataError(f"model declares {num_stages} stages but carries {len(stages)}")
    return HeadParams(stages=stages, feature_dim=f, num_classes=c, hidden=h)


def ap_to_doc(result: ApResult) -> dict:
    doc = _envelope("ap")
    doc["results"] = [
        {
            "iou_threshold": r.iou_threshold,
            "mean_ap": r.mean_ap,
            "ap_per_class": {str(c): ap for c, ap in sorted(r.ap_per_class.items())},
            "pr_curves": {
                str(c): {"recalls": list(rec), "precisions": list(prec)}
                for c, (rec, prec) in sorted(r.pr_curves.items())
            },
        }
        for r in result.results
    ]
    return doc


def ap_from_doc(doc: dict) -> ApResult:
    check_schema(doc, "ap")
    try:
        results = [
            ThresholdResult(
                iou_threshold=r["iou_threshold"],
                ap_per_class={int(c): ap for c, ap in r["ap_per_class"].items()},
                mean_ap=r["mean_ap"],
                pr_curves={
                    int(c): (list(v["recalls"]), list(v["precisions"]))
                    for c, v in r["pr_curves"].items()
                },
            )
            for r in doc["results"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed ap document: {exc}") from exc
    return ApResult(results=results)


def _csv_num(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def stats_csv(stats: CascadeStats) -> str:
    """One row per stage with the pinned column set."""
    lines = [",".join(STATS_CSV_COLUMNS)]
    for s in stats.stages:
        lines.append(
            ",".join(
                _csv_num(v)
                for v in (
                    s.stage,
                    s.mu,
                    s.positives,
                    s.mean_centerness_before,
                    s.mean_centerness_after,
                    s.spearman_rho,
                )
            )
        )
    return "\n".join(lines) + "\n"


def loss_csv(history: list[LossReport], num_stages: int) -> str:
    """One row per step; per stage a (cls, reg, cent, total, positives) group."""
    by_step: dict[int, dict[int, LossReport]] = {}
    for rep in history:
        by_step.setdefault(rep.step, {})[rep.stage] = rep
    header = ["step"]
    for l in range(1, num_stages + 1):
        header.extend(
            f"{name}_s{l}" for name in ("cls", "reg", "cent", "total", "positives")
        )
    lines = [",".join(header)]
    for step in sorted(by_step):
        row = [str(step)]
        for l in range(1, num_stages + 1):
            rep = by_step[step].get(l)
            if rep is None:
                raise DataError(f"loss history missing stage {l} at step {step}")
            row.extend(
                _csv_num(v)
                for v in (
                    rep.classification_loss,
                    rep.regression_loss,
                    rep.centerness_loss,
                    rep.total,
                    rep.positive_count,
                )
            )
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
