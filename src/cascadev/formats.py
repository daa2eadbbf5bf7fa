"""Versioned JSON/CSV serialization for pipeline artifacts.

Every JSON document carries a `kind` tag and a `schema_version`;
readers accept any minor revision of the supported major version and
reject the rest, so 1.x and 2.x files are a SchemaVersionError. Dumps
are compact and canonical (sorted keys, no whitespace), so rerunning a
command with the same config and seeds reproduces files byte for byte.
Without an indent json.dumps runs the C encoder. CSV numbers use repr
for the same reason.

An array column is one object {"base64", "dtype", "shape"}: the array's
little-endian float64 ("<f8") or int64 ("<i8") bytes in C order,
base64-encoded, so it reads back bit for bit and no float is printed or
parsed as text. Box rows stay JSON numbers.

A trace stores what the cascade cannot derive: the ground truth, the
schedule, the voting weighting, stage 1's proposals and every stage's
predictions, all as columns. The reader replays the stored predictions
through run_cascade, the loop the run took, so it gives back the
records the run computed, and a trace whose predictions break the
predictor contract does not read.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .assignment import CpaSchedule
from .cascade import Predictions, Proposals, StageTrace, run_cascade
from .config import from_doc
from .errors import DataError, InvalidDeltasError, PredictorOutputError, SchemaVersionError
from .evaluation import ApResult, CascadeStats, ThresholdResult
from .geometry import EPS, MAX_COORD, Boxes, OrientedBox, Point3
from .learner import BranchParams, HeadParams, LossReport, StageParams
from .synth import SceneConfig, SyntheticScene
from .voting import WEIGHTINGS

SCHEMA_VERSION = "3.0"
RNG_FAMILY = "philox4x64"
COLUMN_DTYPES = {"<f8": np.float64, "<i8": np.int64}

PROPOSAL_COLUMNS = ("points", "features", "origin_index", "denoising_gt")
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
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nesting too deep
        raise DataError(f"invalid JSON in {path}: {exc}") from exc
    check_schema(doc, kind)
    return doc


def _box_doc(b: OrientedBox) -> dict:
    return {
        "center": [b.center.x, b.center.y, b.center.z],
        "size": list(b.size),
        "yaw": b.yaw,
        "class_id": b.class_id,
    }


def _num(v, name: str, bound: float = sys.float_info.max):
    """v itself; ValueError unless it is a number other than a bool of magnitude at most bound."""
    if not (type(v) in (int, float) and abs(v) <= bound):
        raise ValueError(f"{name} {v!r} is not a finite number of magnitude at most {bound:g}")
    return v


def _box_from(doc: dict, num_classes: float) -> OrientedBox:
    """A box whose numbers are finite, center and size within MAX_COORD as in decode_boxes,
    and class_id null or an int in [0, num_classes); ValueError otherwise."""
    class_id = doc["class_id"]
    return OrientedBox(
        center=Point3(*(_num(v, "box center", MAX_COORD) for v in doc["center"])),
        size=tuple(_num(v, "box size", MAX_COORD) for v in doc["size"]),
        yaw=_num(doc["yaw"], "box yaw"),
        class_id=None if class_id is None else _int(class_id, "ground-truth class_id", 0,
                                                     num_classes),
    )


def _int(v, name: str, lo: int, hi: float = float("inf")) -> int:
    """v itself; ValueError unless it is an int in [lo, hi)."""
    if not (type(v) is int and lo <= v < hi):
        raise ValueError(f"{name} {v!r} is not an int in [{lo}, {hi})")
    return v


def _inside(rows: np.ndarray, workspace, name: str) -> np.ndarray:
    """rows (N, 3) itself; ValueError naming the first row outside workspace widened by EPS."""
    lo, hi = np.array(workspace).T
    bad = ((rows < lo - EPS) | (rows > hi + EPS)).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{name} {i} at {rows[i].tolist()} lies outside the workspace "
                         f"{workspace}")
    return rows


def _column_doc(a: np.ndarray) -> dict:
    """a as a column object: its little-endian int64 or float64 bytes in C order, in base64."""
    dtype = "<i8" if a.dtype.kind == "i" else "<f8"
    raw = np.asarray(a, dtype=dtype).tobytes()
    return {"base64": base64.b64encode(raw).decode("ascii"), "dtype": dtype,
            "shape": list(a.shape)}


def _column(doc, name: str, dtype: str, shape: tuple, lo: int | None = None,
            hi: float = math.inf) -> np.ndarray:
    """The column object doc as an owned native array; ValueError naming the column unless its
    dtype is dtype, its shape matches shape (None matching any extent), its bytes fill that
    shape, its floats are finite and, with lo given, its ints lie in [lo, hi)."""
    if not (isinstance(doc, dict) and doc.keys() == {"base64", "dtype", "shape"}):
        raise ValueError(f"{name} is not a column object {{base64, dtype, shape}}")
    if doc["dtype"] != dtype:
        raise ValueError(f"{name} dtype {doc['dtype']!r} is not {dtype!r}")
    got = doc["shape"]
    if not (type(got) is list and all(type(n) is int and n >= 0 for n in got)):
        raise ValueError(f"{name} shape {got!r} is not a list of ints >= 0")
    got = tuple(got)
    if len(got) != len(shape) or any(w not in (None, n) for n, w in zip(got, shape)):
        if len(got) == len(shape) == 2 and shape[0] is None:
            raise ValueError(f"{name} rows are {got[1]} wide, expected {shape[1]}")
        raise ValueError(f"{name} has shape {got}, expected {shape}")
    try:
        raw = base64.b64decode(doc["base64"], validate=True)
    except (TypeError, ValueError) as exc:  # not a string, binascii.Error, or beyond ASCII
        raise ValueError(f"{name} is not valid base64: {exc}") from None
    if len(raw) != 8 * math.prod(got):
        raise ValueError(f"{name} holds {len(raw)} bytes, shape {got} needs {8 * math.prod(got)}")
    a = np.frombuffer(raw, dtype=dtype).reshape(got).astype(COLUMN_DTYPES[dtype])
    if a.dtype.kind == "f" and not np.isfinite(a).all():
        raise ValueError(f"{name} holds non-finite values")
    if lo is not None:
        bad = (a < lo) | (a >= hi)
        if bad.any():
            raise ValueError(f"{name} {a[np.argmax(bad)]} is not an int in [{lo}, {hi})")
    return a


def scene_to_doc(scene: SyntheticScene) -> dict:
    doc = _envelope("scene")
    doc.update(
        seed=scene.seed,
        rng=RNG_FAMILY,
        config=asdict(scene.config),
        gt_boxes=[_box_doc(b) for b in scene.gt_boxes],
        points=_column_doc(scene.points),
        features=_column_doc(scene.features),
        point_gt_labels=_column_doc(scene.point_gt_labels),
    )
    return doc


def scene_from_doc(doc: dict) -> SyntheticScene:
    check_schema(doc, "scene")
    try:
        config = from_doc(SceneConfig, doc["config"], "scene config")
        gt_boxes = Boxes.of([_box_from(b, config.num_classes) for b in doc["gt_boxes"]])
        _inside(gt_boxes.centers, config.workspace, "ground-truth box center")
        scene = SyntheticScene(
            gt_boxes=gt_boxes,
            points=_inside(_column(doc["points"], "points", "<f8", (None, 3)), config.workspace,
                           "point"),
            features=_column(doc["features"], "features", "<f8", (None, config.feature_dim)),
            point_gt_labels=_column(doc["point_gt_labels"], "point_gt_labels", "<i8", (None,),
                                    -1, len(gt_boxes)),
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


def trace_to_doc(trace: StageTrace, scene_seed: int | None = None) -> dict:
    doc = _envelope("trace")
    if scene_seed is not None:
        doc["scene_seed"] = scene_seed
    props = trace.stages[0].proposals_in
    doc.update(
        gts=None if trace.gts is None else [_box_doc(b) for b in trace.gts],
        schedule=asdict(trace.schedule),
        weighting=trace.weighting,
        proposals={k: _column_doc(getattr(props, k)) for k in PROPOSAL_COLUMNS},
        predictions=[
            {k: _column_doc(getattr(rec.predictions, k))
             for k in ("class_probs", "deltas", "centerness")}
            for rec in trace.stages
        ],
    )
    return doc


def _predictions(doc: dict, l: int, width: int) -> Predictions:
    return Predictions(
        class_probs=_column(doc["class_probs"], f"stage {l} class_probs", "<f8", (None, width)),
        deltas=_column(doc["deltas"], f"stage {l} deltas", "<f8", (None, 7)),
        centerness=_column(doc["centerness"], f"stage {l} centerness", "<f8", (None,)),
    )


def trace_from_doc(doc: dict) -> StageTrace:
    """The trace run_cascade gives when it replays doc's stored predictions on
    its stage-1 proposals, with its schedule, weighting and ground truth."""
    check_schema(doc, "trace")
    try:
        schedule = from_doc(CpaSchedule, doc["schedule"], "schedule")
        weighting = doc["weighting"]
        if weighting not in WEIGHTINGS:
            raise ValueError(f"unknown weighting {weighting!r}, expected one of {WEIGHTINGS}")
        stored = doc["predictions"]
        if len(stored) != schedule.num_stages:
            raise ValueError(f"{len(stored)} stages of predictions for a "
                             f"{schedule.num_stages}-stage schedule")
        # Every stage's class_probs rows are as wide as stage 1's, even without
        # rows, and class ids lie below that width less background.
        width = _column(stored[0]["class_probs"], "stage 1 class_probs", "<f8",
                        (None, None)).shape[1]
        replay = [_predictions(p, l, width) for l, p in enumerate(stored, start=1)]
        gts = None if doc["gts"] is None else Boxes.of([_box_from(b, width - 1)
                                                         for b in doc["gts"]])
        props = doc["proposals"]
        proposals = Proposals(
            points=_column(props["points"], "points", "<f8", (None, 3)),
            features=_column(props["features"], "features", "<f8", (None, None)),
            origin_index=_column(props["origin_index"], "origin_index", "<i8", (None,), 0),
            denoising_gt=_column(props["denoising_gt"], "denoising_gt", "<i8", (None,), -1,
                                 math.inf if gts is None else len(gts)),
        )
        lengths = [len(getattr(proposals, k)) for k in PROPOSAL_COLUMNS]
        if len(set(lengths)) > 1:
            raise ValueError(f"proposal points, features, origin_index and denoising_gt differ "
                             f"in length: {lengths}")
        return run_cascade(proposals, [lambda _, p=p: p for p in replay], schedule, gts,
                           weighting=weighting)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed trace document: {exc}") from exc
    except (PredictorOutputError, InvalidDeltasError) as exc:
        raise DataError(f"trace predictions break the predictor contract: {exc}") from exc


def _branch_doc(bp: BranchParams) -> dict:
    return {k: _column_doc(getattr(bp, k)) for k in ("w1", "b1", "w2", "b2")}


def _branch_from(doc: dict, rows: int, hidden: int, out: int) -> BranchParams:
    """The branch read from doc; ValueError unless its arrays are finite and shaped."""
    shapes = {"w1": (rows, hidden), "b1": (hidden,), "w2": (hidden, out), "b2": (out,)}
    return BranchParams(**{k: _column(doc[k], k, "<f8", shape) for k, shape in shapes.items()})


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
    """One row per stage with the pinned column set, each a StageStats field."""
    lines = [",".join(STATS_CSV_COLUMNS)]
    lines += [",".join(_csv_num(getattr(s, c)) for c in STATS_CSV_COLUMNS) for s in stats.stages]
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
            row.extend(_csv_num(v) for v in (rep.classification_loss, rep.regression_loss,
                                             rep.centerness_loss, rep.total, rep.positive_count))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
