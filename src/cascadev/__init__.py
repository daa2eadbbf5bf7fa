"""Cascade point-voting 3D detection: geometry, simulation, training, evaluation."""

import importlib

from . import (
    assignment,
    cascade,
    errors,
    evaluation,
    formats,
    geometry,
    learner,
    overlap,
    synth,
    voting,
)
from .assignment import (
    Assignment,
    CpaSchedule,
    assign_targets,
    cpa_threshold,
    select_denoising,
    select_top_b,
)
from .cascade import Proposal, StageRecord, StageTrace, ensemble_stages, run_cascade
from .errors import (
    CascadevError,
    ConfigError,
    DataError,
    InvalidDeltasError,
    NumericalError,
    PlacementError,
    PredictorOutputError,
    SchemaVersionError,
    TrainingDivergedError,
    WrongVariantError,
)
from .evaluation import (
    ApResult,
    CascadeStats,
    StageStats,
    ThresholdResult,
    average_precision,
    cascade_stats,
    evaluate_scenes,
)
from .formats import (
    RNG_FAMILY,
    SCHEMA_VERSION,
    canonical_dumps,
    config_hash,
    read_json,
    write_json,
)
from .geometry import (
    EPS,
    Deltas,
    OrientedBox,
    Point3,
    centerness,
    contains_points,
    decode_box,
    encode_deltas,
    point_in_scaled_box,
    update_point,
)
from .learner import (
    HeadParams,
    LossReport,
    LossWeights,
    head_predictor,
    head_predictors,
    init_head_params,
    train_cascade,
    uniform_seed_scores,
)
from .overlap import Detection, iou_aabb, iou_mc, iou_rotated, nms
from .synth import (
    OracleNoise,
    SceneConfig,
    SyntheticScene,
    gen_scene,
    oracle_predictor,
    oracle_seed_centerness,
    scene_proposals,
)
from .voting import ia_voting

__all__ = [
    "assignment",
    "cascade",
    "cli",
    "errors",
    "evaluation",
    "formats",
    "geometry",
    "learner",
    "overlap",
    "synth",
    "voting",
    "Assignment",
    "CpaSchedule",
    "assign_targets",
    "cpa_threshold",
    "select_denoising",
    "select_top_b",
    "Proposal",
    "StageRecord",
    "StageTrace",
    "ensemble_stages",
    "run_cascade",
    "CascadevError",
    "ConfigError",
    "DataError",
    "InvalidDeltasError",
    "NumericalError",
    "PlacementError",
    "PredictorOutputError",
    "SchemaVersionError",
    "TrainingDivergedError",
    "WrongVariantError",
    "ApResult",
    "CascadeStats",
    "StageStats",
    "ThresholdResult",
    "average_precision",
    "cascade_stats",
    "evaluate_scenes",
    "RNG_FAMILY",
    "SCHEMA_VERSION",
    "canonical_dumps",
    "config_hash",
    "read_json",
    "write_json",
    "EPS",
    "Deltas",
    "OrientedBox",
    "Point3",
    "centerness",
    "contains_points",
    "decode_box",
    "encode_deltas",
    "point_in_scaled_box",
    "update_point",
    "HeadParams",
    "LossReport",
    "LossWeights",
    "head_predictor",
    "head_predictors",
    "init_head_params",
    "train_cascade",
    "uniform_seed_scores",
    "Detection",
    "iou_aabb",
    "iou_mc",
    "iou_rotated",
    "nms",
    "OracleNoise",
    "SceneConfig",
    "SyntheticScene",
    "gen_scene",
    "oracle_predictor",
    "oracle_seed_centerness",
    "scene_proposals",
    "ia_voting",
]


def __getattr__(name: str):
    # The CLI loads on first use, so `python -m cascadev.cli` runs it once
    # as __main__ rather than finding it already imported by the package.
    if name == "cli":
        return importlib.import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
