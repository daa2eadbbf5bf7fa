"""Cascade point-voting 3D detection: geometry, simulation, training, evaluation.

The package root exports the pipeline's entry points, the types callers
build or get back from them, the error classes and the submodules.
Every other name lives in its own module.
"""

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
from .assignment import CpaSchedule
from .cascade import Predictions, Proposals, StageTrace, ensemble_stages, run_cascade
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
from .evaluation import ApResult, CascadeStats, cascade_stats, evaluate_scenes
from .formats import read_json, write_json
from .geometry import Boxes, OrientedBox, Point3
from .learner import (
    HeadParams,
    LossReport,
    LossWeights,
    head_predictors,
    train_cascade,
    uniform_seed_scores,
)
from .overlap import Detection, Detections, iou_mc
from .synth import (
    OracleNoise,
    SceneConfig,
    SyntheticScene,
    gen_scene,
    oracle_predictor,
    oracle_seed_centerness,
    scene_proposals,
)

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
    "CpaSchedule",
    "Predictions",
    "Proposals",
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
    "cascade_stats",
    "evaluate_scenes",
    "read_json",
    "write_json",
    "Boxes",
    "OrientedBox",
    "Point3",
    "HeadParams",
    "LossReport",
    "LossWeights",
    "head_predictors",
    "train_cascade",
    "uniform_seed_scores",
    "Detection",
    "Detections",
    "iou_mc",
    "OracleNoise",
    "SceneConfig",
    "SyntheticScene",
    "gen_scene",
    "oracle_predictor",
    "oracle_seed_centerness",
    "scene_proposals",
]


def __getattr__(name: str):
    # The CLI loads on first use, so `python -m cascadev.cli` runs it once
    # as __main__ rather than finding it already imported by the package.
    if name == "cli":
        return importlib.import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
