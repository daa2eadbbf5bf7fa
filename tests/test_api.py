"""The package root exports the pipeline's API and nothing else.

The root keeps the submodules, the error classes, the entry points and the
types callers build or get back from them; every other name lives in its
own module. The README's Python API block runs here verbatim.
"""

import ast
import contextlib
import io
import os
import re

import pytest

import cascadev

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SUBMODULES = {"assignment", "cascade", "cli", "errors", "evaluation", "formats", "geometry",
              "learner", "overlap", "synth", "voting"}
ERRORS = {"CascadevError", "ConfigError", "DataError", "InvalidDeltasError", "NumericalError",
          "PlacementError", "PredictorOutputError", "SchemaVersionError",
          "TrainingDivergedError", "WrongVariantError"}
ENTRY_POINTS = {"gen_scene", "scene_proposals", "oracle_seed_centerness", "oracle_predictor",
                "uniform_seed_scores", "run_cascade", "ensemble_stages", "evaluate_scenes",
                "cascade_stats", "train_cascade", "head_predictors", "iou_mc", "read_json",
                "write_json"}
TYPES = {"CpaSchedule", "SceneConfig", "OracleNoise", "LossWeights", "Boxes", "OrientedBox",
         "Point3", "Proposals", "Predictions", "SyntheticScene", "StageTrace", "Detections",
         "Detection", "ApResult", "CascadeStats", "HeadParams", "LossReport"}


def perfbench_root_names() -> set[str]:
    """Root names perfbench/ reads (`cv.X`, `self.cv.X`, `cascadev.X`) or
    patches (`patch(cv, "X", ...)`), dunders left out."""
    names = set()
    bench = os.path.join(ROOT, "perfbench")

    def is_root(node) -> bool:
        return (isinstance(node, ast.Name) and node.id in ("cv", "cascadev")
                or isinstance(node, ast.Attribute) and node.attr == "cv")

    for fname in sorted(os.listdir(bench)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(bench, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and is_root(node.value):
                names.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "patch" and is_root(node.args[0])):
                names.add(node.args[1].value)
    return {n for n in names if not n.startswith("__")}


def test_root_exports_exactly_the_pipeline_api():
    assert set(cascadev.__all__) == SUBMODULES | ERRORS | ENTRY_POINTS | TYPES
    assert len(cascadev.__all__) == len(set(cascadev.__all__))
    for name in cascadev.__all__:
        assert getattr(cascadev, name) is not None, name


def test_root_holds_every_name_perfbench_uses():
    used = perfbench_root_names()
    assert {"run_cascade", "train_cascade", "head_predictors", "cli"} <= used
    assert used <= set(cascadev.__all__), sorted(used - set(cascadev.__all__))


def test_readme_python_api_block_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme[readme.index("## Python API"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    maps = [float(v) for v in out.getvalue().split()]
    assert len(maps) == 2 and all(0.0 <= v <= 1.0 for v in maps)


@pytest.mark.parametrize("name, shrink", [
    ("cli-small", {"NUM_SCENES": 2}),
    ("detect-large", {"BOX_COUNTS": (3,), "B": 64}),
    ("train", {"STEPS": 4}),
])
def test_benchmark_workload_round_reads_the_pipeline_output(name, shrink, tmp_path, monkeypatch):
    # Seed 1 has no reference values, so a round checks only what it reads of
    # the outputs: a type change the benchmark cannot read fails here.
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    from bench_stats import Ledger
    from bench_workloads import WORKLOADS

    wl = WORKLOADS[name](cascadev, 1, str(tmp_path / "work"), {})
    for attr, value in shrink.items():
        setattr(wl, attr, value)
    wl.setup()
    ledger = Ledger()
    assert wl.round(0, ledger)["ok"], ledger.notes
    assert ledger.failed == 0, ledger.notes
