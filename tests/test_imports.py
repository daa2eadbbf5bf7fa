"""Every import in the package is read, or is a name the traced benchmark patches.

No linter ships with the project, so this walks each module's syntax tree.
An imported name that its module never reads must be one that
perfbench/bench_trace.py's `instrument` replaces on that module; those are
found by comparing the module's attributes before and after `instrument`.
Once the tracer stops patching a name, this test names the import to delete.
The package also runs on NumPy alone: importing it loads no SciPy module.
"""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import cascadev

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "cascadev")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from bench_trace import Tracer, instrument  # noqa: E402

MODULES = sorted(name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py"))


def unused_imports(source: str) -> list[str]:
    """Names that source imports and never reads, `__all__` entries counting as reads."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts)
    return sorted(imported - used)


def _module(name: str):
    return cascadev if name == "__init__" else importlib.import_module(f"cascadev.{name}")


@pytest.fixture(scope="module")
def patched() -> dict[str, set[str]]:
    """Per module, the attributes instrument replaces on it."""
    before = {name: dict(vars(_module(name))) for name in MODULES}
    undo = instrument(Tracer(), cascadev)
    try:
        after = {name: dict(vars(_module(name))) for name in MODULES}
    finally:
        undo()
    return {name: {k for k, v in before[name].items() if after[name].get(k) is not v}
            for name in MODULES}


def test_unused_imports_finds_a_dead_import():
    src = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
           "from .x import a, b\n__all__ = ['b']\nnp.zeros(len(os.sep))\n")
    assert unused_imports(src) == ["a"]


def test_instrument_patches_names_on_the_learner(patched):
    assert {"ia_voting", "assign_targets", "compute_losses"} <= patched["learner"]


@pytest.mark.parametrize("name", MODULES)
def test_every_unused_import_is_patched_by_the_tracer(name, patched):
    with open(os.path.join(PACKAGE, f"{name}.py"), encoding="utf-8") as fh:
        unused = unused_imports(fh.read())
    dead = [n for n in unused if n not in patched[name]]
    assert not dead, f"cascadev/{name}.py imports {dead} and never reads them"


def test_package_import_loads_no_scipy():
    probe = ("import sys, cascadev, cascadev.cli; "
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
