"""Every public module-level name in the package is read by the package or the benchmark.

A name counts as read when a package module other than `__init__` (its
own module included) loads it, imports it or reads it as an attribute,
or when a file under perfbench/ does so or names it in a string (the
tracer patches attributes by name). The package root's re-exports do not
count: a name only tests use is API nothing in the pipeline needs.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "cascadev")
BENCH = os.path.join(ROOT, "perfbench")


def _trees(folder: str) -> dict[str, ast.Module]:
    trees = {}
    for fname in sorted(os.listdir(folder)):
        if fname.endswith(".py"):
            with open(os.path.join(folder, fname), encoding="utf-8") as fh:
                trees[fname[:-3]] = ast.parse(fh.read())
    return trees


def defined_names(tree: ast.Module) -> set[str]:
    """Public names a module binds at top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if not n.startswith("_")}


def read_names(tree: ast.Module, strings: bool = False) -> set[str]:
    """Names tree loads, imports from a module or reads as attributes; with strings,
    also every string constant."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unread_names(package: dict[str, ast.Module], bench: dict[str, ast.Module]) -> list[str]:
    """module.name for each public name that no package module but `__init__` reads
    and that nothing under perfbench/ reads."""
    modules = {m: t for m, t in package.items() if m != "__init__"}
    read = set().union(*map(read_names, modules.values()),
                       *(read_names(t, strings=True) for t in bench.values()))
    return sorted(f"{m}.{n}" for m, t in modules.items() for n in defined_names(t) - read)


def test_unread_names_finds_a_test_only_function():
    package = {
        "__init__": ast.parse("from .a import helper, used\n__all__ = ['helper', 'used']\n"),
        "a": ast.parse("LIMIT = 3\ndef helper(): pass\ndef used(): return LIMIT\n"),
        "b": ast.parse("from .a import used\nused()\n"),
    }
    bench = {"run": ast.parse("patch(cv, 'other', f)\n")}
    assert unread_names(package, bench) == ["a.helper"]
    bench = {"run": ast.parse("patch(cv, 'helper', f)\n")}
    assert unread_names(package, bench) == []


def test_every_public_name_is_read_by_the_pipeline_or_the_benchmark():
    unread = unread_names(_trees(PACKAGE), _trees(BENCH))
    assert not unread, f"{unread} are read by no package module and nothing in perfbench/"
