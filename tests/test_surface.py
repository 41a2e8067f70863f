"""The package's surface: its public names, pinned, and no unused imports.

A change that adds or removes a public name of ``flipdist`` has to edit the
pin below, so the count is tracked where it changes.  The import check is a
small AST scan rather than a linter: every name a module of ``src/flipdist``
(except ``__init__.py``, whose imports are the surface) or of ``tests/``
imports must be read somewhere in that module, unless its import statement
carries ``# noqa: F401`` with the reason it stays.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = [
    "Action", "BadIndex", "COORD_BOUND", "Composition", "Edge", "EdgeAbsent", "ExhaustedRetries",
    "FlipBack", "FlipDag", "FlipDistError", "FlipGraphStats", "FlipRecord", "FlipSequence",
    "Instance", "InstanceSyntaxError", "InvalidAt", "IterationShape", "Move", "NoFlippableEdge",
    "NotFlippable", "NotMaximal", "NotPlanar", "Point", "PointSet", "PointSetMismatch",
    "SolveResult", "TooLarge", "Triangle", "Triangulation", "ValidationError", "bfs_distance",
    "build", "build_dag", "canonical_key", "check_reordering", "compositions", "convex_hull_edges",
    "edge_neighbors", "errors", "flip", "flip_distance_upto", "flipdag", "gen_convex",
    "gen_random_points", "geometry", "graph_stats", "initial_triangulation", "instances",
    "is_flippable", "iteration_shapes", "make_edge", "oracle", "orient", "parse",
    "random_walk_triangulation", "replay", "search_exact", "search_upto", "serialize", "solver",
    "topological_sorts_sample", "transform", "triangulation",
]


def test_public_names_are_pinned():
    # a fresh interpreter: in this one, any submodule a test imported is an
    # attribute of the package too
    proc = subprocess.run(
        [sys.executable, "-c",
         "import flipdist; print(*sorted(n for n in vars(flipdist) if not n.startswith('_')))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 63


def unused_imports(path: Path) -> list[str]:
    """The names an import statement of ``path`` binds and the module never
    reads, skipping statements marked ``# noqa: F401``."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read]


MODULES = sorted(p for p in (ROOT / "src" / "flipdist").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.relative_to(ROOT).as_posix() for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_sees_an_unmarked_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nfrom sys import argv, path  # noqa: F401\nfrom json import dumps\n"
                      "dumps(os.sep)\n")
    assert unused_imports(module) == []
    module.write_text("import os\nfrom json import dumps, loads\nloads(os.sep)\n")
    assert unused_imports(module) == ["module.py:2: dumps"]
