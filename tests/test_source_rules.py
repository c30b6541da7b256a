"""Rules on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import cofreehopf

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _names_read(node) -> set[str]:
    """The names a statement reads: bare names, attributes and imported names.
    Strings, docstrings and comments name nothing."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def dead_definitions(package: Path, callers: list[Path]) -> list[str]:
    """Top-level functions and classes of ``package`` (``__init__.py`` aside)
    that no statement names outside their own definition, in the package or
    in ``callers``."""
    statements = []  # (module, statement, the names it reads)
    for path in sorted(package.glob("*.py")) + callers:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        statements += [(path, node, _names_read(node)) for node in tree.body]
    dead = []
    for path, node, _ in statements:
        if path.parent != package or path.name == "__init__.py" or not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not any(node.name in names for _, other, names in statements if other is not node):
            dead.append(f"{path.stem}.{node.name}")
    return dead


def test_every_package_definition_has_a_caller():
    # the package holds what its CLI, its checks and the benchmark reach;
    # an oracle that only the tests call lives in the tests
    package = Path(cofreehopf.__file__).parent
    assert dead_definitions(package, sorted(PERFBENCH.glob("*.py"))) == []


def test_package_has_no_assert_statements():
    # Invariants must be real checks: ``python -O`` strips assert statements.
    root = Path(cofreehopf.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_package_does_not_import_dataclasses():
    # its import chain (inspect, ast, dis, tokenize) would be paid by every cold CLI call
    root = Path(cofreehopf.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "dataclasses"]
    assert found == []
