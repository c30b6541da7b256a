"""Rules on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import cofreehopf


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
