"""Rules on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import cofreehopf

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = (*_FUNCTIONS, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _stem(parts: list[str]) -> str:
    """The package module a dotted name ``package[.m]`` names."""
    return parts[1] if len(parts) > 1 else "__init__"


class _Module:
    """A parsed file, and what each name it binds refers to: ``("module", m)``
    for a package module (``__init__`` for the package itself), ``("from", m,
    x)`` for the name x of module m, ``("def", m, x)`` for a definition."""

    def __init__(self, path: Path, package: str, in_package: bool):
        self.stem = path.stem
        self.tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        self.bindings: dict[str, tuple] = {}
        for node in ast.walk(self.tree):  # imports anywhere in the file
            if isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if parts[0] != package:
                        continue
                    if alias.asname:
                        self.bindings[alias.asname] = ("module", _stem(parts))
                    else:
                        self.bindings[package] = ("module", "__init__")
            elif isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".")
                if node.level and in_package:
                    base = parts[0] or "__init__"
                elif not node.level and parts[0] == package:
                    base = _stem(parts)
                else:
                    continue
                for alias in node.names:
                    self.bindings[alias.asname or alias.name] = ("from", base, alias.name)
        if not in_package:
            return
        for node in self.tree.body:
            if isinstance(node, _DEFINITIONS):
                self.bindings[node.name] = ("def", self.stem, node.name)
            elif isinstance(node, ast.Assign) and [
                    getattr(target, "id", None) for target in node.targets] == ["_EXPORTS"]:
                # the lazy exports of ``__init__``: ``package.x`` is ``package.m.x``
                for module, names in ast.literal_eval(node.value).items():
                    self.bindings.update((name, ("from", module, name)) for name in names)


def dead_definitions(package: Path, callers: list[Path], roots=()) -> list[str]:
    """The definitions of ``package`` that no reachable code uses.

    A top-level function or class ``m.f`` is used where a reference
    resolves to it: ``f`` in ``m``, a name bound by ``from .m import f``,
    ``m.f``, or ``package.f`` through the ``_EXPORTS`` of ``__init__``.  A
    method or property ``m.C.f`` of a used class is used where any
    attribute ``f`` is read; a dunder always is.  Only reachable code
    counts: every module-level statement of the package, every statement
    of ``callers``, the definitions named in ``roots``, and then the body
    of each definition that reachable code uses.
    """
    modules = {path.stem: _Module(path, package.name, True)
               for path in sorted(package.glob("*.py"))}

    def resolve(target):
        while target and target[0] == "from":
            stem, name = target[1:]
            target = ("module", name) if stem == "__init__" and name in modules \
                else modules[stem].bindings.get(name)
        return target

    names, attributes = set(), set()  # the definitions and attributes reachable code reads

    def read(bindings: dict, nodes) -> None:
        def refers_to(expr):
            if isinstance(expr, ast.Name):
                return resolve(bindings.get(expr.id))
            if isinstance(expr, ast.Attribute):
                base = refers_to(expr.value)
                if base and base[0] == "module":
                    return resolve(("from", base[1], expr.attr))
            return None

        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Name, ast.Attribute)):
                    target = refers_to(sub)
                    if target and target[0] == "def":
                        names.add(f"{target[1]}.{target[2]}")
                    elif target is None and isinstance(sub, ast.Attribute) \
                            and isinstance(sub.ctx, ast.Load):
                        attributes.add(sub.attr)

    definitions = {}  # m.f or m.C.f -> (its module, its nodes, its class m.C or None)
    for module in modules.values():
        read(module.bindings, [node for node in module.tree.body
                               if not isinstance(node, _DEFINITIONS)])
        for node in module.tree.body:
            if not isinstance(node, _DEFINITIONS):
                continue
            key = f"{module.stem}.{node.name}"
            if isinstance(node, ast.ClassDef):
                methods = [item for item in node.body if isinstance(item, _FUNCTIONS)]
                definitions[key] = (module, [*node.decorator_list, *node.bases, *node.keywords,
                                             *(item for item in node.body
                                               if item not in methods)], None)
                definitions.update((f"{key}.{item.name}", (module, [item], key))
                                   for item in methods)
            else:
                definitions[key] = (module, [node], None)
    for path in callers:
        caller = _Module(path, package.name, False)
        read(caller.bindings, caller.tree.body)

    def used(key: str, owner) -> bool:
        name = key.rsplit(".", 1)[1]
        if owner is None:
            return _is_dunder(name) or key in names
        return owner in live and (_is_dunder(name) or name in attributes)

    def newly_used() -> set[str]:
        return {key for key, (_, _, owner) in definitions.items()
                if key not in live and used(key, owner)}

    live = set()
    new = set(roots) & set(definitions) | newly_used()
    while new:
        live |= new
        for key in new:
            module, nodes, _ = definitions[key]
            read(module.bindings, nodes)
        new = newly_used()
    return [key for key, (_, _, owner) in definitions.items()
            if key not in live and (owner is None or owner in live)]


def _traced_names() -> list[str]:
    """The package functions and methods that ``perfbench/tracing.py`` wraps by name."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    tables = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None)
              in ("FUNCTIONS", "METHODS")}
    return [*(f"{_stem(module.split('.'))}.{name}"
              for module, names in tables["FUNCTIONS"].values() for name in names),
            *(f"{_stem(module.split('.'))}.{cls}.{name}"
              for module, cls, names in tables["METHODS"].values() for name in names)]


def test_every_package_definition_has_a_caller():
    # the package holds what its CLI, its checks and the benchmark reach;
    # an oracle that only the tests call lives in the tests
    package = Path(cofreehopf.__file__).parent
    roots = ["cli.entry", *_traced_names()]  # the console script, and what perfbench wraps
    assert dead_definitions(package, sorted(PERFBENCH.glob("*.py")), roots) == []


def test_the_rule_resolves_by_module_and_follows_reachability(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    files = {
        "__init__.py": '_EXPORTS = {"lazy": ("exported",)}\n',
        "__main__.py": "from .b import run\n\nrun()\n",
        "lazy.py": "def exported():\n    return 0\n",
        # helper shares its name with b.helper, the one that is called; dead is
        # never called, and named_only_by_dead only by dead
        "a.py": "def helper():\n    return 1\n\n\n"
                "def dead():\n    return named_only_by_dead()\n\n\n"
                "def named_only_by_dead():\n    return 2\n\n\n"
                "class Box:\n    def used(self):\n        return 3\n\n"
                "    def tested(self):\n        return self.used()\n",
        "b.py": "from .a import Box\n\n\ndef helper():\n    return Box().used()\n\n\n"
                "def run():\n    return helper()\n",
    }
    for name, text in files.items():
        (package / name).write_text(text, encoding="utf-8")
    bench = tmp_path / "bench.py"
    bench.write_text("import pkg\n\npkg.exported()\n", encoding="utf-8")
    test = tmp_path / "test_pkg.py"
    test.write_text("from pkg.a import Box, helper\n\nBox().tested()\nhelper()\n",
                    encoding="utf-8")
    assert dead_definitions(package, [bench]) \
        == ["a.helper", "a.dead", "a.named_only_by_dead", "a.Box.tested"]
    assert dead_definitions(package, [bench, test]) == ["a.dead", "a.named_only_by_dead"]
    assert dead_definitions(package, [bench], roots=["a.dead"]) == ["a.helper", "a.Box.tested"]


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
