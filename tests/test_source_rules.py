"""Rules on the package source itself."""

from __future__ import annotations

import ast
from functools import partial
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


class _Reach:
    """The definitions of ``package`` and the code reachable from its roots.

    Reachable code is every module-level statement of the package, every
    statement of ``callers``, the definitions named in ``roots``, and then
    the body of each definition that reachable code uses.  A top-level
    function or class ``m.f`` is used where a reference resolves to it:
    ``f`` in ``m``, a name bound by ``from .m import f``, ``m.f``, or
    ``package.f`` through the ``_EXPORTS`` of ``__init__``.  A method or
    property ``m.C.f`` of a used class is used where an attribute ``f`` is
    read; a dunder always is.  A read ``self.f`` inside a method of class C
    counts only for the methods ``f`` of C, of its package bases and of its
    subclasses; a read through any other receiver counts for every method
    ``f``.
    """

    def __init__(self, package: Path, callers: list[Path], roots=()):
        self.modules = {path.stem: _Module(path, package.name, True)
                        for path in sorted(package.glob("*.py"))}
        self.names, self.attributes = set(), set()  # what reachable code reads
        self.self_reads = set()  # (class, attribute) of each ``self.f`` read in a method
        self.units = []  # the reachable code: (bindings, nodes, enclosing class or None)
        self.definitions = {}  # m.f or m.C.f -> (its module, its nodes, its class m.C or None)
        self.functions = {}  # m.f or m.C.f -> its def node
        self.bases = {}  # m.C -> the package classes it names as bases
        for module in self.modules.values():
            self.read(module.bindings, [node for node in module.tree.body
                                        if not isinstance(node, _DEFINITIONS)])
            for node in module.tree.body:
                if isinstance(node, _DEFINITIONS):
                    self._define(module, node)
        for path in callers:
            caller = _Module(path, package.name, False)
            self.read(caller.bindings, caller.tree.body)
        self.live = set()
        new = set(roots) & set(self.definitions) | self._newly_used()
        while new:
            self.live |= new
            for key in new:
                module, nodes, owner = self.definitions[key]
                self.read(module.bindings, nodes, owner)
            new = self._newly_used()

    def _define(self, module: _Module, node) -> None:
        key = f"{module.stem}.{node.name}"
        if not isinstance(node, ast.ClassDef):
            self.definitions[key] = (module, [node], None)
            self.functions[key] = node
            return
        methods = [item for item in node.body if isinstance(item, _FUNCTIONS)]
        self.definitions[key] = (module, [*node.decorator_list, *node.bases, *node.keywords,
                                          *(item for item in node.body
                                            if item not in methods)], None)
        self.bases[key] = [base for base in map(partial(self.target, module.bindings), node.bases)
                           if base]
        for item in methods:
            self.definitions[f"{key}.{item.name}"] = (module, [item], key)
            self.functions[f"{key}.{item.name}"] = item

    def resolve(self, target):
        while target and target[0] == "from":
            stem, name = target[1:]
            target = ("module", name) if stem == "__init__" and name in self.modules \
                else self.modules[stem].bindings.get(name)
        return target

    def refers_to(self, bindings: dict, expr):
        if isinstance(expr, ast.Name):
            return self.resolve(bindings.get(expr.id))
        if isinstance(expr, ast.Attribute):
            base = self.refers_to(bindings, expr.value)
            if base and base[0] == "module":
                return self.resolve(("from", base[1], expr.attr))
        return None

    def target(self, bindings: dict, expr) -> str | None:
        """The package definition ``m.f`` that ``expr`` names, if any."""
        found = self.refers_to(bindings, expr)
        return f"{found[1]}.{found[2]}" if found and found[0] == "def" else None

    def read(self, bindings: dict, nodes, cls: str | None = None) -> None:
        self.units.append((bindings, nodes, cls))
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Name, ast.Attribute)):
                    found = self.refers_to(bindings, sub)
                    if found and found[0] == "def":
                        self.names.add(f"{found[1]}.{found[2]}")
                    elif found is None and isinstance(sub, ast.Attribute) \
                            and isinstance(sub.ctx, ast.Load):
                        if cls and _is_self(sub.value):
                            self.self_reads.add((cls, sub.attr))
                        else:
                            self.attributes.add(sub.attr)

    def family(self, cls: str) -> set[str]:
        """``cls``, its package bases and its package subclasses."""
        def closure(start, step):
            found, todo = set(), [start]
            while todo:
                for other in step(todo.pop()):
                    if other not in found:
                        found.add(other)
                        todo.append(other)
            return found
        return {cls} | closure(cls, self.bases.get) | closure(
            cls, lambda c: [sub for sub, bases in self.bases.items() if c in bases])

    def lookup(self, cls: str, name: str) -> str | None:
        """The method ``name`` that class ``cls`` defines or inherits in the package."""
        if f"{cls}.{name}" in self.definitions:
            return f"{cls}.{name}"
        return next(filter(None, (self.lookup(base, name) for base in self.bases[cls])), None)

    def _used(self, key: str, owner) -> bool:
        name = key.rsplit(".", 1)[1]
        if owner is None:
            return _is_dunder(name) or key in self.names
        return owner in self.live and (
            _is_dunder(name) or name in self.attributes
            or any((cls, name) in self.self_reads for cls in self.family(owner)))

    def _newly_used(self) -> set[str]:
        return {key for key, (_, _, owner) in self.definitions.items()
                if key not in self.live and self._used(key, owner)}


def _is_self(expr) -> bool:
    return isinstance(expr, ast.Name) and expr.id == "self"


def dead_definitions(package: Path, callers: list[Path], roots=()) -> list[str]:
    """The definitions of ``package`` that no reachable code uses (see ``_Reach``)."""
    reach = _Reach(package, callers, roots)
    return [key for key, (_, _, owner) in reach.definitions.items()
            if key not in reach.live and (owner is None or owner in reach.live)]


def _decorated(node, name: str) -> bool:
    return any(isinstance(d, ast.Name) and d.id == name for d in node.decorator_list)


def _callees(reach: _Reach, bindings: dict, func, cls) -> list[tuple[str, int]]:
    """The package functions a call of ``func`` may run, each with the number
    of its leading parameters that the call binds itself (``self`` or ``cls``)."""
    def bound(key: str, through_instance: bool) -> tuple[str, int]:
        return key, int(through_instance or _decorated(reach.functions[key], "classmethod"))

    key = reach.target(bindings, func)
    if key in reach.functions:
        return [(key, 0)]
    if key in reach.bases:  # a class call runs its constructor
        init = reach.lookup(key, "__init__")
        return [(init, 1)] if init else []
    if not isinstance(func, ast.Attribute):
        return []
    owner = reach.target(bindings, func.value)
    if owner in reach.bases:
        method = reach.lookup(owner, func.attr)
        return [bound(method, False)] if method else []
    classes = reach.family(cls) if cls and _is_self(func.value) else reach.bases
    return [bound(f"{c}.{func.attr}", True) for c in classes
            if f"{c}.{func.attr}" in reach.functions]


def _passed(node, skip: int, args, keywords) -> set[str]:
    """The parameters of the def ``node`` that these arguments set."""
    positional = [arg.arg for arg in node.args.posonlyargs + node.args.args][skip:]
    out = set()
    for i, arg in enumerate(args):
        if isinstance(arg, ast.Starred):  # *args may reach every later position
            out.update(positional[i:])
            break
        out.update(positional[i:i + 1])
    for keyword in keywords:
        if keyword.arg is None:  # **kwargs may set any parameter
            out.update(positional, (arg.arg for arg in node.args.kwonlyargs))
        else:
            out.add(keyword.arg)
    return out


def _defaulted(node) -> list[str]:
    args = node.args
    positional = args.posonlyargs + args.args
    return [arg.arg for arg in positional[len(positional) - len(args.defaults):]] + [
        arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]


def unset_options(package: Path, callers: list[Path], roots=()) -> list[str]:
    """The parameters with a default, of the reachable functions and methods
    of ``package``, that no reachable call sets: by position, by keyword,
    through ``*args`` or ``**kwargs``, or in a ``functools.partial`` binding.
    A class call sets the parameters of the constructor it runs.  Reachable
    code is what ``_Reach`` finds from the same roots."""
    reach = _Reach(package, callers, roots)
    passed = set()  # (function, parameter)
    for bindings, nodes, cls in reach.units:
        for call in (sub for node in nodes for sub in ast.walk(node)
                     if isinstance(sub, ast.Call)):
            func, args, keywords = call.func, call.args, call.keywords
            if (getattr(func, "id", None) or getattr(func, "attr", None)) == "partial" and args:
                func, args = args[0], args[1:]
            for key, skip in _callees(reach, bindings, func, cls):
                passed.update((key, name) for name in _passed(
                    reach.functions[key], skip, args, keywords))
    return [f"{key}({name})" for key, node in reach.functions.items() if key in reach.live
            for name in _defaulted(node) if (key, name) not in passed]


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


def _on_the_package(rule) -> list[str]:
    package = Path(cofreehopf.__file__).parent
    roots = ["cli.entry", *_traced_names()]  # the console script, and what perfbench wraps
    return rule(package, sorted(PERFBENCH.glob("*.py")), roots)


def test_every_package_definition_has_a_caller():
    # the package holds what its CLI, its checks and the benchmark reach;
    # an oracle that only the tests call lives in the tests
    assert _on_the_package(dead_definitions) == []


def test_every_package_option_is_set_by_a_caller():
    # a default that no caller overrides is a constant, and one that only
    # the tests override is a test-only option
    assert _on_the_package(unset_options) == []


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


def _write_package(root: Path, files: dict[str, str]) -> Path:
    package = root / "pkg"
    package.mkdir()
    for name, text in files.items():
        (package / name).write_text(text, encoding="utf-8")
    return package


def test_a_self_read_counts_only_within_its_class_family(tmp_path):
    # Base.run reads self.hook and self.shared, which Child defines or
    # overrides; Other reads self.lonely, which names Other.lonely only
    package = _write_package(tmp_path, {
        "__init__.py": "",
        "__main__.py": "from .a import Child, Other\n\nChild().run()\nOther().poke()\n",
        "a.py": "class Base:\n    def run(self):\n        return self.hook() + self.shared()\n\n"
                "    def hook(self):\n        return 0\n\n"
                "    def lonely(self):\n        return 1\n\n\n"
                "class Child(Base):\n    def hook(self):\n        return 2\n\n"
                "    def shared(self):\n        return 3\n\n\n"
                "class Other:\n    def poke(self):\n        return self.lonely()\n\n"
                "    def lonely(self):\n        return 4\n",
    })
    assert dead_definitions(package, []) == ["a.Base.lonely"]
    test = tmp_path / "test_pkg.py"  # a read through any other receiver matches by name
    test.write_text("from pkg.a import Base\n\nBase().lonely()\n", encoding="utf-8")
    assert dead_definitions(package, [test]) == []


def test_the_options_rule_follows_every_way_a_call_sets_a_parameter(tmp_path):
    package = _write_package(tmp_path, {
        "__init__.py": "",
        "__main__.py": "from .b import run\n\nrun({})\n",
        "b.py": "from functools import partial\n\n\n"
                "def scaled(x, factor=1):\n    return x * factor\n\n\n"
                "def shaped(x, width=1, *, height=1):\n    return x * width * height\n\n\n"
                "def padded(x, pad=0):\n    return x + pad\n\n\n"
                "def spread(x, first=0, second=0):\n    return x + first + second\n\n\n"
                "class Box:\n    def __init__(self, size=1):\n        self.size = size\n\n"
                "    def grow(self, by=1):\n        return self.size + by\n\n\n"
                "def unreached(x, flag=False):\n    return x\n\n\n"
                "def run(options):\n    add = partial(padded, pad=2)\n"
                "    return scaled(1) + shaped(1, **options) + add(1) + spread(1, *options) \\\n"
                "        + Box(3).grow()\n",
    })
    assert unset_options(package, []) == ["b.scaled(factor)", "b.Box.grow(by)"]
    test = tmp_path / "test_pkg.py"
    test.write_text("from pkg.b import scaled\n\nscaled(1, 2)\n", encoding="utf-8")
    assert unset_options(package, [test]) == ["b.Box.grow(by)"]


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
