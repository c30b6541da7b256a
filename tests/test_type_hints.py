"""Every annotation of the package names a type its module can resolve.

The modules postpone annotations (``from __future__ import annotations``),
so an annotation naming a type its module never imports costs nothing
until something reads it: ``typing.get_type_hints``, a type checker, a
documentation tool.  A name a module needs only for annotations is
imported under ``if TYPE_CHECKING:``, so that loading the module does not
load the other (the cold ``star`` call loads no ``qalg`` or ``braid``);
the hints are resolved here in the namespace a type checker sees, the
module's own with those imports run.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import typing

import cofreehopf


def _hint_namespace(module) -> dict:
    """The module's globals with its ``if TYPE_CHECKING:`` imports run."""
    namespace = dict(vars(module))
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            exec(compile(ast.Module(node.body, []), module.__file__, "exec"), namespace)
    return namespace


def _functions(module):
    """The module's functions, and the methods and properties of its classes,
    but the ``__new__`` a ``NamedTuple`` generates."""
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield value
        elif inspect.isclass(value):
            for attr in vars(value).values():
                attr = getattr(attr, "__func__", getattr(attr, "fget", attr))
                if inspect.isfunction(attr) and attr.__module__ == module.__name__:
                    yield attr


def test_every_annotation_of_the_package_resolves():
    names = [info.name for info in pkgutil.iter_modules(cofreehopf.__path__)
             if info.name != "__main__"]  # importing it runs the command line
    assert "cotensor" in names and "cli" in names
    checked = 0
    for name in names:
        module = importlib.import_module(f"cofreehopf.{name}")
        namespace = _hint_namespace(module)
        for function in _functions(module):
            typing.get_type_hints(function, globalns=namespace)
            checked += 1
    assert checked > 200, checked
