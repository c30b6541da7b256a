"""What a process imports: the lazy package namespace and the cold CLI call."""

from __future__ import annotations

import ast
import contextlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cofreehopf

# The child reports the package's submodules loaded by ``import cofreehopf``,
# then runs each command that needs none of the modules below, and reports
# after each which of them were loaded after all.
COLD_COMMANDS = """
import contextlib, io, sys
import cofreehopf
print(sorted(m for m in sys.modules if m.startswith("cofreehopf.")))
import cofreehopf.cli
for argv in (["star", "v1", "v2"], ["comul", "v1@v2"], ["psi", "v1@v2"],
             ["phi", "v1.K{1}[]v2.K{0}"], ["check", "yd"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cofreehopf.cli.main(["--config", sys.argv[1], *argv])
    print(argv[0], code, [m for m in ("dataclasses", "inspect", "json", "cofreehopf.presets",
                                      "cofreehopf.rotabaxter", "cofreehopf.qalg",
                                      "cofreehopf.braid", "cofreehopf.linalg")
                          if m in sys.modules])
"""


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports this tree's package."""
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONIOENCODING="utf-8", PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def test_a_cold_star_call_loads_only_what_it_runs(tmp_path):
    from cofreehopf.cli import main

    config = tmp_path / "clifford2.cfg"
    with open(config, "w", encoding="utf-8") as handle, contextlib.redirect_stdout(handle):
        assert main(["preset", "clifford", "--n", "2"]) == 0
    done = subprocess.run([sys.executable, "-c", COLD_COMMANDS, str(config)], env=_child_env(),
                          capture_output=True, encoding="utf-8", timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() \
        == ["[]", "star 0 []", "comul 0 []", "psi 0 []", "phi 0 []", "check 0 []"], done.stdout


# The child runs each argv in turn through ``cli.main``, output swallowed, and
# prints after each its exit code and which of the modules below are loaded.
WATCHED_COMMANDS = """
import ast, contextlib, io, sys
import cofreehopf.cli
for argv in ast.literal_eval(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cofreehopf.cli.main(argv)
    print((code, [m for m in ("braid", "linalg", "qalg", "rotabaxter")
                  if "cofreehopf." + m in sys.modules]))
"""


def _cold(*argvs) -> list[tuple[int, list[str]]]:
    """Each argv's exit code and the watched modules loaded once it has run,
    all in one fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", WATCHED_COMMANDS, repr([*map(list, argvs)])],
                          env=_child_env(), capture_output=True, encoding="utf-8", timeout=60)
    assert done.returncode == 0, done.stderr
    return [ast.literal_eval(line) for line in done.stdout.splitlines()]


def test_a_cold_preset_loads_no_braiding_and_only_an_override_loads_linalg(tmp_path):
    from cofreehopf.cli import main

    # a preset is valid by construction: building it checks no law
    cartan = tmp_path / "a2.txt"
    cartan.write_text("2 -1\n-1 2\n", encoding="utf-8")
    assert _cold(["preset", "clifford", "--n", "2"]) == [(0, [])]
    assert _cold(["preset", "uqg", "--cartan", str(cartan)]) == [(0, [])]
    # the induced braiding and adjoin_unit's extension are invertible by
    # construction, so no product or check on the preset config eliminates
    config = tmp_path / "clifford2.cfg"
    with open(config, "w", encoding="utf-8") as handle, contextlib.redirect_stdout(handle):
        assert main(["preset", "clifford", "--n", "2"]) == 0
    assert _cold(["--config", str(config), "qsh", "v1@v2", "v2"],
                 ["--config", str(config), "check", "yb"],
                 ["--config", str(config), "check", "rb", "--max-degree", "2"]) \
        == [(0, ["braid", "qalg"]), (0, ["braid", "qalg"]), (0, ["braid", "qalg", "rotabaxter"])]
    # a [braiding] override comes from outside, so its table is checked
    override = tmp_path / "override.cfg"
    override.write_text(config.read_text(encoding="utf-8") + "\n[braiding]\n" + "".join(
        f"{a} {b} -> {b}@{a}\n" for a in ("v1", "v2", "xi11", "xi12", "xi22")
        for b in ("v1", "v2", "xi11", "xi12", "xi22")), encoding="utf-8")
    assert _cold(["--config", str(override), "star", "v1", "v2"]) \
        == [(0, ["braid", "linalg", "qalg"])]


def test_every_exported_name_is_its_module_object():
    for name in cofreehopf.__all__:
        value = getattr(cofreehopf, name)
        assert value.__module__.startswith("cofreehopf."), name
        assert value is getattr(sys.modules[value.__module__], name), name
    assert set(cofreehopf.__all__) <= set(dir(cofreehopf))
    assert len(set(cofreehopf.__all__)) == len(cofreehopf.__all__) == 43


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from cofreehopf import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cofreehopf.__all__)
    assert namespace["star"] is importlib.import_module("cofreehopf.cotensor").star


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cofreehopf.no_such_name
    with pytest.raises(ImportError):
        exec("from cofreehopf import no_such_name", {})
