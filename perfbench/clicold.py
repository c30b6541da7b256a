"""The cli-cold workload: every op is a fresh interpreter running the CLI.

The package is not installed; each op runs ``cofreehopf.cli.entry`` with
``src`` on the path, as a shell user would pay for it on every call.
Its stdout, stderr and exit code are checked against the same command
run in-process through ``cli.main``.  The checks run only after the last
op: this process imports cofreehopf only then, so that every CLI process
forks from a small parent and its peak RSS is its own.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from harness import Outcome, ProcessResult, count, interleaved, run_process, stream

CLI_DEADLINE_S = 4.0
LAUNCH = "from cofreehopf.cli import entry; entry()"
# criterion 10 golden
GOLDEN_STAR_ARGS = ("star", "v1", "v2")
GOLDEN_STAR = "v1.K{1}[]v2.K{0} − v2.K{1}[]v1.K{0} + xi12.K{0}\n"

LETTERS = {
    "clifford2": (("v1", "v2"), ("xi11", "xi12", "xi22")),
    "uqg_a2": (("E1", "E2", "F1", "F2"), ("xi1", "xi2")),
}
RANKS = {"clifford2": 1, "uqg_a2": 2}


@dataclass
class CliOp:
    key: str
    args: list[str]
    expected_code: int
    golden: str | None = None


def write_configs(work: Path, env: dict) -> dict:
    """The set-up a shell user does once: ``preset`` commands writing configs."""
    cartan = work / "a2.txt"
    cartan.write_text("2 -1\n-1 2\n", encoding="utf-8")
    configs = {"clifford2": work / "clifford2.cfg", "uqg_a2": work / "a2.cfg"}
    commands = {"clifford2": ["preset", "clifford", "--n", "2"],
                "uqg_a2": ["preset", "uqg", "--cartan", str(cartan)]}
    for name, args in commands.items():
        res = run_process([sys.executable, "-c", LAUNCH, *args], env, 60.0)
        if res.code != 0 or not res.stdout:
            raise RuntimeError(f"preset command {args} failed: {res.stderr.strip()}")
        configs[name].write_text(res.stdout, encoding="utf-8")
    return configs


def _word(r, preset: str, min_len: int, max_len: int) -> str:
    graded, neutral = LETTERS[preset]
    letters = graded + neutral
    return "@".join(r.choice(letters) for _ in range(r.randint(min_len, max_len)))


def _tag(r, preset: str) -> str:
    exps = [str(r.randint(-1, 1)) for _ in range(RANKS[preset])]
    return "K{" + ",".join(exps) + "}"


def _malformed(r, preset: str, variant: int, work: Path) -> list[str]:
    graded, _ = LETTERS[preset]
    w = _word(r, preset, 1, 2)
    bad_arity = "K{" + ",".join(["1"] * (RANKS[preset] + 1)) + "}"
    identity = "K{" + ",".join(["0"] * RANKS[preset]) + "}"
    return [
        ["star", w + "@@", w],                                    # syntax
        ["qsh", w + "@Z9", w],                                    # unknown letter
        ["star", "K{1", w],                                       # unbalanced brace
        ["star", f"{r.choice(graded)}.{identity}[]{r.choice(graded)}.{identity}", w],
        ["psi", f"{r.choice(graded)}.{identity}"],                # psi takes plain words
        ["star", "1/0", w],                                       # zero denominator
        ["smash-star", w, f"{w}@{bad_arity}"],                    # group arity
        ["check", "rb", "--max-degree", "x"],                     # bad flag value
        ["check", "zz"],                                          # bad check name
        ["--config", str(work / "missing.cfg"), "star", w, w],    # unreadable config
    ][variant]


# (command, base count); ops alternate between the two presets
COMMANDS = [("star", 14), ("qsh", 10), ("smash-star", 10), ("comul", 10), ("phi", 8),
            ("psi", 8), ("rb-apply", 8), ("check yb", 4), ("check yd", 4),
            ("check alg", 4), ("check bialg", 4), ("check rb", 2)]
MALFORMED = 14


def plan(seed: int, seconds: float, configs: dict, work: Path) -> list[CliOp]:
    ops = []
    for command, base in COMMANDS:
        r = stream(seed, f"cli/{command}")
        for k in range(count(base, seconds)):
            preset = ("clifford2", "uqg_a2")[k % 2]
            config = ["--config", str(configs[preset])]
            golden = None
            if command in ("star", "qsh"):
                args = [command, _word(r, preset, 1, 2), _word(r, preset, 1, 2)]
                if command == "star" and k == 0:
                    args, golden = list(GOLDEN_STAR_ARGS), GOLDEN_STAR
            elif command == "smash-star":
                y = _word(r, preset, 1, 2)
                if r.random() < 0.5:
                    y += "@" + _tag(r, preset)
                args = [command, _word(r, preset, 1, 2), y]
            elif command.startswith("check"):
                args = command.split()
                if command == "check rb":
                    args += ["--max-degree", "3"]
            else:
                args = [command, _word(r, preset, 1, 3)]
            ops.append(CliOp(f"cli/{command.replace(' ', '-')}/{preset}#{k}",
                             config + args, 0, golden))
    r = stream(seed, "cli/malformed")
    for k in range(count(MALFORMED, seconds)):
        preset = ("clifford2", "uqg_a2")[k % 2]
        args = _malformed(r, preset, k % 10, work)
        if args[0] != "--config":
            args = ["--config", str(configs[preset])] + args
        ops.append(CliOp(f"cli/malformed/{preset}#{k}", args, 2))
    return interleaved(ops)


def in_process(args: list[str]) -> tuple[int, str, str]:
    from cofreehopf.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def run_op(op: CliOp, env: dict, launcher: list[str]) -> tuple[Outcome, ProcessResult]:
    res = run_process(launcher + op.args, env, CLI_DEADLINE_S)
    outcome = Outcome(op.key, res.seconds * 1e3, child_rss_mb=res.rss_mb)
    if res.code is None:
        outcome.failure = "deadline"
    elif res.code != op.expected_code:
        outcome.failure = "exit_code"
        outcome.detail = f"exit {res.code}, expected {op.expected_code}: {res.stderr[-200:]}"
    return outcome, res


def check_op(op: CliOp, outcome: Outcome, res: ProcessResult) -> None:
    if not outcome.ok:
        return
    if (res.code, res.stdout, res.stderr) != in_process(op.args):
        outcome.failure, outcome.detail = "wrong_output", "differs from cli.main in-process"
    elif op.golden is not None and res.stdout != op.golden:
        outcome.failure, outcome.detail = "wrong_output", "differs from the golden"


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env
