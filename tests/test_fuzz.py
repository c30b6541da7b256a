"""Robustness fuzz of the command line: random configs from the documented
grammar, one random command on each.

Every call must keep the exit-code contract: 0, 1 or 2, no ``internal``
line, and 1 only from ``check``.  The configs cover rank 0-2 with and
without torsion, diagonal and column actions (among the column actions,
determinants that are a monomial, zero, or not a monomial), random
``[mult]`` tables, some ``[braiding]`` overrides and some malformed lines.
"""

from __future__ import annotations

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from cofreehopf.cli import main

FUZZ = settings(max_examples=120, derandomize=True, deadline=None, database=None)

SCALARS = ("0", "1", "-1", "2", "q", "q^-1", "-q^2", "1/2", "(1 + q)", "(q - 2*q^-1)")
MONOMIALS = ("1", "-1", "2", "q", "q^-1", "-q^2", "1/2")
MALFORMED = ("garbage", "[nope]", "x1 x1 ->", "g9 = 1", "rank = x", "x1 = 1, 2, 3, 4",
             "g1 = (1 +", "q = 1", "x1 x9 -> x1")
LAWS = ("yb", "alg", "yd", "bialg", "rb")
COMMANDS = ("qsh", "star", "smash-star", "comul", "psi", "phi", "rb-apply")


def _column_action(rnd, k: int, names: list[str]) -> list[str]:
    """Column lines of generator k; the kind fixes what det is."""
    dim = len(names)
    # most loads should succeed, so that the commands run past the loader
    kind = rnd.choice(("monomial",) * 5 + ("zero", "not-monomial", "any"))
    matrix = [[rnd.choice(SCALARS) for _ in range(dim)] for _ in range(dim)]
    if kind != "any":  # triangular: det is the product of the diagonal
        for i in range(dim):
            matrix[i][:i] = ["0"] * i
            matrix[i][i] = rnd.choice(MONOMIALS)
        i = rnd.randrange(dim)
        if kind == "zero":
            matrix[i][i] = "0"
        elif kind == "not-monomial":
            matrix[i][i] = "(1 + q)"
    return [f"g{k + 1}.{name} = " + ", ".join(matrix[i][j] for i in range(dim))
            for j, name in enumerate(names)]


def _config(rnd) -> tuple[str, list[str]]:
    rank = rnd.randint(0, 2)
    torsion = rnd.choice([(), (2,), (3,)])
    generators = rank + len(torsion)
    names = [f"x{i}" for i in range(1, rnd.randint(1, 3) + 1)]
    lines = ["[group]", f"rank = {rank}"]
    if torsion:
        lines.append("torsion = " + ", ".join(map(str, torsion)))
    lines += ["", "[basis]"]
    lines += [f"{x} = " + ", ".join(str(rnd.randint(-2, 2)) for _ in range(generators))
              for x in names]
    if generators:
        lines += ["", "[action]"]
    for k in range(generators):
        if rnd.random() < 0.5:
            lines.append(f"g{k + 1} = " + ", ".join(rnd.choice(MONOMIALS) for _ in names))
        else:
            lines += _column_action(rnd, k, names)
    pairs = [(a, b) for a in names for b in names]
    mult = rnd.sample(pairs, rnd.randint(0, min(3, len(pairs))))
    if mult:
        lines += ["", "[mult]"]
        lines += [f"{a} {b} -> {rnd.choice(MONOMIALS)} {rnd.choice(names)}" for a, b in mult]
    if rnd.random() < 0.25:
        lines += ["", "[braiding]"]
        for a, b in pairs:  # mostly a scaled flip, which is invertible
            c, d = rnd.choice(pairs) if rnd.random() < 0.25 else (b, a)
            lines.append(f"{a} {b} -> {rnd.choice(MONOMIALS)} {c}@{d}")
    if rnd.random() < 0.15:
        lines.insert(rnd.randint(0, len(lines)), rnd.choice(MALFORMED))
    return "\n".join(lines) + "\n", names


def _call(rnd) -> tuple[str, list[str], str]:
    text, names = _config(rnd)
    argv = ["--format", rnd.choice(("text", "json"))]
    command = rnd.choice(("check", "check", "emit", *COMMANDS))
    if command == "check":
        argv += ["--max-degree", str(rnd.randint(0, 2)), "check", rnd.choice(LAWS)]
    elif command == "emit":
        argv.append("--emit-config")
    else:
        # some calls name a letter the config does not have
        letters = names + ["zz"] if rnd.random() < 0.25 else names
        argv.append(command)
        argv += ["@".join(rnd.choices(letters, k=rnd.randint(1, 2)))
                 for _ in range(1 if command in ("comul", "psi", "phi", "rb-apply") else 2)]
    return text, argv, command


# one seeded Random makes every choice: choices drawn one by one from
# strategies clustered, and few calls got past the loader
@FUZZ
@given(rnd=st.randoms(use_true_random=True))
def test_every_call_keeps_the_exit_code_contract(tmp_path_factory, rnd):
    text, argv, command = _call(rnd)
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--config", str(path), *argv])
    assert code in (0, 1, 2), (text, argv, code)
    assert "internal" not in err.getvalue(), (text, argv, err.getvalue())
    assert code != 1 or command == "check", (text, argv, out.getvalue())
