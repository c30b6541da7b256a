"""Same-output check: run one fixed corpus of command-line calls on the work
tree and on a git revision, and report every call whose stdout, stderr or
exit code differs.

    python tests/same_output.py REV

The corpus is built here, with a seeded generator, so both trees run the
very same calls: every command with seeded inputs on each good config
(chain words and smash tags with negative exponents among them), every
``check`` law at ``--max-degree`` 0-2 in text and JSON, ``--emit-config``,
``preset``, malformed configs and usage errors; then long words: CI's
300-letter periodic word on ``clifford2`` through ``qsh`` (both orders),
``smash-star``, ``comul`` and ``phi``, and a 300-letter rank-0 config whose
``[mult]`` multiplies letters past 256.  The preset configs are
written by the work tree's ``preset`` command; the ``preset`` calls in the
corpus compare that text too.  Each tree runs the whole corpus through
``cofreehopf.cli.main`` in one child interpreter, the revision from
``git archive REV``.  Nothing is stored: the script prints each differing
call, then one summary line, and exits 1 if any call differs.  The file
name keeps pytest from collecting it.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import contextlib, io, json, sys
from cofreehopf.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.__stdout__)
"""

LAWS = ("yb", "alg", "yd", "bialg", "rb")

# name -> config text; the preset configs are added by ``write_configs``
GOOD = {
    "hoffman": "[group]\nrank = 0\n\n[basis]\nx1 =\nx2 =\n\n[mult]\nx1 x1 -> x2\n",
    "jordan": "[group]\nrank = 1\n\n[basis]\nx1 = 1\nx2 = 1\n\n"
              "[action]\ng1.x1 = 1, 0\ng1.x2 = 1, 1\n",
    "super-jordan": "[group]\nrank = 1\n\n[basis]\nx1 = 1\nx2 = 1\n\n"
                    "[action]\ng1.x1 = -1, 0\ng1.x2 = 1, -1\n",
    # g1 unipotent, g2 diagonal: a rank-2 column action
    "unipotent": "[group]\nrank = 2\n\n[basis]\na = 1, 0\nb = 1, 0\n\n"
                 "[action]\ng1.a = 1, 0\ng1.b = q, 1\ng2 = q, q\n",
    # det 1 with one zero entry
    "dense3": "[group]\nrank = 1\n\n[basis]\na = 1\nb = 1\nc = 1\n\n[action]\n"
              "g1.a = 1, 1, 0\ng1.b = q, (1 + q), 1\ng1.c = 1, 2, 2\n",
    # a free diagonal generator and a torsion generator that swaps the letters
    "mixed": "[group]\nrank = 1\ntorsion = 2\n\n[basis]\na = 1, 0\nb = 1, 1\n\n"
             "[action]\ng1 = q, q^-1\ng2.a = 0, 1\ng2.b = 1, 0\n",
    "torsion": "[group]\ntorsion = 2\n\n[basis]\nu = 1\nv = 3\n\n[action]\ng1 = -1, -1\n",
    "override": "[group]\nrank = 1\n\n[basis]\na = 1\nb = 1\n\n[action]\ng1 = q, q^-1\n\n"
                "[mult]\na b -> b\n\n[braiding]\na a -> q a@a\na b -> a@b + b@a\n"
                "b a -> a@b\nb b -> 2 b@b\n",
    "degree": "[group]\nrank = 1\n\n[basis]\na = 1\nb = 1\n\n[action]\ng1 = q, q^-1\n\n"
              "[mult]\na b -> b\n",
    "equivariance": "[group]\nrank = 1\n\n[basis]\na = 1\nc = 2\n\n[action]\ng1 = q, q^3\n\n"
                    "[mult]\na a -> c\n",
    "noncommuting": "[group]\nrank = 2\n\n[basis]\na = 1, 0\nb = 1, 0\n\n"
                    "[action]\ng1.a = 0, 1\ng1.b = 1, 0\ng2 = 2, 1\n",
    "rank0": "[group]\nrank = 0\n\n[basis]\nx1 =\nx2 =\nx3 =\n",
    "no-letters": "[group]\nrank = 1\n\n[basis]\n\n[action]\ng1 = \n",
}

MALFORMED = {
    "singular": "[group]\nrank = 1\n\n[basis]\na = 1\nb = 1\n\n[action]\ng1 = 0, 1\n",
    "not-laurent": "[group]\nrank = 1\n\n[basis]\na = 1\nb = 1\n\n[action]\ng1 = (1 + q), 1\n",
    "before-section": "rank = 1\n[group]\n",
    "unknown-section": "[group]\nrank = 0\n\n[colors]\n",
    "bad-scalar": "[group]\nrank = 1\n\n[basis]\na = 1\n\n[action]\ng1 = (1 +\n",
    "reserved": "[group]\nrank = 0\n\n[basis]\nq =\n",
    "duplicate-letter": "[group]\nrank = 0\n\n[basis]\na =\na =\n",
    "mult-unknown-letter": "[group]\nrank = 0\n\n[basis]\nx1 =\n\n[mult]\nx1 x9 -> x1\n",
}

# 300 letters x1..x300 over the trivial group: code points past 255 in every
# layer, with products among the last letters (no check runs on it: the
# laws range over all words of three letters)
WIDE = ("[group]\nrank = 0\n\n[basis]\n" + "".join(f"x{i} =\n" for i in range(1, 301))
        + "\n[mult]\nx257 x258 -> x256\nx300 x257 -> 2 x299\nx258 x257 -> -x1\n")

# CI's periodic word, 300 letters: deep enough to test the recursion, under its limit
LONG = "@".join(("v1", "v2", "v2", "v1", "v2")[k % 5] for k in range(300))

PRESETS = {
    "clifford2": ["preset", "clifford", "--n", "2"],
    "clifford3": ["preset", "clifford", "--n", "3"],
    "uqg-a2": ["preset", "uqg", "--cartan", "a2.txt"],
    "uqg-b2": ["preset", "uqg", "--cartan", "b2.txt"],
}


def run_tree(src: Path, calls: list[list[str]], cwd: Path) -> list:
    """The (exit code, stdout, stderr) of each call, in one child interpreter
    that imports the package from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               COLUMNS="100", PYTHONIOENCODING="utf-8")
    done = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(calls), cwd=cwd,
                          env=env, capture_output=True, text=True, encoding="utf-8")
    if done.returncode != 0:
        sys.exit(f"the child for {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def basis(text: str) -> list[tuple[str, list[int]]]:
    """The letters of a config and their degree exponents, read from [basis]."""
    letters, section = [], None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line
        elif line and section == "[basis]":
            name, value = (part.strip() for part in line.split("=", 1))
            letters.append((name, [int(e) for e in value.split(",") if e.strip()]))
    return letters


def group_size(text: str) -> int:
    """The number of group generators: rank plus the torsion orders."""
    size = 0
    for line in text.splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "rank":
            size += int(value)
        elif key.strip() == "torsion":
            size += len(value.split(","))
    return size


def atom(exponents) -> str:
    return "K{" + ",".join(map(str, exponents)) + "}"


def inputs(rnd: random.Random, text: str) -> dict[str, list[str]]:
    """Seeded arguments by kind: plain words, cotensor inputs (bare words,
    annotated chain words, degree-0 keys) and smash words with tags."""
    letters, k = basis(text), group_size(text)
    names = [name for name, _ in letters]

    def tag():
        return [rnd.randint(-3, 2) for _ in range(k)]

    def word(n):
        return [rnd.choice(names) for _ in range(n)]

    def coeff():
        return rnd.choice(["", "", "2 ", "-", "q ", "(1 + q) ", "1/2 "])

    def plain():
        text = coeff() + "@".join(word(rnd.randint(1, 3)))
        if rnd.random() < 0.5:
            text += rnd.choice([" + ", " - ", " + q^-1 "]) + "@".join(word(rnd.randint(1, 3)))
        return text

    def chain():
        """A chain word: each letter's tag is the next one's times its degree."""
        degree = dict(letters)
        w, g = word(rnd.randint(1, 3)), tag()
        tags = [g]
        for name in reversed(w[1:]):
            tags.insert(0, [a + b for a, b in zip(tags[0], degree[name])])
        return "[]".join(f"{name}.{atom(t)}" for name, t in zip(w, tags))

    def cotensor():
        kind = rnd.randrange(4)
        if kind == 0:
            return coeff() + atom(tag())
        if kind == 1:
            return coeff() + chain()
        return plain()

    def smash():
        return coeff() + "@".join(word(rnd.randint(1, 3))) + rnd.choice(["", "#" + atom(tag())])

    if not names:
        return {"plain": [], "cotensor": [], "smash": []}
    return {kind: [make() for _ in range(6)]
            for kind, make in (("plain", plain), ("cotensor", cotensor), ("smash", smash))}


def corpus(configs: dict[str, str], directory: Path) -> list[list[str]]:
    rnd = random.Random(20261019)
    calls = list(PRESETS.values())
    calls += [["preset", "clifford"], ["preset", "clifford", "--n", "0"], ["preset", "uqg"],
              ["preset", "uqg", "--cartan", "missing.txt"], ["preset", "uqg", "--cartan", "bad.txt"],
              [], ["--help"], ["nonsense"], ["--config", "missing.cfg", "star", "a", "b"],
              ["--format", "xml", "check", "yb"], ["star", "v1", "v2"]]
    for name, text in configs.items():
        path = str(directory / f"{name}.cfg")
        calls += [["--config", path, "--emit-config"], ["--config", path],
                  ["--config", path, "--max-degree", "-1", "check", "yb"],
                  ["--config", path, "check", "nonsense"], ["--config", path, "star", "1"]]
        for law in LAWS:
            for degree in range(3):
                for fmt in ("text", "json"):
                    calls.append(["--config", path, "--format", fmt,
                                  "--max-degree", str(degree), "check", law])
        args = inputs(rnd, text)
        for command, kind, arity in (("qsh", "plain", 2), ("star", "cotensor", 2),
                                     ("smash-star", "smash", 2), ("comul", "cotensor", 1),
                                     ("psi", "plain", 1), ("phi", "cotensor", 1),
                                     ("rb-apply", "cotensor", 1)):
            for i, x in enumerate(args[kind]):
                fmt = ("text", "json")[i % 2]
                operands = [x, rnd.choice(args[kind])][:arity]
                calls.append(["--config", path, "--format", fmt, command, *operands])
    for name in MALFORMED:
        path = str(directory / f"{name}.cfg")
        calls += [["--config", path, "check", "yd"], ["--config", path, "--emit-config"]]
    clifford, wide = str(directory / "clifford2.cfg"), str(directory / "wide.cfg")
    calls += [["--config", wide, "--emit-config"], ["--config", wide, "check", "yd"]]
    for fmt in ("text", "json"):
        calls += [["--config", clifford, "--format", fmt, *args] for args in (
            ["qsh", LONG, "v1"], ["qsh", "v1", LONG], ["smash-star", LONG, "v1#K{1}"],
            ["comul", LONG], ["phi", LONG])]
        calls += [["--config", wide, "--format", fmt, *args] for args in (
            ["qsh", "x257@x1@x258", "x258@x300 + q x257"], ["star", "x257@x258", "x300@x257"],
            ["smash-star", "x300@x257#K{}", "2 x257@x258"], ["comul", "x258@x257"],
            ["phi", "x257.K{}[]x258.K{}"], ["psi", "x300@x257"], ["rb-apply", "x257"])]
    return calls


def write_configs(directory: Path) -> dict[str, str]:
    """Write every config and cartan file; the preset configs come from the
    work tree's ``preset`` command.  The good configs by name."""
    (directory / "a2.txt").write_text("2 -1\n-1 2\n", encoding="utf-8")
    (directory / "b2.txt").write_text("2 -2\n-1 2\n", encoding="utf-8")
    (directory / "bad.txt").write_text("2 x\n", encoding="utf-8")
    configs = dict(GOOD)
    presets = run_tree(ROOT / "src", list(PRESETS.values()), directory)
    for name, (code, out, err) in zip(PRESETS, presets):
        if code != 0:
            sys.exit(f"preset {name} failed: {err}")
        configs[name] = out
    for name, text in {**configs, **MALFORMED, "wide": WIDE}.items():
        (directory / f"{name}.cfg").write_text(text, encoding="utf-8")
    return configs


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} REV")
    rev = sys.argv[1]
    with tempfile.TemporaryDirectory() as temp:
        old = Path(temp) / "old"
        old.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(old)], input=archive, check=True)
        work = Path(temp) / "work"
        work.mkdir()
        calls = corpus(write_configs(work), work)
        before = run_tree(old / "src", calls, work)
        after = run_tree(ROOT / "src", calls, work)
    differ = 0
    for argv, a, b in zip(calls, before, after):
        fields = [(name, x, y) for name, x, y in zip(("exit code", "stdout", "stderr"), a, b)
                  if x != y]
        if fields:
            differ += 1
            print(f"DIFFERS ({', '.join(name for name, _, _ in fields)}): {' '.join(argv)}")
            for name, x, y in fields:
                print(f"  {rev} {name}: {str(x)[:300]!r}")
                print(f"  work tree {name}: {str(y)[:300]!r}")
    print(f"same_output: {len(calls):,} calls, {len(calls) - differ:,} identical, "
          f"{differ:,} differ ({rev} -> work tree)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
