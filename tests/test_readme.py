"""The README's library example runs as written and prints what it says."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
        # each ``print(...)  # text`` line promises the text it prints
        promised = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
        assert capsys.readouterr().out.splitlines() == promised
