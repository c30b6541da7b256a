"""Set-up shared by the library workloads: import, presets and derived specs.

``build`` imports cofreehopf itself, so a fresh interpreter running this
file times the import along with the rest of set-up.  Run as a script it
prints those timings as one JSON line:

    PYTHONPATH=src python3 perfbench/fixtures.py star-series
"""

from __future__ import annotations

import json
import sys
import time
from types import SimpleNamespace

CARTAN_A2 = ((2, -1), (-1, 2))


def hoffman_spec(n: int):
    """Flip braiding with x_a * x_b = x_{a+b}, truncated above x_n."""
    from cofreehopf.braid import flip_braiding
    from cofreehopf.elements import Element
    from cofreehopf.qalg import BraidedAlgebraSpec

    alphabet = ("hoffman", n)
    mult = {}
    for i in range(n):
        for j in range(n):
            k = i + j + 1
            if k < n:
                mult[(i, j)] = Element.from_word((k,), alphabet=alphabet)
    names = tuple(f"x{i + 1}" for i in range(n))
    return BraidedAlgebraSpec(n, flip_braiding(n, alphabet), mult,
                              names=names, alphabet=alphabet)


def build(workload: str):
    """Everything a library workload needs before its first op."""
    t0 = time.perf_counter()
    import cofreehopf
    from cofreehopf.grouphopf import braided_spec
    from cofreehopf.qalg import adjoin_unit
    t1 = time.perf_counter()
    presets = {"clifford2": cofreehopf.build_clifford(2),
               "uqg_a2": cofreehopf.build_uqg(CARTAN_A2)}
    t2 = time.perf_counter()
    ctx = SimpleNamespace(presets=presets)
    ctx.braided = {name: braided_spec(p.spec) for name, p in presets.items()}
    if workload == "qsh-smash":
        ctx.braided["hoffman4"] = hoffman_spec(4)
    if workload == "axiom-checks":
        ctx.braided["hoffman4"] = hoffman_spec(4)
        ctx.unital = adjoin_unit(ctx.braided["clifford2"])
        ctx.yd_unital = presets["clifford2"].spec.with_unit()
    t3 = time.perf_counter()
    timings = {"import_s": t1 - t0, "presets_s": t2 - t1, "derived_s": t3 - t2,
               "total_s": t3 - t0}
    return ctx, timings


if __name__ == "__main__":
    _, timings = build(sys.argv[1])
    print(json.dumps(timings))
