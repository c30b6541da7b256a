"""Span recording around the public functions of each cofreehopf layer.

The wrappers live here, in the benchmark, not in the library: ``install``
replaces every binding of a wrapped function in every loaded
``cofreehopf`` module (and the class attribute for methods), so a call
is recorded no matter which module it is reached through.

Each span records its name, start, end, parent span and op id.  Spans
are kept in compact in-memory arrays while the run goes and written out
once at the end.  Self time is a span's duration minus the time covered
by its direct children; calls on one thread nest, so children never
overlap.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import sys
from time import perf_counter_ns

# span name -> (module, attribute names); every listed name is one span kind.
FUNCTIONS = {
    "cotensor.star": ("cofreehopf.cotensor", ("star",)),
    "cotensor.smash_product": ("cofreehopf.cotensor", ("smash_product",)),
    "cotensor.to_smash": ("cofreehopf.cotensor", ("to_smash",)),
    "cotensor.from_smash": ("cofreehopf.cotensor", ("from_smash",)),
    "cotensor.render": ("cofreehopf.cotensor", ("render_cotensor", "render_smash",
                                                "render_pairs")),
    "qalg.quasi_shuffle": ("cofreehopf.qalg", ("quasi_shuffle",)),
    "qalg.deconcat": ("cofreehopf.qalg", ("deconcat",)),
    "qalg.check_quasi_shuffle_bialgebra": ("cofreehopf.qalg",
                                           ("check_quasi_shuffle_bialgebra",)),
    "braid.block_braiding": ("cofreehopf.braid", ("block_braiding",)),
    "elements.apply_local": ("cofreehopf.elements", ("apply_local",)),
    "rotabaxter.check_rota_baxter": ("cofreehopf.rotabaxter", ("check_rota_baxter",)),
    "rotabaxter.cotensor_rb_operator": ("cofreehopf.rotabaxter", ("cotensor_rb_operator",)),
    "rotabaxter.diamond_product": ("cofreehopf.rotabaxter", ("diamond_product",)),
    "config.parse_config": ("cofreehopf.config", ("parse_config",)),
    "expr.parse_element_text": ("cofreehopf.expr", ("parse_element_text",)),
}

# span name -> (module, class, method names)
METHODS = {
    "scalars.mul": ("cofreehopf.scalars", "Scalar", ("__mul__", "__rmul__")),
    "scalars.add": ("cofreehopf.scalars", "Scalar", ("__add__", "__radd__")),
    "elements.add": ("cofreehopf.elements", "Element", ("__add__",)),
    "elements.scale": ("cofreehopf.elements", "Element", ("scale",)),
    "grouphopf.act_word": ("cofreehopf.grouphopf", "YDSpec", ("act_word",)),
    "grouphopf.action_matrix": ("cofreehopf.grouphopf", "YDSpec", ("action_matrix",)),
}

OP_SPAN = "op"


class Tracer:
    """In-memory span store; ``recording`` gates every wrapper."""

    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self.name_ids = {OP_SPAN: 0}
        self.sid = array.array("H")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.current = -1
        self.op_id = -1
        self.recording = False
        self.star_terms_out = 0

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, sid: int) -> int:
        i = len(self.sid)
        self.sid.append(sid)
        self.parent.append(self.current)
        self.op.append(self.op_id)
        self.end.append(0)
        self.current = i
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self.current = self.parent[i]

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        self.recording = True
        return self.open(0)

    def end_op(self, i: int) -> None:
        self.close(i)
        self.recording = False

    # -- spans recorded in a forked child --------------------------------

    def mark(self) -> int:
        return len(self.sid)

    def truncate(self, mark: int) -> None:
        """Drop the spans of an op aborted at its deadline: they are partial,
        and how much of them exists depends on the speed of the machine."""
        for field in ("sid", "start", "end", "parent", "op"):
            del getattr(self, field)[mark:]

    def export_since(self, mark: int) -> dict:
        return {
            "names": list(self.names),
            "sid": self.sid[mark:].tobytes(),
            "start": self.start[mark:].tobytes(),
            "end": self.end[mark:].tobytes(),
            "parent": self.parent[mark:].tobytes(),
            "op": self.op[mark:].tobytes(),
            "star_terms_out": self.star_terms_out,
        }

    def merge(self, mark: int, exported: dict) -> None:
        """Append a child's spans; indices line up because the parent
        records nothing while it waits for the child."""
        if len(self.sid) != mark:
            raise RuntimeError("spans were recorded while a forked op was running")
        remap = array.array("H", (self.name_id(n) for n in exported["names"]))
        sid = array.array("H")
        sid.frombytes(exported["sid"])
        self.sid.extend(remap[s] for s in sid)
        for field in ("start", "end", "parent", "op"):
            getattr(self, field).frombytes(exported[field])
        self.star_terms_out = exported["star_terms_out"]

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        """One JSON header line, then the raw arrays in header order."""
        header = {"names": self.names, "count": len(self.sid),
                  "arrays": [["sid", "H"], ["start", "q"], ["end", "q"],
                             ["parent", "i"], ["op", "i"]]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for field, _ in header["arrays"]:
                getattr(self, field).tofile(handle)


def _wrap(tracer: Tracer, fn, name: str):
    sid = tracer.name_id(name)
    is_star = name == "cotensor.star"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        i = tracer.open(sid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if is_star:  # the term dict, read directly: terms() would sort it
            tracer.star_terms_out += len(out._terms)
        return out

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every listed function and method, in every module binding it."""
    importlib.import_module("cofreehopf.cli")
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "cofreehopf" or n.startswith("cofreehopf."))]
    for name, (module, attrs) in FUNCTIONS.items():
        home = importlib.import_module(module)
        for attr in attrs:
            original = getattr(home, attr)
            wrapper = _wrap(tracer, original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
    for name, (module, cls_name, attrs) in METHODS.items():
        cls = getattr(importlib.import_module(module), cls_name)
        wrapped = {}
        for attr in attrs:
            original = cls.__dict__[attr]
            # __rmul__ = __mul__ shares one function: keep it one wrapper.
            if id(original) not in wrapped:
                wrapped[id(original)] = _wrap(tracer, original, name)
            setattr(cls, attr, wrapped[id(original)])


def layer_totals(tracer: Tracer) -> dict:
    """Per span name: calls, self and total time.  ``_counts`` adds the
    ``Scalar.__mul__`` spans under a star / quasi-shuffle span and the
    terms that star calls returned."""
    n = len(tracer.sid)
    sid, start, end, parent = tracer.sid, tracer.start, tracer.end, tracer.parent
    child_ns = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_ns[p] += end[i] - start[i]
    names = tracer.names
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    total_ns = [0] * len(names)
    for i in range(n):
        s = sid[i]
        calls[s] += 1
        total_ns[s] += end[i] - start[i]
        self_ns[s] += end[i] - start[i] - child_ns[i]
    # Spans are stored in start order, so a parent precedes its children
    # and one forward pass gives the nearest enclosing star / qsh span.
    star_id = tracer.name_ids.get("cotensor.star", -1)
    qsh_id = tracer.name_ids.get("qalg.quasi_shuffle", -1)
    mul_id = tracer.name_ids.get("scalars.mul", -1)
    under = array.array("b", bytes(n))  # 1 = inside star, 2 = inside quasi_shuffle
    muls = {1: 0, 2: 0}
    for i in range(n):
        s = sid[i]
        p = parent[i]
        inherited = under[p] if p >= 0 else 0
        if s == star_id:
            under[i] = 1
        elif s == qsh_id:
            under[i] = 2
        else:
            under[i] = inherited
        if s == mul_id and inherited:
            muls[inherited] += 1
    out = {names[k]: {"calls": calls[k], "self_ms": self_ns[k] / 1e6,
                      "total_ms": total_ns[k] / 1e6}
           for k in range(len(names))}
    out["_counts"] = {"star_muls": muls[1], "qsh_muls": muls[2],
                      "star_terms_out": tracer.star_terms_out}
    return out
