"""Traced cold CLI call: the CLI entry point with span wrappers installed.

    PYTHONPATH=src python3 perfbench/cli_child.py SUMMARY.json [cli args...]

Behaves like the ``cofreehopf`` command (same stdout, stderr and exit
code) and also writes the import time and per-layer span totals of this
one process to SUMMARY.json.
"""

import json
import sys
import time

t0 = time.perf_counter()
import cofreehopf.cli  # noqa: E402  (the import is what is being timed)
import_ms = (time.perf_counter() - t0) * 1e3

import tracing  # noqa: E402


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    span = tracer.begin_op(0)
    try:
        code = cofreehopf.cli.main(argv)
    finally:
        tracer.end_op(span)
        sys.stdout.flush()
    summary = {"import_ms": import_ms, "layers": tracing.layer_totals(tracer)}
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
