"""The cofreehopf benchmark.

    python3 perfbench/run.py --workload star-series --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Prints one JSON object as the last line
of stdout: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Scratch files (CLI configs, raw outcomes,
spans) go to ``.perfbench/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("star-series", "qsh-smash", "axiom-checks", "cli-cold")
SETUP_REPS = 11
FLOOR_REPS = 5
PROBE_REPS = 3

# per-layer metric -> (span name, field), summed over the traced pass
SPAN_METRICS = {
    "cotensor.star.calls": ("cotensor.star", "calls"),
    "cotensor.star.self_ms": ("cotensor.star", "self_ms"),
    "cotensor.smash_product.self_ms": ("cotensor.smash_product", "self_ms"),
    "cotensor.to_smash.self_ms": ("cotensor.to_smash", "self_ms"),
    "cotensor.from_smash.self_ms": ("cotensor.from_smash", "self_ms"),
    "cotensor.render.self_ms": ("cotensor.render", "self_ms"),
    "qalg.quasi_shuffle.calls": ("qalg.quasi_shuffle", "calls"),
    "qalg.quasi_shuffle.self_ms": ("qalg.quasi_shuffle", "self_ms"),
    "qalg.deconcat.self_ms": ("qalg.deconcat", "self_ms"),
    "qalg.check_quasi_shuffle_bialgebra.self_ms": ("qalg.check_quasi_shuffle_bialgebra",
                                                   "self_ms"),
    "braid.block_braiding.calls": ("braid.block_braiding", "calls"),
    "braid.block_braiding.self_ms": ("braid.block_braiding", "self_ms"),
    "grouphopf.act_word.calls": ("grouphopf.act_word", "calls"),
    "grouphopf.act_word.self_ms": ("grouphopf.act_word", "self_ms"),
    "grouphopf.action_matrix.calls": ("grouphopf.action_matrix", "calls"),
    "scalars.mul.calls": ("scalars.mul", "calls"),
    "scalars.mul.self_ms": ("scalars.mul", "self_ms"),
    "scalars.add.calls": ("scalars.add", "calls"),
    "scalars.add.self_ms": ("scalars.add", "self_ms"),
    "elements.add.calls": ("elements.add", "calls"),
    "elements.add.self_ms": ("elements.add", "self_ms"),
    "elements.scale.self_ms": ("elements.scale", "self_ms"),
    "elements.apply_local.self_ms": ("elements.apply_local", "self_ms"),
    "rotabaxter.check_rota_baxter.self_ms": ("rotabaxter.check_rota_baxter", "self_ms"),
    "rotabaxter.cotensor_rb_operator.self_ms": ("rotabaxter.cotensor_rb_operator", "self_ms"),
    "rotabaxter.diamond_product.self_ms": ("rotabaxter.diamond_product", "self_ms"),
}


def _child_json(argv, env, reps: int) -> list[dict]:
    """Run a child ``reps`` times; each prints one JSON line last."""
    from harness import run_process
    out = []
    for _ in range(reps):
        res = run_process(argv, env, 120.0)
        if res.code != 0:
            raise RuntimeError(f"{argv} exited {res.code}: {res.stderr.strip()[-300:]}")
        out.append(json.loads(res.stdout.strip().splitlines()[-1]))
    return out


def _latencies(outcomes, deadline_s: float, speed) -> list[float]:
    """Op times scaled to the reference machine speed.  A failed op ranks
    above every completed op: it counts as the full deadline."""
    return [o.ms * speed.scale(o.started, o.ms / 1e3) if o.ok else deadline_s * 1e3
            for o in outcomes]


# -- one pass over the plan ----------------------------------------------------------


def _chunks(ops: list) -> list[list]:
    """SETUP_REPS consecutive shares of the ops; a set-up probe follows each,
    so that the probes sample the machine across the whole run."""
    n = len(ops)
    return [ops[k * n // SETUP_REPS:(k + 1) * n // SETUP_REPS] for k in range(SETUP_REPS)]


def _probe_scaled(probe, speed) -> dict:
    """One set-up probe between two calibration loops; its times scaled to
    the reference machine speed."""
    speed.sample()
    t0 = time.perf_counter()
    timings = probe()
    seconds = time.perf_counter() - t0
    speed.sample()
    factor = speed.scale(t0, seconds)
    return {name: value * factor for name, value in timings.items()}


def _library_pass(workload: str, seed: int, seconds: float, speed, tracer=None,
                  probe=None):
    import fixtures
    from harness import execute
    from workloads import LIBRARY_WORKLOADS
    plan, deadline_s = LIBRARY_WORKLOADS[workload]
    ctx, _ = fixtures.build(workload)
    if tracer is not None:
        import tracing
        tracing.install(tracer)
    ops = plan(ctx, seed, seconds)
    if probe is None:
        return execute(ops, deadline_s, speed, tracer), [], deadline_s
    outcomes, samples = [], []
    for chunk in _chunks(ops):
        outcomes += execute(chunk, deadline_s, speed)
        samples.append(_probe_scaled(probe, speed))
    return outcomes, samples, deadline_s


def _cli_pass(seed: int, seconds: float, env, speed, traced: bool, probe=None):
    """Every op as a cold CLI process; with ``traced``, through cli_child.py,
    whose per-process span summaries are returned too."""
    import clicold
    configs = clicold.write_configs(WORK, env)
    ops = clicold.plan(seed, seconds, configs, WORK)
    runs, summaries, samples = [], [], []
    for chunk in _chunks(ops):
        for op in chunk:
            if traced:
                summary = WORK / f"cli-span-{len(runs)}.json"
                launcher = [sys.executable, str(BENCH / "cli_child.py"), str(summary)]
            else:
                launcher = [sys.executable, "-c", clicold.LAUNCH]
            speed.maybe_sample()
            started = time.perf_counter()
            runs.append(clicold.run_op(op, env, launcher))
            runs[-1][0].started = started
            if traced and summary.is_file():
                summaries.append(json.loads(summary.read_text(encoding="utf-8")))
                summary.unlink()
        if probe is not None:
            samples.append(_probe_scaled(probe, speed))
    for op, (outcome, res) in zip(ops, runs):
        clicold.check_op(op, outcome, res)
    return [outcome for outcome, _ in runs], summaries, samples, clicold.CLI_DEADLINE_S


def _setup_probe(workload: str, env):
    """One set-up from scratch: a fresh interpreter running fixtures.py, or
    for cli-cold the ``preset`` commands.  Returns its timings in seconds."""
    import clicold
    if workload == "cli-cold":
        def probe():
            t0 = time.perf_counter()
            clicold.write_configs(WORK, env)
            return {"total_s": time.perf_counter() - t0}
        return probe
    return lambda: _child_json([sys.executable, str(BENCH / "fixtures.py"), workload],
                               env, 1)[0]


# -- untraced run: the end-to-end metrics --------------------------------------------


def untraced(workload: str, seed: int, seconds: float) -> dict:
    import clicold
    import harness
    env = clicold.child_env(SRC)
    probe = _setup_probe(workload, env)
    speed = harness.SpeedProbe(cold=workload == "cli-cold")
    if workload == "cli-cold":
        outcomes, _, setup, deadline_s = _cli_pass(seed, seconds, env, speed, False, probe)
        peak_rss = max(o.child_rss_mb for o in outcomes)
    else:
        outcomes, setup, deadline_s = _library_pass(workload, seed, seconds, speed,
                                                    probe=probe)
        peak_rss = harness.self_peak_rss_mb()
    setup_detail = {k: harness.median([p[k] for p in setup]) for k in setup[0]}

    latencies = _latencies(outcomes, deadline_s, speed)
    unscaled = [o.ms if o.ok else deadline_s * 1e3 for o in outcomes]
    failures = harness.failure_counts(outcomes)
    attempted = len(outcomes)
    failed = sum(failures.values())
    sweep = {"star": {}, "smash_route": {}}
    for o in outcomes:
        if o.ok and o.reference_ms is not None and 2 <= o.degree <= 7:
            sweep["star"].setdefault(o.degree, []).append(o.ms)
            sweep["smash_route"].setdefault(o.degree, []).append(o.reference_ms)
    isolated = [o.child_rss_mb for o in outcomes
                if o.child_rss_mb is not None and workload != "cli-cold"]
    metrics = {
        "setup_s": (setup_detail["total_s"], "s"),
        "op_p50_ms": (harness.percentile(latencies, 0.5), "ms"),
        "op_p90_ms": (harness.percentile(latencies, 0.9), "ms"),
        "completed_frac": ((attempted - failed) / attempted, "frac"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    raw = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "attempted": attempted, "failures": failures, "setup": setup_detail,
        "sweep": sweep, "isolated_child_rss_mb": max(isolated, default=0.0),
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "failed_ops": [[o.key, o.failure, o.detail] for o in outcomes if not o.ok],
        "op_ms": {o.key: o.ms for o in outcomes},
        "op_started": {o.key: o.started for o in outcomes},
        "calibration": {"at": speed.at, "took": speed.took},
        "unscaled": {"op_p50_ms": harness.percentile(unscaled, 0.5),
                     "op_p90_ms": harness.percentile(unscaled, 0.9)},
    }
    (WORK / f"untraced-{workload}-s{seed}.json").write_text(json.dumps(raw), encoding="utf-8")
    return {
        "correct": failures["wrong_output"] == 0 and failures["exit_code"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# -- traced run: the per-layer metrics -----------------------------------------------


def _reference_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The same seed untraced, in a fresh interpreter, for the overhead ratio,
    the degree sweep and the failure counts."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced reference run failed: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = json.loads((WORK / f"untraced-{workload}-s{seed}.json").read_text(encoding="utf-8"))
    return result, raw


def _merge_layers(summaries: list[dict]) -> dict:
    merged: dict = {"_counts": {}}
    for s in summaries:
        for name, v in s["layers"].items():
            acc = merged.setdefault(name, dict.fromkeys(v, 0))
            for k, n in v.items():
                acc[k] = acc.get(k, 0) + n
    return merged


def _cli_probes(env) -> list[dict]:
    """Cold ``star v1 v2`` runs through cli_child.py, for the cli, config
    and expr numbers of the library workloads."""
    import clicold
    configs = clicold.write_configs(WORK, env)
    probe = WORK / "cli-probe.json"
    op = clicold.CliOp("probe", ["--config", str(configs["clifford2"]),
                                 *clicold.GOLDEN_STAR_ARGS], 0)
    out = []
    for _ in range(PROBE_REPS):
        clicold.run_op(op, env, [sys.executable, str(BENCH / "cli_child.py"), str(probe)])
        out.append(json.loads(probe.read_text(encoding="utf-8")))
    probe.unlink()
    return out


def traced(workload: str, seed: int, seconds: float) -> dict:
    import clicold
    import harness
    import tracing
    from harness import median
    env = clicold.child_env(SRC)
    ref_result, ref = _reference_run(workload, seed, seconds)
    speed = harness.SpeedProbe(cold=workload == "cli-cold")

    if workload == "cli-cold":
        outcomes, processes, _, deadline_s = _cli_pass(seed, seconds, env, speed, True)
        layers = _merge_layers(processes)
    else:
        tracer = tracing.Tracer()
        outcomes, _, deadline_s = _library_pass(workload, seed, seconds, speed, tracer)
        tracer.write(WORK / f"trace-{workload}-s{seed}.spans")
        layers = tracing.layer_totals(tracer)
        processes = _cli_probes(env)
    counts = layers.pop("_counts")

    def per_call(n: int, calls: int) -> float:
        return n / calls if calls else 0.0

    def per_process_ms(name: str) -> float:
        return median([p["layers"][name]["total_ms"] for p in processes
                       if name in p["layers"]])

    floor = []
    for _ in range(FLOOR_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        floor.append((time.perf_counter() - t0) * 1e3)
    presets = _child_json([sys.executable, str(BENCH / "fixtures.py"), "star-series"],
                          env, PROBE_REPS)

    metrics = {name: (layers.get(span, {}).get(field, 0),
                      "count" if field == "calls" else "ms")
               for name, (span, field) in SPAN_METRICS.items()}
    star_calls = metrics["cotensor.star.calls"][0]
    qsh_calls = metrics["qalg.quasi_shuffle.calls"][0]
    metrics.update({
        "cotensor.star.terms_out": (counts.get("star_terms_out", 0), "count"),
        "cotensor.star.scalar_muls_per_call": (
            per_call(counts.get("star_muls", 0), star_calls), "count"),
        "qalg.quasi_shuffle.scalar_muls_per_call": (
            per_call(counts.get("qsh_muls", 0), qsh_calls), "count"),
        "presets.build.ms": (median([p["presets_s"] for p in presets]) * 1e3, "ms"),
        "cli.import_ms": (median([p["import_ms"] for p in processes]), "ms"),
        "cli.interpreter_floor_ms": (median(floor), "ms"),
        "config.parse_config.ms": (per_process_ms("config.parse_config"), "ms"),
        "expr.parse_element_text.ms": (per_process_ms("expr.parse_element_text"), "ms"),
        "trace.overhead_ratio": (
            harness.percentile(_latencies(outcomes, deadline_s, speed), 0.5)
            / ref_result["metrics"]["op_p50_ms"]["value"], "ratio"),
        "isolated.child_peak_rss_mb": (ref["isolated_child_rss_mb"], "MB"),
    })
    for d in range(2, 8):
        star_ms = median(ref["sweep"]["star"].get(str(d), []))
        smash_ms = median(ref["sweep"]["smash_route"].get(str(d), []))
        metrics[f"cotensor.star.d{d}.p50_ms"] = (star_ms, "ms")
        metrics[f"cotensor.smash_route.d{d}.p50_ms"] = (smash_ms, "ms")
        metrics[f"cotensor.star_vs_smash.d{d}.ratio"] = (
            star_ms / smash_ms if smash_ms else 0.0, "ratio")
    for kind, n in ref["failures"].items():
        metrics[f"failures.{kind}"] = (n, "count")

    failures = harness.failure_counts(outcomes)
    return {
        "correct": ref_result["correct"] and failures["wrong_output"] == 0
        and failures["exit_code"] == 0,
        "attempted": len(outcomes),
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cofreehopf" / "__init__.py").is_file():
        print(f"error: no cofreehopf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.trace:
        result = traced(args.workload, args.seed, args.seconds)
    else:
        result = untraced(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
