"""Smoke test of the benchmark: every workload on a handful of ops.

    python3 -m pytest perfbench/tests -q

Takes about two minutes: each star-series run waits out its two 5+5
ops, which are known to overrun the per-op deadline.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))

import harness  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    # --seconds 1 scales every stratum down to about one op
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, capture_output=True, text=True, timeout=180, cwd=cwd)


@functools.cache
def _untraced(workload: str) -> subprocess.CompletedProcess:
    return _run(workload, 0)


def _assert_metrics(proc, expected: list[dict]) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    result = _assert_metrics(_untraced(workload), SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed_with_units(workload):
    _assert_metrics(_run(workload, 1), SPEC["per_layer"])


def test_star_series_fails_exactly_its_5_plus_5_ops():
    result = _assert_metrics(_untraced("star-series"), SPEC["end_to_end"])
    raw = json.loads((ROOT / ".perfbench" / "untraced-star-series-s7.json").read_text())
    assert result["failed"] == 2
    assert sorted(key for key, _, _ in raw["failed_ops"]) == [
        "star/clifford2/d10#0", "star/uqg_a2/d10#0"]
    assert raw["failures"]["deadline"] == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("qsh-smash", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- failure accounting, without the library -------------------------------------


def _spin(seconds: float):
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        pass
    return "done"


def _raise():
    raise ValueError("boom")


def test_failing_ops_are_counted_not_fatal():
    ops = [
        harness.Op("ok", lambda: 2, lambda out: None if out == 2 else "bad"),
        harness.Op("raises", _raise, lambda out: None),
        harness.Op("recursion", lambda: _recurse(), lambda out: None),
        harness.Op("wrong", lambda: 3, lambda out: None if out == 2 else "bad"),
        harness.Op("check-raises", lambda: 2, lambda out: 1 / 0),
        harness.Op("slow", lambda: _spin(1.0), lambda out: None),
        harness.Op("slow-forked", lambda: _spin(1.0), lambda out: None, isolate=True),
        harness.Op("ok-forked", lambda: 5, lambda out: None, isolate=True),
        harness.Op("wrong-forked", lambda: 5, lambda out: None if out == 4 else "bad",
                   isolate=True),
        harness.Op("last", lambda: 1, lambda out: None),
    ]
    outcomes = harness.execute(ops, 0.2, harness.SpeedProbe())
    kinds = {o.key: o.failure for o in outcomes}
    assert kinds == {
        "ok": None, "raises": "exception", "recursion": "exception",
        "wrong": "wrong_output", "check-raises": "wrong_output",
        "slow": "deadline", "slow-forked": "deadline",
        "ok-forked": None, "wrong-forked": "wrong_output",
        "last": None,
    }
    assert harness.failure_counts(outcomes) == {
        "deadline": 2, "exception": 2, "wrong_output": 3, "exit_code": 0}
    forked = {o.key: o for o in outcomes}["slow-forked"]
    assert forked.child_rss_mb and forked.child_rss_mb > 0


def _recurse():
    return _recurse()


def test_speed_scale_uses_the_loops_around_the_op():
    speed = harness.SpeedProbe()
    ref = harness.WARM_REFERENCE_S
    speed.at, speed.took = [1.0, 2.0, 3.0], [ref, 2 * ref, 4 * ref]
    assert speed.scale(1.2, 0.4) == pytest.approx(2 / 3)   # midpoint 1.4: loops 1 and 2
    assert speed.scale(2.5, 0.2) == pytest.approx(1 / 3)   # midpoint 2.6: loops 2 and 3
    assert speed.scale(5.0, 0.1) == pytest.approx(1 / 4)   # after the last loop
    speed.sample()
    assert speed.took[-1] > 0
    cold = harness.SpeedProbe(cold=True)
    cold.sample()
    assert cold.took[0] > speed.took[-1]  # pays interpreter start-up


def test_process_exit_codes_and_deadline():
    import os
    env = dict(os.environ)
    ok = harness.run_process([sys.executable, "-c", "print('hi')"], env, 10.0)
    assert (ok.code, ok.stdout) == (0, "hi\n") and ok.rss_mb > 0
    bad = harness.run_process([sys.executable, "-c", "import sys; sys.exit(3)"], env, 10.0)
    assert bad.code == 3
    slow = harness.run_process([sys.executable, "-c", "import time; time.sleep(30)"],
                               env, 0.5)
    assert slow.code is None and slow.seconds < 10
