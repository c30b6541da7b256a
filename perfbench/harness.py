"""Op execution, failure accounting and summary statistics.

One process, no threads: ops run one after another (a closed loop with
one client).  An op is one user-visible call.  It is timed alone; its
output is checked afterwards, outside the timed region.  Every attempted
op ends up as exactly one Outcome, completed or failed, and a failure
never aborts the run.

Failure kinds:
  deadline      the op ran past the workload's per-op deadline
  exception     the call raised
  wrong_output  the check rejected the output (or the check itself raised)
  exit_code     a CLI process exited with an unexpected code
"""

from __future__ import annotations

import bisect
import gc
import os
import pickle
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

FAILURE_KINDS = ("deadline", "exception", "wrong_output", "exit_code")
# Op counts in the plans are set for a run of this many seconds on a 2-core
# x86-64 container with Python 3.11, and scale linearly with --seconds.
REFERENCE_SECONDS = 20


def count(base: int, seconds: float) -> int:
    return max(1, round(base * seconds / REFERENCE_SECONDS))


def stream(seed: int, label: str) -> random.Random:
    """The random stream of one plan stratum."""
    return random.Random(f"{seed}:{label}")


def interleaved(ops: list) -> list:
    """Mix the strata of a plan by one fixed permutation.  Every kind of op
    spreads over the whole run, and sits at the same places on every seed,
    so cache warmth and peak memory do not depend on the seed's order."""
    random.Random("order").shuffle(ops)
    return ops


@dataclass
class Op:
    key: str                                   # unique in a run, e.g. "star/clifford2/d4#3"
    call: Callable[[], object]                 # the timed call
    check: Callable[[object], str | None]      # None when the output is right
    isolate: bool = False                      # run in a forked child
    degree: int = 0                            # total degree, for the star sweep
    reference: Callable[[], object] | None = None  # second route, timed for the sweep


@dataclass
class Outcome:
    key: str
    ms: float
    failure: str | None = None
    detail: str = ""
    degree: int = 0
    reference_ms: float | None = None
    child_rss_mb: float | None = None
    started: float = 0.0                   # perf_counter() when the op began

    @property
    def ok(self) -> bool:
        return self.failure is None


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def _finish(op: Op, out, ms: float) -> Outcome:
    """Check a completed op; runs outside the timed region."""
    outcome = Outcome(op.key, ms, degree=op.degree)
    try:
        if op.reference is not None:
            # timed before the check, which may warm the caches for this pair
            t0 = time.perf_counter()
            op.reference()
            outcome.reference_ms = (time.perf_counter() - t0) * 1e3
        reason = op.check(out)
    except Exception as exc:  # a check that crashes is a wrong output
        reason = f"check raised {exc!r}"
    if reason is not None:
        outcome.failure, outcome.detail = "wrong_output", reason
    return outcome


def run_inline(op: Op, deadline_s: float, tracer=None, op_id: int = 0) -> Outcome:
    mark = tracer.mark() if tracer else 0
    span = tracer.begin_op(op_id) if tracer else None
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            t0 = time.perf_counter()
            try:
                out = op.call()
                ms = (time.perf_counter() - t0) * 1e3
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            if tracer:
                tracer.end_op(span)
    except DeadlineExceeded:
        if tracer:
            tracer.truncate(mark)
        return Outcome(op.key, deadline_s * 1e3, "deadline", degree=op.degree)
    except Exception as exc:
        return Outcome(op.key, deadline_s * 1e3, "exception",
                       f"{type(exc).__name__}: {str(exc)[:200]}", degree=op.degree)
    return _finish(op, out, ms)


def run_forked(op: Op, deadline_s: float, tracer=None, op_id: int = 0) -> Outcome:
    """Run an op in a forked child, so that memory it grows before a
    deadline abort never counts towards the parent's peak RSS."""
    mark = tracer.mark() if tracer else 0
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: run, check, report, leave without cleanup
        os.close(read_fd)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0)
            outcome = run_inline(op, deadline_s, tracer, op_id)
            payload = {"outcome": outcome,
                       "spans": tracer.export_since(mark) if tracer else None}
            data = pickle.dumps(payload)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    chunks = []
    started = time.monotonic()
    try:
        while True:
            left = deadline_s + 1.0 - (time.monotonic() - started)
            ready, _, _ = select.select([read_fd], [], [], max(left, 0))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        _, _, usage = os.wait4(pid, 0)
    rss_mb = usage.ru_maxrss / 1024
    if not chunks:
        return Outcome(op.key, deadline_s * 1e3, "deadline", degree=op.degree,
                       child_rss_mb=rss_mb)
    payload = pickle.loads(b"".join(chunks))  # written by our own child above
    if tracer and payload["spans"] is not None:
        tracer.merge(mark, payload["spans"])
    outcome = payload["outcome"]
    outcome.child_rss_mb = rss_mb
    return outcome


def execute(ops: list[Op], deadline_s: float, speed: SpeedProbe,
            tracer=None) -> list[Outcome]:
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        outcomes = []
        for op_id, op in enumerate(ops):
            speed.maybe_sample()
            runner = run_forked if op.isolate else run_inline
            started = time.perf_counter()
            outcome = runner(op, deadline_s, tracer, op_id)
            outcome.started = started
            outcomes.append(outcome)
        speed.sample()
        return outcomes
    finally:
        signal.signal(signal.SIGALRM, previous)


# -- machine speed -------------------------------------------------------------

# Fixed pure-Python work of the library's kind: tuple keys, dict lookups,
# small-integer arithmetic.
CALIBRATION_SOURCE = """
def calibration_loop():
    table = {}
    for i in range(40000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * 3
calibration_loop()
"""
# The loop's time on the machine the op counts were set on (see
# REFERENCE_SECONDS) when quiet: in this process, and in a fresh
# interpreter, start-up included.  Reported times are scaled to that speed.
WARM_REFERENCE_S = 0.0085
COLD_REFERENCE_S = 0.055


class SpeedProbe:
    """Times the calibration loop at intervals through a run.

    The speed of a shared machine drifts by up to a half within seconds,
    and every op in that stretch slows with it.  ``scale`` turns a time
    measured then into the time at the reference speed, from the loop
    timings on either side of it.  Ops that run in this process are
    matched by the loop run here (``cold=False``).  Ops that are fresh
    interpreters are matched by the loop run in a fresh interpreter: it
    pays the same process start-up, which drifts less than the loop.
    """

    def __init__(self, cold: bool = False):
        self.cold = cold
        self.reference_s = COLD_REFERENCE_S if cold else WARM_REFERENCE_S
        self.every_s = 0.5 if cold else 0.25
        self.at: list[float] = []      # midpoint of each loop
        self.took: list[float] = []    # its duration, seconds
        self.last = float("-inf")

    def sample(self) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection of the run's heap is not machine speed
        t0 = time.perf_counter()
        if self.cold:
            subprocess.run([sys.executable, "-c", CALIBRATION_SOURCE], check=True)
        else:
            exec(CALIBRATION_SOURCE, {})
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.last = t1

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= self.every_s:
            self.sample()

    def scale(self, start: float, seconds: float) -> float:
        """Reference speed / machine speed around [start, start + seconds]."""
        i = bisect.bisect(self.at, start + seconds / 2)
        near = [self.took[j] for j in (i - 1, i) if 0 <= j < len(self.took)]
        return self.reference_s * len(near) / sum(near)


# -- child processes -----------------------------------------------------------


@dataclass
class ProcessResult:
    code: int | None       # None when killed at the deadline
    stdout: str
    stderr: str
    seconds: float
    rss_mb: float


def run_process(argv: list[str], env: dict, deadline_s: float) -> ProcessResult:
    """Run a child to completion or its deadline; report its own peak RSS."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    streams = {out_fd: [], err_fd: []}
    open_fds = [out_fd, err_fd]
    killed = False
    try:
        while open_fds:
            left = deadline_s - (time.perf_counter() - t0)
            ready, _, _ = select.select(open_fds, [], [], max(left, 0))
            if not ready:
                proc.kill()
                killed = True
                break
            for fd in ready:
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    streams[fd].append(chunk)
                else:
                    open_fds.remove(fd)
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    seconds = time.perf_counter() - t0
    out = b"".join(streams[out_fd]).decode("utf-8", "replace")
    err = b"".join(streams[err_fd]).decode("utf-8", "replace")
    return ProcessResult(None if killed else proc.returncode, out, err, seconds,
                         usage.ru_maxrss / 1024)


# -- statistics ------------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * p
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def failure_counts(outcomes: list[Outcome]) -> dict:
    counts = dict.fromkeys(FAILURE_KINDS, 0)
    for o in outcomes:
        if o.failure:
            counts[o.failure] += 1
    return counts
