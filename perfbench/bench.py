"""Closed-loop runner, correctness ledger and end-to-end metrics.

One client issues a workload's operations back to back: a round is one pass
over the workload's fixed, ordered job list, followed by the thread-scaling
pair.  Rounds repeat until the run's time is spent.  Every operation's output
is checked; a failed check is counted and never stops the run.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

# outcome of a check: None, or (kind, message) with kind "wrong" for an output
# that contradicts its reference or a repeat, "fault" for an operation that
# did not complete as documented (an exception or the wrong exit code)
Verdict = tuple[str, str] | None

RSE_TARGET = 1e-4
# a relative standard error estimated from fewer samples than this is itself
# too noisy (worse than ~5 %) to enter the time-to-accuracy metric
RSE_MIN_SAMPLES = 1000


@dataclass
class Job:
    """One operation of a workload.

    run() performs it; check(result) compares the output with its reference;
    fingerprint(result) must repeat exactly when the operation is repeated;
    samples(result) is the Monte Carlo sample or realization count behind the
    result (0 for exact results) and rse(result) its relative standard error.
    """

    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]
    fingerprint: Callable[[object], object]
    samples: Callable[[object], int] = lambda result: 0
    rse: Callable[[object], float | None] = lambda result: None


def within(value: float, std_error: float, reference: float, z: float = 4.0) -> Verdict:
    if not (math.isfinite(value) and math.isfinite(std_error)):
        return ("wrong", f"non-finite estimate {value} +- {std_error}")
    if abs(value - reference) <= z * std_error:
        return None
    return (
        "wrong",
        f"{value:.6g} +- {std_error:.2g} is {abs(value - reference) / max(std_error, 1e-300):.1f} "
        f"standard errors from reference {reference:.6g}",
    )


def close(value: float, reference: float, rtol: float) -> Verdict:
    if math.isfinite(value) and abs(value - reference) <= rtol * abs(reference):
        return None
    return ("wrong", f"{value!r} differs from reference {reference!r} beyond rtol {rtol:g}")


class Ledger:
    """Operations attempted and failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: Counter[tuple[str, str, str]] = Counter()
        self._first: dict[str, tuple[object, Verdict]] = {}

    def record(self, job: Job, result=None, error: BaseException | None = None) -> None:
        self.attempted += 1
        if error is not None:
            verdict = ("fault", f"raised {type(error).__name__}: {error}")
        elif job.name not in self._first:
            verdict = job.check(result)
            self._first[job.name] = (job.fingerprint(result), verdict)
        else:
            first, verdict = self._first[job.name]
            if job.fingerprint(result) != first:
                verdict = ("wrong", "output differs from the first issue of the same operation")
        if verdict is not None:
            self.failed += 1
            self.wrong += verdict[0] == "wrong"
            self.reasons[(job.name, verdict[0], verdict[1])] += 1

    def same(self, name: str, a, b, what: str) -> None:
        """Check that two already-counted outputs agree; a mismatch fails."""
        if a != b:
            self.failed += 1
            self.wrong += 1
            self.reasons[(name, "wrong", what)] += 1

    @property
    def correct(self) -> bool:
        return self.wrong == 0


@dataclass
class Timings:
    latencies: dict[str, list[float]] = field(default_factory=dict)
    results: dict[str, object] = field(default_factory=dict)
    loop_s: float = 0.0
    ops: int = 0
    rounds: int = 0
    # per round: time at 1 thread over time at nproc threads, measured back to
    # back in alternating order so that drift on the host cancels
    speedups: list[float] = field(default_factory=list)


def _timed(job: Job, ledger: Ledger, timings: Timings, tracer) -> float:
    if tracer is not None:
        tracer.job = job.name
    start = time.perf_counter()
    try:
        result = job.run()
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
        elapsed = time.perf_counter() - start
        ledger.record(job, error=exc)
        return elapsed
    elapsed = time.perf_counter() - start
    ledger.record(job, result)
    timings.results.setdefault(job.name, result)
    return elapsed


def run_rounds(workload, seconds: float, ledger: Ledger, tracer=None, timings: Timings | None = None) -> Timings:
    """Repeat rounds of the workload until `seconds` have passed (at least one),
    adding to `timings` when given."""
    timings = timings or Timings()
    begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for job in workload.order:
            elapsed = _timed(job, ledger, timings, tracer)
            timings.latencies.setdefault(job.name, []).append(elapsed)
            timings.ops += 1
        timings.loop_s += time.perf_counter() - round_start
        one, full = workload.speedup
        pair = (one, full) if timings.rounds % 2 == 0 else (full, one)
        elapsed = {job.name: _timed(job, ledger, timings, tracer) for job in pair}
        timings.speedups.append(elapsed[one.name] / elapsed[full.name])
        if one.name in timings.results and full.name in timings.results:
            ledger.same(
                f"{one.name} vs {full.name}",
                one.fingerprint(timings.results[one.name]),
                full.fingerprint(timings.results[full.name]),
                "estimate differs between 1 thread and all threads",
            )
        timings.rounds += 1
        if time.perf_counter() - begin >= seconds:
            break
    if tracer is not None:
        tracer.job = None
    return timings


def wall_s(workload, timings: Timings) -> float:
    """Time of one pass over the fixed job list: per-job medians, summed."""
    issues = Counter(job.name for job in workload.order)
    return sum(statistics.median(timings.latencies[n]) * k for n, k in issues.items())


def end_to_end(workload, timings: Timings) -> dict[str, float]:
    jobs = {job.name: job for job in workload.order}
    med = {n: statistics.median(v) for n, v in timings.latencies.items()}
    mc_time = mc_samples = to_accuracy = 0.0
    for name, job in jobs.items():
        if name not in timings.results:
            continue
        result = timings.results[name]
        n = job.samples(result)
        if n <= 1:
            continue
        mc_time += med[name]
        mc_samples += n
        rse = job.rse(result)
        if n >= RSE_MIN_SAMPLES and rse is not None and math.isfinite(rse):
            to_accuracy += med[name] * (rse / RSE_TARGET) ** 2
    flat = sorted(1000.0 * t for v in timings.latencies.values() for t in v)
    # the typical operation: each operation's median latency, as often as it
    # is issued per round; robust where a run holds only a few rounds
    issues = Counter(job.name for job in workload.order)
    typical = sorted(1000.0 * med[n] for n, k in issues.items() for _ in range(k))
    return {
        "wall_s": wall_s(workload, timings),
        "request_p50_ms": _percentile(typical, 50.0),
        "request_p95_ms": _percentile(flat, 95.0),
        "requests_per_s": timings.ops / timings.loop_s,
        "mc_samples_per_s": mc_samples / mc_time if mc_time else float("nan"),
        "mc_s_to_rse_1e-4": to_accuracy,
        "mc_thread_speedup": statistics.median(timings.speedups),
    }


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)
