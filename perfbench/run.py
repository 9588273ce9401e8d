"""mixvol benchmark: one workload, one closed-loop run, one JSON result line.

    python3 perfbench/run.py --workload mc_volumes --seed 1 --seconds 30 --trace 0

Workloads: mc_volumes, field_zeros, cli_requests (see perfbench/README.md).
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run, and the spans are
written to .perfbench-out/.  Earlier lines record the machine, the set-up
samples, per-kind latencies and every failed operation by name.

Run from the root of a checkout: the library is imported from ./src.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS/OpenMP thread per worker: the library's own thread pool supplies
# the parallelism, so the total never exceeds the cores it is given.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 150

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "mc_samples_per_s": "1/s",
    "mc_s_to_rse_1e-4": "s",
    "mc_thread_speedup": "ratio",
    "request_p50_ms": "ms",
    "request_p95_ms": "ms",
    "requests_per_s": "1/s",
}

PER_LAYER_UNITS = {
    **{f"sampling.draw_ms_per_chunk.{k}": "ms" for k in ("d2k2", "d3k2", "d5k5", "d8k3")},
    **{f"sampling.gram_ms_per_chunk.{k}": "ms" for k in ("d2k2", "d3k2", "d5k5", "d8k3")},
    "sampling.reduce_ms_per_chunk": "ms",
    "sampling.chunks": "count",
    "sampling.samples": "count",
    "sampling.chunks_per_call": "count",
    "volumes.self_ms_per_call": "ms",
    "volumes.sudakov_ms_per_chunk": "ms",
    "fields.count1d.fixed_ms": "ms",
    "fields.count1d.ms_per_realization": "ms",
    "fields.count2d.fixed_ms": "ms",
    "fields.count2d.ms_per_realization": "ms",
    "fields.count2d_dense.ms_per_realization": "ms",
    "fields.nodal.fixed_ms": "ms",
    "fields.nodal.ms_per_realization": "ms",
    "fields.realizations": "count",
    "fields.nodal.crossing_cell_share": "ratio",
    "fields.count2d.roots_per_realization": "count",
    "fields.count2d_dense.roots_per_realization": "count",
    "fields.count2d.newton_useful_ratio": "ratio",
    "geometry.load_ms": "ms",
    "fields.load_ms": "ms",
    "discriminant.ms_per_call": "ms",
    "planar.oracle_ms_per_call": "ms",
    "cli.self_ms_per_request": "ms",
    "cli.exit0": "count",
    "cli.exit1": "count",
    "cli.exit2": "count",
    "trace_overhead_pct": "%",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["mc_volumes", "field_zeros", "cli_requests"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "host_probe_ms": host_probe_ms(),
    }


def host_probe_ms() -> float:
    """Median time of a fixed single-threaded numpy sort: a record of how fast
    the host ran during this run, for comparing runs; it enters no metric."""
    import numpy as np

    values = np.random.default_rng(0).normal(size=1 << 20)
    times = []
    for _ in range(9):
        start = time.perf_counter()
        np.sort(values)
        times.append(1000.0 * (time.perf_counter() - start))
    return round(statistics.median(times), 3)


def build(workload_name: str, seed: int, workdir: str):
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, nproc(), workdir)
    workload.warm_up()
    return workload


def setup_samples(args) -> list[float]:
    """Fresh-interpreter set-up times: import, inputs, validation, warm-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        ready = float(proc.stdout.split()[-1])
        samples.append(ready - start)
    return samples


def setup_probe(args) -> int:
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        build(args.workload, args.seed, workdir)
        # CLOCK_MONOTONIC is shared by all processes on the host
        print(f"setup_ready {time.monotonic()!r}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def print_failures(ledger) -> None:
    for (name, kind, message), count in sorted(ledger.reasons.items()):
        print(f"FAILED {name} [{kind}] x{count}: {message}")


def print_kinds(workload, timings) -> None:
    by_kind: dict[str, list[float]] = {}
    for name, kind in {job.name: job.kind for job in workload.order}.items():
        by_kind.setdefault(kind, []).extend(timings.latencies.get(name, []))
    for kind, values in sorted(by_kind.items()):
        print(f"  {kind:<26} n={len(values):<5} median {1000 * statistics.median(values):9.2f} ms")


def measure(args, workload, ledger) -> dict:
    from bench import end_to_end, run_rounds

    timings = run_rounds(workload, args.seconds, ledger)
    metrics = end_to_end(workload, timings)
    print(f"rounds {timings.rounds}, operations {ledger.attempted}, "
          f"latency samples {sum(len(v) for v in timings.latencies.values())}")
    print_kinds(workload, timings)
    return metrics


def traced(args, workload, ledger) -> dict:
    from bench import run_rounds, wall_s
    from spans import Tracer
    from workloads import CliRequests, FieldZeros, McVolumes

    import probes

    # untraced and traced rounds alternate, so drift on the host and late
    # warm-up effects fall on both sides of trace_overhead_pct alike
    tracer = Tracer()
    exits = getattr(workload, "exits", {})
    exits.clear()  # drop the warm-up calls
    plain = timed = None
    begin = time.perf_counter()
    while not plain or time.perf_counter() - begin < args.seconds:
        plain = run_rounds(workload, 0.0, ledger, timings=plain)
        probes.patch_layers(tracer)
        original = probes.trace_lib(tracer, workload)
        try:
            timed = run_rounds(workload, 0.0, ledger, tracer, timings=timed)
        finally:
            tracer.restore()
            workload.lib.update(original)
    rounds = plain.rounds + timed.rounds
    metrics = probes.round_counters(tracer.spans, timed.rounds, exits, rounds)
    metrics["trace_overhead_pct"] = 100.0 * (wall_s(workload, timed) / wall_s(workload, plain) - 1.0)

    probes.patch_layers(tracer)
    try:
        stage_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        try:
            mc = workload if isinstance(workload, McVolumes) else McVolumes(args.seed, nproc(), stage_dir)
            fz = workload if isinstance(workload, FieldZeros) else FieldZeros(args.seed, nproc(), stage_dir)
            cr = workload if isinstance(workload, CliRequests) else CliRequests(args.seed, nproc(), stage_dir)
            metrics.update(probes.sampling_stages(tracer, mc, args.seed))
            metrics.update(probes.field_stages(tracer, fz, args.seed))
            metrics.update(probes.cli_stages(tracer, cr))
        finally:
            shutil.rmtree(stage_dir, ignore_errors=True)
    finally:
        tracer.restore()
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans_{args.workload}_seed{args.seed}.jsonl"))
    print(f"rounds untraced {plain.rounds}, traced {timed.rounds}; {len(tracer.spans)} spans")
    for key, ref in probes.ROADMAP_MS.items():
        print(
            f"sampling per 65536-sample chunk at {key}: draw "
            f"{metrics[f'sampling.draw_ms_per_chunk.{key}']:.1f} ms (ROADMAP.md baseline {ref['draw']}), "
            f"Gram kernel {metrics[f'sampling.gram_ms_per_chunk.{key}']:.1f} ms "
            f"(ROADMAP.md baseline batched QR {ref['qr']})"
        )
    return metrics


def run(args) -> int:
    import numpy  # noqa: F401 - imported after the thread pins on purpose

    import mixvol
    from bench import Ledger

    if not os.path.abspath(mixvol.__file__).startswith(SRC + os.sep):
        print(f"error: mixvol imported from {mixvol.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine()))

    setup = None
    if not args.trace:
        samples = setup_samples(args)
        setup = statistics.median(samples)
        print("setup_s samples " + " ".join(f"{s:.3f}" for s in samples))

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = build(args.workload, args.seed, workdir)
        ledger = Ledger()
        if args.trace:
            values = traced(args, workload, ledger)
            units = PER_LAYER_UNITS
        else:
            values = measure(args, workload, ledger)
            values["setup_s"] = setup
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print_failures(ledger)
    for name in units:
        print(f"  {name:<44} {values[name]:>16.6g} {units[name]}")
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    bad = [n for n, m in result["metrics"].items() if not math.isfinite(m["value"])]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0



class Terminated(BaseException):
    """SIGTERM, raised past every `except Exception` and `except SystemExit`
    so that the run unwinds and removes its scratch directory."""


def _terminate(signum, frame):
    raise Terminated


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(SRC, "mixvol", "__init__.py")):
        print(f"error: no mixvol sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy loads its BLAS
    sys.path.insert(0, SRC)
    try:
        return setup_probe(args) if args.setup_probe else run(args)
    except Terminated:
        return 128 + signal.SIGTERM


if __name__ == "__main__":
    sys.exit(main())
