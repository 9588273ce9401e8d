"""Per-layer metrics for the traced run.

Two sources, both recorded as spans:
- counters from the workload's own traced rounds (chunks, samples,
  realizations, CLI exit codes), reported per round;
- stage splits from the benchmark's own calls into each layer on the
  seed's inputs of all three workloads, identical on every workload.
Layer names are the library's modules.  Private kernels are never wrapped;
a stage that has no public entry point of its own is the difference of two
public calls that differ only by that stage.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

import mixvol
from mixvol import CHUNK, GaussianVectorSpec, MatrixEnsemble, RngStream, cli, fields, volumes

from spans import self_times, top_level

# names each module imports from another module, with the layer they belong
# to and the argument that counts their work; O(1) helpers such as
# unit_ball_volume and the dataclasses are left unwrapped
CROSS_MODULE = [
    (volumes, "expected_gram_volume", "sampling", "n"),
    (volumes, "chunked_mc_mean", "sampling", "n"),
    (fields, "mixed_volume_with_balls", "volumes", None),
    (cli, "load_ellipsoids", "geometry", None),
    (cli, "load_field", "fields", None),
    (cli, "load_region", "fields", None),
    (cli, "mixed_volume_full", "volumes", None),
    (cli, "mixed_volume_with_balls", "volumes", None),
    (cli, "intrinsic_volume", "volumes", None),
    (cli, "mean_width", "volumes", None),
    (cli, "sudakov_width", "volumes", None),
    (cli, "mixed_discriminant", "discriminant", None),
    (cli, "barvinok_bounds", "discriminant", None),
    (cli, "mixed_area_oracle", "planar", None),
    (cli, "minkowski_poly_check", "planar", None),
    (cli, "area_from_support", "planar", None),
    (cli, "zero_intensity", "fields", None),
    (cli, "expected_zero_measure", "fields", None),
    (cli, "simulate_realization", "fields", None),
    (cli, "count_zeros_1d", "fields", None),
    (cli, "count_zeros_2d", "fields", None),
    (cli, "level_length_2d", "fields", None),
    (cli, "_zeros_1d", "fields", None),
    (cli, "_roots_2d", "fields", None),
    (cli, "zero_count_experiment_1d", "fields", "n_realizations"),
    (cli, "zero_count_experiment_2d", "fields", "n_realizations"),
    (cli, "nodal_length_experiment", "fields", "n_realizations"),
]

SHAPES = {"d2k2": (2, 2), "d3k2": (3, 2), "d5k5": (5, 5), "d8k3": (8, 3)}

# Gram-layer figures of the ROADMAP.md baseline, ms per 65 536-sample chunk
ROADMAP_MS = {"d2k2": {"draw": 5.3, "qr": 21.4}, "d5k5": {"draw": 34.0, "qr": 66.0}}


def patch_layers(tracer) -> None:
    for module, name, layer, count in CROSS_MODULE:
        tracer.patch(module, name, layer, count)


def trace_lib(tracer, workload) -> dict:
    """Swap the workload's library table for traced wrappers; return the original."""
    original = dict(workload.lib)
    for key, fn in original.items():
        layer = key.split(".")[0]
        count = "n_realizations" if key.startswith("fields.") else None
        workload.lib[key] = tracer.wrap(layer, key, fn, count)
    return original


def round_counters(spans, rounds: int, exits, all_rounds: int) -> dict[str, float]:
    """Work counts per traced round; exit codes are counted over all rounds."""
    sampling = top_level(spans, "sampling")
    chunks = sum(math.ceil(s.count / CHUNK) for s in sampling)
    realizations = sum(
        s.count for s in spans if s.layer == "fields" and s.count is not None
    ) + sum(1 for s in spans if s.name.endswith(".simulate_realization"))
    return {
        "sampling.chunks": chunks / rounds,
        "sampling.samples": sum(s.count for s in sampling) / rounds,
        "sampling.chunks_per_call": chunks / len(sampling) if sampling else 0.0,
        "fields.realizations": realizations / rounds,
        "cli.exit0": exits.get(0, 0) / all_rounds,
        "cli.exit1": exits.get(1, 0) / all_rounds,
        "cli.exit2": exits.get(2, 0) / all_rounds,
    }


def _ms(tracer, name: str, per: float = 1.0) -> float:
    return 1000.0 * statistics.median(s.duration for s in tracer.spans if s.name == name) / per


def sampling_stages(tracer, mc, seed: int) -> dict[str, float]:
    ensembles = {
        "d2k2": mc.inputs["full_d2"],
        "d3k2": mc.inputs["withballs_d3k2"],
        "d5k5": mc.inputs["full_d5"],
        "d8k3": mc.inputs["intrinsic_d8k3"],
    }
    trivial = lambda z: z[:, 0, 0]
    out = {}
    for key, (d, k) in SHAPES.items():
        ensemble = MatrixEnsemble(tuple(GaussianVectorSpec(e.sigma) for e in ensembles[key]))
        draw = tracer.wrap("sampling", f"draw.{key}", lambda i: RngStream(seed, i).generator().standard_normal((CHUNK, k, d)))
        mean = tracer.wrap("sampling", f"trivial.{key}", mixvol.chunked_mc_mean)
        gram = tracer.wrap("sampling", f"gram.{key}", mixvol.expected_gram_volume)
        for i in range(5):
            draw(i)
        for i in range(3):
            mean(trivial, (k, d), 2 * CHUNK, seed + i, threads=1)
            gram(ensemble, 2 * CHUNK, seed + i, threads=1)
        out[f"sampling.draw_ms_per_chunk.{key}"] = _ms(tracer, f"draw.{key}")
        out[f"sampling.gram_ms_per_chunk.{key}"] = _ms(tracer, f"gram.{key}", 2) - _ms(tracer, f"trivial.{key}", 2)
    out["sampling.reduce_ms_per_chunk"] = _ms(tracer, "trivial.d2k2", 2) - out["sampling.draw_ms_per_chunk.d2k2"]
    sudakov = tracer.wrap("volumes", "sudakov.chunk", mixvol.sudakov_width)
    for i in range(2):
        sudakov(mc.inputs["circle"], CHUNK, seed + i, threads=1)
    out["volumes.sudakov_ms_per_chunk"] = _ms(tracer, "sudakov.chunk")
    return out


def _fit(tracer, name, fn, n1, n2, reps):
    """Fixed cost and cost per realization, ms, from two realization counts."""
    call = tracer.wrap("fields", name, fn, "n")
    results = {}
    for n in (n1, n2):
        for _ in range(reps):
            results[n] = call(n)
    times = {}
    for n in (n1, n2):
        durations = [s.duration for s in tracer.spans if s.name == name and s.count == n]
        times[n] = 1000.0 * statistics.median(durations)
    per = (times[n2] - times[n1]) / (n2 - n1)
    return times[n1] - n1 * per, per, results[n2]


def _cell_changes(values: np.ndarray) -> np.ndarray:
    s = values > 0.0
    a, b, c, d = s[:-1, :-1], s[1:, :-1], s[1:, 1:], s[:-1, 1:]
    return ~((a & b & c & d) | ~(a | b | c | d))


def _grid(region, n):
    xs = np.linspace(region.lower[0], region.upper[0], n + 1)
    ys = np.linspace(region.lower[1], region.upper[1], n + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def field_stages(tracer, fz, seed: int) -> dict[str, float]:
    out = {}
    fixed, per, _ = _fit(
        tracer, "fit.count1d",
        lambda n: fields.zero_count_experiment_1d(fz.rice, fz.line, n, seed, threads=1), 256, 2048, 5,
    )
    out["fields.count1d.fixed_ms"], out["fields.count1d.ms_per_realization"] = fixed, per
    fixed, per, est = _fit(
        tracer, "fit.count2d",
        lambda n: fields.zero_count_experiment_2d(fz.sparse, fz.square, n, seed, threads=1), 8, 40, 2,
    )
    out["fields.count2d.fixed_ms"], out["fields.count2d.ms_per_realization"] = fixed, per
    out["fields.count2d.roots_per_realization"] = est.mean
    _, per, est = _fit(
        tracer, "fit.count2d_dense",
        lambda n: fields.zero_count_experiment_2d(fz.dense, fz.square, n, seed, threads=1), 2, 4, 1,
    )
    out["fields.count2d_dense.ms_per_realization"] = per
    out["fields.count2d_dense.roots_per_realization"] = est.mean
    fixed, per, _ = _fit(
        tracer, "fit.nodal",
        lambda n: fields.nodal_length_experiment(fz.nodal, fz.square, n, seed, threads=1), 2, 98, 1,
    )
    out["fields.nodal.fixed_ms"], out["fields.nodal.ms_per_realization"] = fixed, per

    # input properties, from public evaluations of the experiments' realizations
    values = mixvol.simulate_realization(fz.nodal, RngStream(seed, 0)).values(_grid(fz.square, 256))
    out["fields.nodal.crossing_cell_share"] = float(np.mean(_cell_changes(values.reshape(257, 257))))
    roots = candidates = 0
    pts = _grid(fz.square, 128)
    for i in range(8):
        real = mixvol.simulate_realization(fz.sparse, RngStream(seed, i))
        grid = real.values(pts).reshape(129, 129, 2)
        candidates += int(np.count_nonzero(_cell_changes(grid[:, :, 0]) & _cell_changes(grid[:, :, 1])))
        roots += mixvol.count_zeros_2d(real, fz.square, 128, self_check=False)
    out["fields.count2d.newton_useful_ratio"] = roots / candidates
    return out


def cli_stages(tracer, requests) -> dict[str, float]:
    """Each distinct CLI request once, with main() and its library names traced."""
    main = tracer.wrap("cli", "cli.main", requests.lib["cli.main"])
    first = len(tracer.spans)
    original = requests.lib["cli.main"]
    requests.lib["cli.main"] = main
    try:
        for job in requests.requests:
            job.run()
    finally:
        requests.lib["cli.main"] = original
    spans = tracer.spans[first:]
    own = self_times(spans)
    mains = [s for s in spans if s.name == "cli.main"]
    vols = top_level(spans, "volumes")
    discs = top_level(spans, "discriminant")
    oracle_requests = sum(1 for j in requests.requests if j.kind == "oracle2d")
    geometry = [s.duration for s in spans if s.name.endswith(".load_ellipsoids")]
    loads = [s.duration for s in spans if s.name.endswith((".load_field", ".load_region"))]
    return {
        "cli.self_ms_per_request": 1000.0 * sum(own[s.id] for s in mains) / len(mains),
        "volumes.self_ms_per_call": 1000.0 * sum(own[s.id] for s in spans if s.layer == "volumes") / len(vols),
        "discriminant.ms_per_call": 1000.0 * sum(s.duration for s in discs) / len(discs),
        "planar.oracle_ms_per_call": 1000.0 * sum(s.duration for s in top_level(spans, "planar")) / oracle_requests,
        "geometry.load_ms": 1000.0 * statistics.fmean(geometry),
        "fields.load_ms": 1000.0 * statistics.fmean(loads),
    }
