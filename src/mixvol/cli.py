"""Command-line front end.

Every subcommand reads JSON inputs, dispatches to one library operation,
and prints a single-line JSON report on stdout: command, a SHA-256 digest
of the input files, the result fields (seed, n_samples, std_error and CI
for stochastic results), and wall_time_ms.  Reports are byte-identical
across runs up to wall_time_ms.  Exit codes: 0 success, 2 input or
validation errors (error name and message on stderr), 1 internal faults.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from .discriminant import SymmetricTuple, barvinok_bounds, mixed_discriminant
from .errors import DimensionMismatch, MixvolError, OutOfRange
from .fields import (
    FieldSpec,
    expected_zero_measure,
    level_length_2d,
    load_field,
    load_region,
    nodal_length_experiment,
    simulate_realization,
    zero_count_experiment_1d,
    zero_count_experiment_2d,
    zero_intensity,
    zero_set_kind,
    zeros_1d,
    zeros_2d,
)
from .geometry import float_array, load_ellipsoids, load_json
from .planar import SupportBody2D, area_from_support, minkowski_poly_check, mixed_area_oracle
from .sampling import MCEstimate, RngStream
from .volumes import (
    PointCloud,
    intrinsic_volume,
    mean_width,
    mixed_volume_full,
    mixed_volume_with_balls,
    sudakov_width,
)

# perfbench/probes.py traces these four names on this module, so they stay
# bound here until its layer list follows the CLI to zeros_1d and zeros_2d
from .fields import _roots_2d, _zeros_1d, count_zeros_1d, count_zeros_2d  # noqa: E402, F401

# decorrelates the analytic Monte Carlo run of `compare` from the
# realization streams that share the user-visible seed
ANALYTIC_SEED_SALT = 0x9E3779B97F4A7C15


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _parse_threads(value: str) -> int:
    if value == "all":
        return os.cpu_count() or 1
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"threads must be a positive integer or 'all', got {value!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"threads must be positive, got {n}")
    return n


def _mc_fields(est: MCEstimate, value_key: str = "value") -> dict:
    lo, hi = est.interval
    return {
        value_key: est.mean,
        "std_error": est.std_error,
        "ci": [lo, hi],
        "ci_level": est.ci_level,
        "n_samples": est.n_samples,
        "seed": est.seed,
    }


def _load_single_ellipsoid(path: str):
    bodies = load_ellipsoids(path)
    if len(bodies) != 1:
        raise DimensionMismatch(f"{path}: expected a single ellipsoid, found {len(bodies)}")
    return bodies[0]


def _load_list(path: str, key: str, noun: str) -> list:
    """A nonempty JSON array, bare or under {key: [...]}."""
    obj = load_json(path)
    if isinstance(obj, dict):
        if set(obj) != {key}:
            raise OutOfRange(f"{path}: {noun} file must be an array or {{'{key}': [...]}}")
        obj = obj[key]
    if not isinstance(obj, list) or not obj:
        raise OutOfRange(f"{path}: expected a nonempty array of {key}")
    return obj


# ---------------------------------------------------------------------------
# handlers: each returns (payload_dict, input_paths)


def _cmd_full(args):
    bodies = load_ellipsoids(args.ellipsoids)
    est = mixed_volume_full(
        bodies, args.samples, args.seed, ci_level=args.confidence, threads=args.threads
    )
    payload = _mc_fields(est)
    payload["dim"] = bodies[0].dim
    return payload, [args.ellipsoids]


def _cmd_withballs(args):
    bodies = load_ellipsoids(args.ellipsoids)
    est = mixed_volume_with_balls(
        bodies, args.samples, args.seed, ci_level=args.confidence, threads=args.threads
    )
    payload = _mc_fields(est)
    payload["dim"] = bodies[0].dim
    payload["n_ellipsoids"] = len(bodies)
    return payload, [args.ellipsoids]


def _cmd_intrinsic(args):
    body = _load_single_ellipsoid(args.ellipsoid)
    est = intrinsic_volume(
        body, args.k, args.samples, args.seed, ci_level=args.confidence, threads=args.threads
    )
    payload = _mc_fields(est)
    payload["k"] = args.k
    payload["dim"] = body.dim
    return payload, [args.ellipsoid]


def _cmd_meanwidth(args):
    body = _load_single_ellipsoid(args.ellipsoid)
    est = mean_width(
        body, args.samples, args.seed, ci_level=args.confidence, threads=args.threads
    )
    payload = _mc_fields(est)
    payload["dim"] = body.dim
    return payload, [args.ellipsoid]


def _cmd_discriminant(args):
    mats = _load_list(args.matrices, "matrices", "matrix")
    value = mixed_discriminant(
        SymmetricTuple(tuple(float_array(m, f"{args.matrices}: matrix") for m in mats))
    )
    return {"value": value, "dim": len(mats)}, [args.matrices]


def _cmd_bounds(args):
    bodies = load_ellipsoids(args.ellipsoids)
    lower, upper = barvinok_bounds(bodies)
    disc = mixed_discriminant(tuple(e.sigma.entries for e in bodies))
    return (
        {"lower": lower, "upper": upper, "discriminant": disc, "dim": len(bodies)},
        [args.ellipsoids],
    )


def _cmd_oracle2d(args):
    bodies = load_ellipsoids(args.ellipsoids)
    if len(bodies) != 2:
        raise DimensionMismatch(f"oracle2d needs exactly 2 ellipsoids, found {len(bodies)}")
    k = SupportBody2D.from_ellipsoid(bodies[0])
    l = SupportBody2D.from_ellipsoid(bodies[1])
    mixed = mixed_area_oracle(k, l, n_theta=args.grid)
    fit = minkowski_poly_check(k, l, n_theta=args.grid)
    return (
        {
            "mixed_area": mixed,
            "poly_fit_mixed_area": fit.mixed_area,
            "fit_discrepancy": abs(fit.mixed_area - mixed),
            "area_first": area_from_support(k, args.grid),
            "area_second": area_from_support(l, args.grid),
            "n_theta": args.grid,
        },
        [args.ellipsoids],
    )


def _cmd_sudakov(args):
    cloud = PointCloud(
        float_array(_load_list(args.points, "points", "point"), f"{args.points}: points")
    )
    result = sudakov_width(
        cloud, args.samples, args.seed, ci_level=args.confidence, threads=args.threads
    )
    payload = _mc_fields(result.gaussian_mean)
    payload["implied_v1"] = result.implied_v1.mean
    payload["implied_v1_std_error"] = result.implied_v1.std_error
    payload["n_points"] = cloud.points.shape[0]
    return payload, [args.points]


def _parse_at(field: FieldSpec, text: str | None) -> np.ndarray:
    if text is None:
        return np.zeros(field.dim)
    try:
        t = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise OutOfRange(f"--at must be comma-separated numbers, got {text!r}")
    if t.shape != (field.dim,):
        raise DimensionMismatch(f"--at has {t.shape[0]} coordinates, field dimension is {field.dim}")
    return t


def _cmd_fz_intensity(args):
    field = load_field(args.field)
    t = _parse_at(field, args.at)
    est = zero_intensity(
        field, t, args.samples, args.seed, ci_level=args.confidence, threads=args.threads
    )
    payload = _mc_fields(est)
    payload["at"] = t.tolist()
    payload["method"] = "exact" if est.n_samples == 1 else "monte-carlo"
    return payload, [args.field]


def _cmd_fz_measure(args):
    field = load_field(args.field)
    region = load_region(args.region)
    est = expected_zero_measure(
        field, region, args.samples, args.seed,
        ci_level=args.confidence, threads=args.threads, quadrature_order=args.quadrature_order,
    )
    payload = _mc_fields(est)
    payload["stationary"] = field.stationary
    payload["region_volume"] = region.volume
    if not field.stationary:
        payload["method"] = "gauss-legendre"
        payload["quadrature_order"] = args.quadrature_order
    else:
        payload["method"] = "exact" if est.n_samples == 1 else "monte-carlo"
    return payload, [args.field, args.region]


def _cmd_fz_simulate(args):
    field = load_field(args.field)
    region = load_region(args.region)
    kind = zero_set_kind(field)
    realization = simulate_realization(field, RngStream(args.seed, 0))
    payload: dict = {"kind": kind, "seed": args.seed, "grid_n": args.grid}
    if kind == "length-2d":
        payload["length"] = level_length_2d(realization, region, args.grid)
    else:
        zeros = (zeros_1d if kind == "count-1d" else zeros_2d)(realization, region, args.grid)
        payload.update(count=zeros.shape[0], zeros=zeros.tolist())
    return payload, [args.field, args.region]


def _cmd_fz_compare(args):
    field = load_field(args.field)
    region = load_region(args.region)
    kind = zero_set_kind(field)
    analytic_seed = args.seed ^ ANALYTIC_SEED_SALT
    analytic = expected_zero_measure(
        field, region, args.samples, analytic_seed,
        ci_level=args.confidence, threads=args.threads, quadrature_order=args.quadrature_order,
    )
    # looked up per call, so a name rebound on this module is the one called
    experiment = {
        "count-1d": zero_count_experiment_1d,
        "count-2d": zero_count_experiment_2d,
        "length-2d": nodal_length_experiment,
    }[kind]
    empirical = experiment(
        field, region, args.realizations, args.seed,
        grid_n=args.grid, ci_level=args.confidence, threads=args.threads,
    )
    gap = empirical.mean - analytic.mean
    se = math.hypot(empirical.std_error, analytic.std_error)
    z = gap / se if se > 0 else math.inf if gap else 0.0
    payload = {
        "kind": kind,
        "analytic_measure": analytic.mean,
        "analytic_std_error": analytic.std_error,
        "analytic_intensity": analytic.mean / region.volume,
        "empirical_mean": empirical.mean,
        "empirical_std_error": empirical.std_error,
        "z_score": z,
        "n_realizations": args.realizations,
        "grid_n": args.grid,
        "seed": args.seed,
        "analytic_seed": analytic_seed,
    }
    return payload, [args.field, args.region]


# ---------------------------------------------------------------------------
# parser


def _add_mc_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=int, default=1_000_000, help="Monte Carlo sample count")
    p.add_argument("--seed", type=int, default=0, help="stream seed; same seed, same result")
    p.add_argument(
        "--confidence", type=float, default=0.99, help="two-sided confidence level for the CI"
    )
    p.add_argument(
        "--threads",
        type=_parse_threads,
        default="all",
        help="worker threads; results do not depend on this ('all' = every core)",
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--verbose", action="store_true", help="human-readable summary on stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixvol",
        description="Mixed volumes of ellipsoids and zero sets of Gaussian fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("full", help="mixed volume of d ellipsoids in R^d")
    p.add_argument("--ellipsoids", required=True, help="JSON file with d ellipsoids")
    _add_mc_flags(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_full)

    p = sub.add_parser("withballs", help="mixed volume with unit-ball slots")
    p.add_argument("--ellipsoids", required=True, help="JSON file with k <= d ellipsoids")
    _add_mc_flags(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_withballs)

    p = sub.add_parser("intrinsic", help="k-th intrinsic volume of one ellipsoid")
    p.add_argument("--ellipsoid", required=True, help="JSON file with one ellipsoid")
    p.add_argument("--k", type=int, required=True, help="intrinsic volume index, 1..d")
    _add_mc_flags(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_intrinsic)

    p = sub.add_parser("meanwidth", help="mean width of one ellipsoid")
    p.add_argument("--ellipsoid", required=True, help="JSON file with one ellipsoid")
    _add_mc_flags(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_meanwidth)

    p = sub.add_parser("discriminant", help="exact mixed discriminant of d matrices")
    p.add_argument("--matrices", required=True, help="JSON file with d symmetric matrices")
    _add_common(p)
    p.set_defaults(handler=_cmd_discriminant)

    p = sub.add_parser("bounds", help="two-sided mixed-volume bounds from the discriminant")
    p.add_argument("--ellipsoids", required=True, help="JSON file with d ellipsoids")
    _add_common(p)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("oracle2d", help="planar mixed area from support functions")
    p.add_argument("--ellipsoids", required=True, help="JSON file with two 2-D ellipsoids")
    p.add_argument("--grid", type=int, default=512, help="angular quadrature nodes")
    _add_common(p)
    p.set_defaults(handler=_cmd_oracle2d)

    p = sub.add_parser("sudakov", help="Gaussian width of a finite point set")
    p.add_argument("--points", required=True, help="JSON file with the point set")
    _add_mc_flags(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_sudakov)

    fz = sub.add_parser("fieldzeros", help="zero sets of Gaussian random fields")
    fsub = fz.add_subparsers(dest="subcommand", required=True)

    p = fsub.add_parser("intensity", help="zero-set intensity at a point")
    p.add_argument("--field", required=True, help="field spec JSON file")
    p.add_argument("--at", default=None, help="comma-separated point, default origin")
    _add_mc_flags(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_fz_intensity, command_name="fieldzeros intensity")

    p = fsub.add_parser("measure", help="expected zero-set measure over a region")
    p.add_argument("--field", required=True, help="field spec JSON file")
    p.add_argument("--region", required=True, help="region JSON file")
    p.add_argument(
        "--quadrature-order", type=int, default=32, help="Gauss-Legendre order (non-stationary)"
    )
    _add_mc_flags(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_fz_measure, command_name="fieldzeros measure")

    p = fsub.add_parser("simulate", help="draw one realization and measure its zero set")
    p.add_argument("--field", required=True, help="field spec JSON file")
    p.add_argument("--region", required=True, help="region JSON file")
    p.add_argument("--seed", type=int, default=0, help="realization stream seed")
    p.add_argument("--grid", type=int, default=512, help="counting grid resolution")
    _add_common(p)
    p.set_defaults(handler=_cmd_fz_simulate, command_name="fieldzeros simulate")

    p = fsub.add_parser("compare", help="analytic expectation vs realization average")
    p.add_argument("--field", required=True, help="field spec JSON file")
    p.add_argument("--region", required=True, help="region JSON file")
    p.add_argument("--realizations", type=int, default=1000, help="number of realizations")
    p.add_argument("--grid", type=int, default=512, help="counting grid resolution")
    p.add_argument(
        "--quadrature-order", type=int, default=32, help="Gauss-Legendre order (non-stationary)"
    )
    _add_mc_flags(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_fz_compare, command_name="fieldzeros compare")

    return parser


def _verbose_line(command: str, payload: dict) -> str:
    if "value" in payload and "std_error" in payload:
        return f"{command}: {payload['value']:.6g} +- {payload['std_error']:.2g} (s.e.)"
    if "empirical_mean" in payload:
        return (
            f"{command}: analytic {payload['analytic_measure']:.6g}, "
            f"empirical {payload['empirical_mean']:.6g}, z = {payload['z_score']:.3f}"
        )
    keys = [k for k in payload if isinstance(payload[k], (int, float))]
    body = ", ".join(f"{k} = {payload[k]:.6g}" for k in keys[:4])
    return f"{command}: {body}"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = getattr(args, "command_name", args.command)
    start = time.perf_counter()
    try:
        if getattr(args, "seed", None) is not None:
            RngStream(args.seed)  # OutOfRange unless 0 <= seed < 2^64, on every path
        payload, paths = args.handler(args)
        digest = _digest(paths)
    except MixvolError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort fault barrier
        print(f"InternalError({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1
    wall_ms = int(round(1000.0 * (time.perf_counter() - start)))
    report = {"command": command, "inputs_digest": digest}
    report.update(payload)
    report["wall_time_ms"] = wall_ms
    print(json.dumps(report))
    if getattr(args, "verbose", False):
        print(_verbose_line(command, payload), file=sys.stderr)
    return 0


def fieldzeros_main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    return main(["fieldzeros", *argv])
