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
from functools import cache, partial

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
from .planar import SupportBody2D, planar_report
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

# and these three planar names, until it follows oracle2d to planar_report
from .planar import area_from_support, minkowski_poly_check, mixed_area_oracle  # noqa: E402, F401

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


def _mc(args, **options) -> dict:
    """Estimator keywords n, seed, ci_level and threads from the Monte Carlo
    flags; options add keywords or override them."""
    flags = dict(n=args.samples, seed=args.seed, ci_level=args.confidence, threads=args.threads)
    return flags | options


def _mc_fields(est: MCEstimate, **extra) -> dict:
    """The report fields of an estimate, followed by extra."""
    lo, hi = est.interval
    return {
        "value": est.mean,
        "std_error": est.std_error,
        "ci": [lo, hi],
        "ci_level": est.ci_level,
        "n_samples": est.n_samples,
        "seed": est.seed,
        **extra,
    }


def _method(est: MCEstimate) -> str:
    return "exact" if est.n_samples == 1 else "monte-carlo"


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
# handlers: each returns (payload_dict, input_paths) and looks library
# functions up as module globals, so a name rebound on this module is called


def _cmd_full(args):
    bodies = load_ellipsoids(args.ellipsoids)
    est = mixed_volume_full(bodies, **_mc(args))
    return _mc_fields(est, dim=bodies[0].dim), [args.ellipsoids]


def _cmd_withballs(args):
    bodies = load_ellipsoids(args.ellipsoids)
    est = mixed_volume_with_balls(bodies, **_mc(args))
    return _mc_fields(est, dim=bodies[0].dim, n_ellipsoids=len(bodies)), [args.ellipsoids]


def _cmd_intrinsic(args):
    body = _load_single_ellipsoid(args.ellipsoid)
    est = intrinsic_volume(body, args.k, **_mc(args))
    return _mc_fields(est, k=args.k, dim=body.dim), [args.ellipsoid]


def _cmd_meanwidth(args):
    body = _load_single_ellipsoid(args.ellipsoid)
    est = mean_width(body, **_mc(args))
    return _mc_fields(est, dim=body.dim), [args.ellipsoid]


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
    k, l = (SupportBody2D.from_ellipsoid(e) for e in bodies)
    rep = planar_report(k, l, n_theta=args.grid)
    return (
        {
            "mixed_area": rep.mixed_area,
            "poly_fit_mixed_area": rep.fit.mixed_area,
            "fit_discrepancy": abs(rep.fit.mixed_area - rep.mixed_area),
            "area_first": rep.area_first,
            "area_second": rep.area_second,
            "n_theta": args.grid,
        },
        [args.ellipsoids],
    )


def _cmd_sudakov(args):
    cloud = PointCloud(
        float_array(_load_list(args.points, "points", "point"), f"{args.points}: points")
    )
    result = sudakov_width(cloud, **_mc(args))
    payload = _mc_fields(
        result.gaussian_mean,
        implied_v1=result.implied_v1.mean,
        implied_v1_std_error=result.implied_v1.std_error,
        n_points=cloud.points.shape[0],
    )
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
    if not np.all(np.isfinite(t)):
        raise OutOfRange(f"--at coordinates must be finite, got {text!r}")
    return t


def _cmd_fz_intensity(args):
    field = load_field(args.field)
    t = _parse_at(field, args.at)
    est = zero_intensity(field, t, **_mc(args))
    return _mc_fields(est, at=t.tolist(), method=_method(est)), [args.field]


def _cmd_fz_measure(args):
    field = load_field(args.field)
    region = load_region(args.region)
    est = expected_zero_measure(field, region, **_mc(args, quadrature_order=args.quadrature_order))
    payload = _mc_fields(est, stationary=field.stationary, region_volume=region.volume)
    if field.stationary:
        payload["method"] = _method(est)
    else:
        payload.update(method="gauss-legendre", quadrature_order=args.quadrature_order)
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
        field, region, **_mc(args, seed=analytic_seed, quadrature_order=args.quadrature_order)
    )
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
    # no standard error, no z-score: JSON has no infinity
    z = gap / se if se > 0 else None
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
# parser: one table row per subcommand, (name, help, handler, argument rows),
# where an argument row is (flag, add_argument keywords).  A row without a
# handler opens a group whose subcommands are named "group subcommand".


def _arg(flag: str, text: str, **options) -> tuple[str, dict]:
    return flag, {**options, "help": text}


# rows shared by several subcommands; the partial ones take their help text
_ellipsoids = partial(_arg, "--ellipsoids", required=True)
_grid = partial(_arg, "--grid", type=int, default=512)
_ELLIPSOID = _arg("--ellipsoid", "JSON file with one ellipsoid", required=True)
_FIELD = _arg("--field", "field spec JSON file", required=True)
_REGION = _arg("--region", "region JSON file", required=True)
_COUNTING_GRID = _grid("counting grid resolution")
_QUADRATURE = _arg(
    "--quadrature-order", "Gauss-Legendre order (non-stationary)", type=int, default=32
)
_MC_FLAGS = (
    _arg("--samples", "Monte Carlo sample count", type=int, default=1_000_000),
    _arg("--seed", "stream seed; same seed, same result", type=int, default=0),
    _arg("--confidence", "two-sided confidence level for the CI", type=float, default=0.99),
    _arg("--threads", "worker threads; results do not depend on this ('all' = every core)",
         type=_parse_threads, default="all"),
)
_VERBOSE = _arg("--verbose", "human-readable summary on stderr", action="store_true")

_COMMANDS = (
    ("full", "mixed volume of d ellipsoids in R^d", _cmd_full,
     (_ellipsoids("JSON file with d ellipsoids"), *_MC_FLAGS)),
    ("withballs", "mixed volume with unit-ball slots", _cmd_withballs,
     (_ellipsoids("JSON file with k <= d ellipsoids"), *_MC_FLAGS)),
    ("intrinsic", "k-th intrinsic volume of one ellipsoid", _cmd_intrinsic,
     (_ELLIPSOID, _arg("--k", "intrinsic volume index, 1..d", type=int, required=True),
      *_MC_FLAGS)),
    ("meanwidth", "mean width of one ellipsoid", _cmd_meanwidth, (_ELLIPSOID, *_MC_FLAGS)),
    ("discriminant", "exact mixed discriminant of d matrices", _cmd_discriminant,
     (_arg("--matrices", "JSON file with d symmetric matrices", required=True),)),
    ("bounds", "two-sided mixed-volume bounds from the discriminant", _cmd_bounds,
     (_ellipsoids("JSON file with d ellipsoids"),)),
    ("oracle2d", "planar mixed area from support functions", _cmd_oracle2d,
     (_ellipsoids("JSON file with two 2-D ellipsoids"), _grid("angular quadrature nodes"))),
    ("sudakov", "Gaussian width of a finite point set", _cmd_sudakov,
     (_arg("--points", "JSON file with the point set", required=True), *_MC_FLAGS)),
    ("fieldzeros", "zero sets of Gaussian random fields", None, ()),
    ("fieldzeros intensity", "zero-set intensity at a point", _cmd_fz_intensity,
     (_FIELD, _arg("--at", "comma-separated point, default origin", default=None), *_MC_FLAGS)),
    ("fieldzeros measure", "expected zero-set measure over a region", _cmd_fz_measure,
     (_FIELD, _REGION, _QUADRATURE, *_MC_FLAGS)),
    ("fieldzeros simulate", "draw one realization and measure its zero set", _cmd_fz_simulate,
     (_FIELD, _REGION, _arg("--seed", "realization stream seed", type=int, default=0),
      _COUNTING_GRID)),
    ("fieldzeros compare", "analytic expectation vs realization average", _cmd_fz_compare,
     (_FIELD, _REGION, _arg("--realizations", "number of realizations", type=int, default=1000),
      _COUNTING_GRID, _QUADRATURE, *_MC_FLAGS)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixvol",
        description="Mixed volumes of ellipsoids and zero sets of Gaussian fields.",
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, text, handler, rows in _COMMANDS:
        group, _, leaf = name.rpartition(" ")
        p = groups[group].add_parser(leaf, help=text)
        if handler is None:
            groups[name] = p.add_subparsers(dest="subcommand", required=True)
            continue
        for flag, options in (*rows, _VERBOSE):
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler, command_name=name)
    return parser


@cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser main uses: built on its first call, kept for the process.
    argparse keeps no per-call state on a parser, so one serves every call."""
    return build_parser()


def _verbose_line(command: str, payload: dict) -> str:
    if "value" in payload and "std_error" in payload:
        return f"{command}: {payload['value']:.6g} +- {payload['std_error']:.2g} (s.e.)"
    if "empirical_mean" in payload:
        z = "undefined" if payload["z_score"] is None else f"{payload['z_score']:.3f}"
        return (
            f"{command}: analytic {payload['analytic_measure']:.6g}, "
            f"empirical {payload['empirical_mean']:.6g}, z = {z}"
        )
    keys = [k for k in payload if isinstance(payload[k], (int, float))]
    body = ", ".join(f"{k} = {payload[k]:.6g}" for k in keys[:4])
    return f"{command}: {body}"


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    command = args.command_name
    start = time.perf_counter()
    try:
        if getattr(args, "seed", None) is not None:
            RngStream(args.seed)  # OutOfRange unless 0 <= seed < 2^64, on every path
        payload, paths = args.handler(args)
        report = {"command": command, "inputs_digest": _digest(paths), **payload}
        report["wall_time_ms"] = int(round(1000.0 * (time.perf_counter() - start)))
        # a NaN or infinity is a fault, never a report: JSON has neither
        line = json.dumps(report, allow_nan=False)
    except (MixvolError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort fault barrier
        print(f"InternalError({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1
    print(line)
    if args.verbose:
        print(_verbose_line(command, payload), file=sys.stderr)
    return 0


def fieldzeros_main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    return main(["fieldzeros", *argv])
