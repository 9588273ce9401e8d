"""The three benchmark workloads and their seeded inputs.

Each workload builds its inputs from the workload seed, validates them
through the library, computes the references its checks use, and exposes
a fixed job list (`order`), a thread-scaling pair (`speedup`) and one small
warm-up call per job kind.  Jobs reach the library through `self.lib`, a
name -> function table that a traced run swaps for span-recording wrappers.

The seed rotates, rescales or shifts a fixed problem and seeds the streams,
so the cost and the per-sample variance of every job do not depend on it.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import re
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from mixvol import (
    CHUNK,
    Ellipsoid,
    FieldSpec,
    KernelSpec,
    PointCloud,
    Region,
    RngStream,
    SupportBody2D,
    SymmetricTuple,
    barvinok_bounds,
    ball,
    cli,
    fields,
    load_ellipsoids,
    load_field,
    load_region,
    make_spd,
    mixed_area_oracle,
    simulate_realization,
    volumes,
)

from bench import Job, close, within


def rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def conjugate(q: np.ndarray, m: np.ndarray) -> np.ndarray:
    out = q @ m @ q.T
    return 0.5 * (out + out.T)


def circular_kernel(radius: float, phase: float, n_atoms: int = 64) -> KernelSpec:
    """Isotropic trig kernel: n_atoms equal weights on a circle of frequencies."""
    step = 2.0 * math.pi / n_atoms
    return KernelSpec.trig(
        [
            (1.0 / n_atoms, [radius * math.cos(m * step + phase), radius * math.sin(m * step + phase)])
            for m in range(n_atoms)
        ]
    )


def rice_kernel(scale: float = 1.0) -> KernelSpec:
    return KernelSpec.trig([(1.0, [scale]), (1.0, [3.0 * scale])])


def kappa(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def chi_mean(d: int) -> float:
    return math.sqrt(2.0) * math.gamma((d + 1) / 2.0) / math.gamma(d / 2.0)


def estimate_fingerprint(est) -> tuple:
    return (est.mean, est.std_error, est.n_samples)


def mc_job(name, kind, run, check, estimate=lambda r: r) -> Job:
    """Job whose result carries one headline MCEstimate."""
    return Job(
        name,
        kind,
        run,
        check,
        fingerprint=lambda r: estimate_fingerprint(estimate(r)),
        samples=lambda r: estimate(r).n_samples,
        rse=lambda r: estimate(r).std_error / abs(estimate(r).mean),
    )


# ---------------------------------------------------------------------------


class McVolumes:
    """Large-n Gram-determinant Monte Carlo at threads = nproc."""

    name = "mc_volumes"

    def __init__(self, seed: int, nproc: int, workdir: str):
        self.lib = {
            "volumes.mixed_volume_full": volumes.mixed_volume_full,
            "volumes.mixed_volume_with_balls": volumes.mixed_volume_with_balls,
            "volumes.intrinsic_volume": volumes.intrinsic_volume,
            "volumes.expected_norm": volumes.expected_norm,
            "volumes.sudakov_width": volumes.sudakov_width,
        }
        lib = self.lib
        rng = np.random.default_rng([seed, 1])
        fixed = np.random.default_rng(2012)
        mc_seed = lambda: int(rng.integers(0, 2**62))

        # V(E1, E2) in the plane; reference: the planar support-function oracle
        q2, s2 = rotation(rng, 2), rng.uniform(0.5, 2.0)
        twist = np.array([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]])
        base2 = [np.diag([4.0, 1.0]), conjugate(twist, np.diag([2.25, 0.36]))]
        self.full2 = [Ellipsoid(make_spd(s2 * s2 * conjugate(q2, m))) for m in base2]
        ref2 = mixed_area_oracle(*(SupportBody2D.from_ellipsoid(e) for e in self.full2))

        # V(E1, .., E5); reference: the Barvinok sandwich
        q5, s5 = rotation(rng, 5), rng.uniform(0.5, 2.0)
        base5 = []
        for _ in range(5):
            g = fixed.normal(size=(5, 5))
            base5.append(g @ g.T + 2.5 * np.eye(5))
        self.full5 = [Ellipsoid(make_spd(s5 * s5 * conjugate(q5, m))) for m in base5]
        lower5, upper5 = barvinok_bounds(self.full5)

        r1, r2 = rng.uniform(0.5, 2.0, size=2)
        balls3 = [ball(3, r1), ball(3, r2)]
        ref_balls3 = kappa(3) * r1 * r2
        r8 = rng.uniform(0.5, 2.0)
        ball8 = ball(8, r8)
        ref_v3 = r8**3 * math.comb(8, 3) * kappa(8) / kappa(5)
        r4 = rng.uniform(0.5, 2.0)
        ball4 = ball(4, r4)
        ref_norm = r4 * chi_mean(4)
        rho, phase = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi)
        angles = phase + 2.0 * math.pi * np.arange(4096) / 4096
        circle = PointCloud(rho * np.stack([np.cos(angles), np.sin(angles)], axis=1))
        ref_width = rho * math.sqrt(math.pi / 2.0)

        def sandwich(est):
            if est.mean + 4.0 * est.std_error < lower5 or est.mean - 4.0 * est.std_error > upper5:
                return ("wrong", f"{est.mean:.6g} +- {est.std_error:.2g} outside [{lower5:.6g}, {upper5:.6g}]")
            return None

        def norm_check(r):
            return within(r.direct.mean, r.direct.std_error, ref_norm) or within(
                r.via_intrinsic.mean, r.via_intrinsic.std_error, ref_norm
            )

        seeds = [mc_seed() for _ in range(6)]

        def full5_job(name, threads):
            return mc_job(
                name,
                "mixed_volume_full",
                lambda: lib["volumes.mixed_volume_full"](self.full5, 4 * CHUNK, seeds[1], threads=threads),
                sandwich,
            )

        self.order = [
            mc_job(
                "full_d2",
                "mixed_volume_full",
                lambda: lib["volumes.mixed_volume_full"](self.full2, 16 * CHUNK, seeds[0], threads=nproc),
                lambda e: within(e.mean, e.std_error, ref2),
            ),
            full5_job("full_d5", nproc),
            mc_job(
                "withballs_d3k2",
                "mixed_volume_with_balls",
                lambda: lib["volumes.mixed_volume_with_balls"](balls3, 16 * CHUNK, seeds[2], threads=nproc),
                lambda e: within(e.mean, e.std_error, ref_balls3),
            ),
            mc_job(
                "intrinsic_d8k3",
                "intrinsic_volume",
                lambda: lib["volumes.intrinsic_volume"](ball8, 3, 8 * CHUNK, seeds[3], threads=nproc),
                lambda e: within(e.mean, e.std_error, ref_v3),
            ),
            Job(
                "expected_norm_d4",
                "expected_norm",
                lambda: lib["volumes.expected_norm"](ball4, 8 * CHUNK, seeds[4], threads=nproc),
                norm_check,
                fingerprint=lambda r: (estimate_fingerprint(r.direct), estimate_fingerprint(r.via_intrinsic)),
                samples=lambda r: r.direct.n_samples + r.via_intrinsic.n_samples,
                rse=lambda r: r.direct.std_error / abs(r.direct.mean),
            ),
            mc_job(
                "sudakov_circle4096",
                "sudakov_width",
                lambda: lib["volumes.sudakov_width"](circle, 2 * CHUNK, seeds[5], threads=nproc),
                lambda r: within(r.gaussian_mean.mean, r.gaussian_mean.std_error, ref_width),
                estimate=lambda r: r.gaussian_mean,
            ),
        ]
        self.speedup = (full5_job("full_d5@1thread", 1), full5_job("full_d5@nproc", nproc))
        self.inputs = {
            "full_d2": self.full2,
            "full_d5": self.full5,
            "withballs_d3k2": balls3,
            "intrinsic_d8k3": [ball8] * 3,
            "circle": circle,
        }

    def warm_up(self) -> None:
        n = 4096
        volumes.mixed_volume_full(self.full2, n, 0)
        volumes.mixed_volume_with_balls(self.inputs["withballs_d3k2"], n, 0)
        volumes.intrinsic_volume(self.inputs["intrinsic_d8k3"][0], 3, n, 0)
        volumes.expected_norm(self.inputs["intrinsic_d8k3"][0], n, 0)
        volumes.sudakov_width(self.inputs["circle"], n, 0)


# ---------------------------------------------------------------------------


class FieldZeros:
    """Realization experiments: grid evaluation, Newton with deduplication,
    and marching squares."""

    name = "field_zeros"

    def __init__(self, seed: int, nproc: int, workdir: str):
        self.lib = {
            "fields.zero_count_experiment_1d": fields.zero_count_experiment_1d,
            "fields.zero_count_experiment_2d": fields.zero_count_experiment_2d,
            "fields.nodal_length_experiment": fields.nodal_length_experiment,
        }
        lib = self.lib
        rng = np.random.default_rng([seed, 2])
        phase = rng.uniform(0.0, 2.0 * math.pi / 64)
        a = rng.uniform(0.0, 50.0)
        x0, y0 = rng.uniform(0.0, 50.0, size=2)
        seeds = [int(s) for s in rng.integers(0, 2**62, size=4)]

        self.rice = FieldSpec(1, (rice_kernel(),))
        self.line = Region([a], [a + 100.0])
        self.sparse = FieldSpec(2, (circular_kernel(1.0, phase), circular_kernel(1.0, phase)))
        self.dense = FieldSpec(2, (circular_kernel(6.0, phase), circular_kernel(6.0, phase)))
        self.nodal = FieldSpec(2, (circular_kernel(1.0, phase),))
        self.square = Region([x0, y0], [x0 + 10.0, y0 + 10.0])

        def count1d_job(name, threads):
            return mc_job(
                name,
                "zero_count_experiment_1d",
                lambda: lib["fields.zero_count_experiment_1d"](
                    self.rice, self.line, 4096, seeds[0], threads=threads
                ),
                lambda e: within(e.mean, e.std_error, 100.0 * math.sqrt(5.0) / math.pi),
            )

        self.order = [
            count1d_job("count1d_rice", nproc),
            mc_job(
                "count2d_sparse",
                "zero_count_experiment_2d",
                lambda: lib["fields.zero_count_experiment_2d"](
                    self.sparse, self.square, 96, seeds[1], threads=nproc
                ),
                lambda e: within(e.mean, e.std_error, 100.0 / (4.0 * math.pi)),
            ),
            mc_job(
                "count2d_dense",
                "zero_count_experiment_2d",
                lambda: lib["fields.zero_count_experiment_2d"](
                    self.dense, self.square, 8, seeds[2], threads=nproc
                ),
                lambda e: within(e.mean, e.std_error, 3600.0 / (4.0 * math.pi)),
            ),
            mc_job(
                "nodal_length",
                "nodal_length_experiment",
                lambda: lib["fields.nodal_length_experiment"](
                    self.nodal, self.square, 48, seeds[3], threads=nproc
                ),
                lambda e: within(e.mean, e.std_error, 100.0 / (2.0 * math.sqrt(2.0))),
            ),
        ]
        self.speedup = (count1d_job("count1d_rice@1thread", 1), count1d_job("count1d_rice@nproc", nproc))

    def warm_up(self) -> None:
        fields.zero_count_experiment_1d(self.rice, self.line, 2, 0)
        fields.zero_count_experiment_2d(self.sparse, self.square, 2, 0)
        fields.nodal_length_experiment(self.nodal, self.square, 2, 0)


# ---------------------------------------------------------------------------

_WALL_TIME = re.compile(r', "wall_time_ms": -?\d+')


def kac_density(weights: np.ndarray, degrees: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Kac-Rice zero density of sum_j sqrt(w_j) c_j t^deg_j, c_j iid N(0, 1)."""
    x = t[:, None]
    a = np.sum(weights * x ** (2 * degrees), axis=1)
    pos = degrees > 0
    b = np.sum(weights[pos] * degrees[pos] * x ** (2 * degrees[pos] - 1), axis=1)
    c = np.sum(weights[pos] * degrees[pos] ** 2 * x ** (2 * degrees[pos] - 2), axis=1)
    return np.sqrt(np.maximum(c / a - (b / a) ** 2, 0.0)) / math.pi


def composite_gauss(f, lo: float, hi: float, pieces: int = 64, order: int = 20) -> float:
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, pieces + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    return float(np.sum((half[:, None] * w[None, :]).ravel() * f(nodes)))


def ellipse_perimeter(a: float, b: float) -> float:
    # the trapezoid rule is spectrally accurate for smooth periodic integrands
    t = 2.0 * math.pi * np.arange(4096) / 4096
    return float(np.mean(np.sqrt((a * np.sin(t)) ** 2 + (b * np.cos(t)) ** 2)) * 2.0 * math.pi)


def permanent_over_factorial(rows: np.ndarray) -> float:
    """D(diag(rows[0]), .., diag(rows[d-1])) = per(rows) / d!."""
    d = rows.shape[0]
    perms = np.array(list(itertools.permutations(range(d))))
    return float(np.sum(np.prod(rows[np.arange(d), perms], axis=1))) / math.factorial(d)


class CliRequests:
    """In-process `mixvol` CLI calls in a fixed shuffled order, one client."""

    name = "cli_requests"

    def __init__(self, seed: int, nproc: int, workdir: str):
        self.lib = {"cli.main": cli.main}
        self.exits: Counter[int] = Counter()
        self.workdir = workdir
        rng = self.rng = np.random.default_rng([seed, 3])
        self.requests: list[Job] = []
        threads = ["--threads", str(nproc)]
        mc = lambda: ["--samples", "4096", "--seed", str(int(rng.integers(0, 2**62)))] + threads

        # twelve fixed ellipse pairs, each under a seeded common rotation and
        # scale: the mixed area changes, its relative standard error does not
        fixed = np.random.default_rng(2012)
        for i in range(12):
            q, scale = rotation(rng, 2), rng.uniform(0.5, 2.0)
            bodies = [scale * scale * conjugate(q, self._spd(2, fixed)) for _ in range(2)]
            path = self._ellipsoids(f"full2_{i}", bodies)
            es = load_ellipsoids(path)
            ref = mixed_area_oracle(*(SupportBody2D.from_ellipsoid(e) for e in es))
            self._mc(f"full_d2_{i}", "full", ["full", "--ellipsoids", path] + mc(), ref)
        for i in range(8):
            radii = rng.uniform(0.5, 2.0, size=3)
            path = self._ellipsoids(f"full3_{i}", [r * r * np.eye(3) for r in radii])
            self._mc(f"full_d3_{i}", "full", ["full", "--ellipsoids", path] + mc(), kappa(3) * np.prod(radii))
        for i, d in enumerate([3, 4, 5] * 4):
            radii = rng.uniform(0.5, 2.0, size=2)
            path = self._ellipsoids(f"withballs_{i}", [r * r * np.eye(d) for r in radii])
            ref = kappa(d) * np.prod(radii)
            self._mc(f"withballs_d{d}_{i}", "withballs", ["withballs", "--ellipsoids", path] + mc(), ref)
        for i, d in enumerate(list(range(3, 9)) * 2):
            k, r = (d + 1) // 2, rng.uniform(0.5, 2.0)
            path = self._ellipsoids(f"intrinsic_{i}", [r * r * np.eye(d)])
            ref = r**k * math.comb(d, k) * kappa(d) / kappa(d - k)
            argv = ["intrinsic", "--ellipsoid", path, "--k", str(k)] + mc()
            self._mc(f"intrinsic_d{d}k{k}_{i}", "intrinsic", argv, ref)
        for i, d in enumerate(list(range(2, 6)) * 2):
            r = rng.uniform(0.5, 2.0)
            path = self._ellipsoids(f"meanwidth_{i}", [r * r * np.eye(d)])
            self._mc(f"meanwidth_d{d}_{i}", "meanwidth", ["meanwidth", "--ellipsoid", path] + mc(), 2.0 * r)
        for i, d in enumerate(list(range(2, 9)) * 2):
            rows = rng.uniform(0.5, 2.0, size=(d, d))
            q = rotation(rng, d)
            mats = [conjugate(q, np.diag(row)) for row in rows]
            path = self._write(f"matrices_{i}.json", {"matrices": [m.tolist() for m in mats]})
            SymmetricTuple(tuple(mats))
            ref = permanent_over_factorial(rows)
            self._request(f"discriminant_d{d}_{i}", "discriminant", ["discriminant", "--matrices", path],
                        lambda rep, ref=ref: close(rep["value"], ref, 1e-9))
            rows = rng.uniform(0.5, 2.0, size=(d, d))
            q = rotation(rng, d)
            path = self._ellipsoids(f"bounds_{i}", [conjugate(q, np.diag(row)) for row in rows])
            disc = permanent_over_factorial(rows)
            lower = kappa(d) * 3.0 ** (-(d - 1) / 2.0) * math.sqrt(disc)
            self._request(
                f"bounds_d{d}_{i}", "bounds", ["bounds", "--ellipsoids", path],
                lambda rep, disc=disc, lower=lower, upper=kappa(d) * math.sqrt(disc): close(
                    rep["discriminant"], disc, 1e-9) or close(rep["lower"], lower, 1e-9)
                or close(rep["upper"], upper, 1e-9),
            )
        for i in range(12):
            a, b = rng.uniform(1.0, 3.0), rng.uniform(0.3, 1.0)
            r = rng.uniform(0.5, 2.0)
            q = rotation(rng, 2)
            path = self._ellipsoids(f"oracle_{i}", [conjugate(q, np.diag([a * a, b * b])), r * r * np.eye(2)])
            mixed = r * ellipse_perimeter(a, b) / 2.0

            def oracle_check(rep, mixed=mixed, area=math.pi * a * b, disk=math.pi * r * r):
                return (
                    close(rep["mixed_area"], mixed, 1e-9)
                    or close(rep["area_first"], area, 1e-9)
                    or close(rep["area_second"], disk, 1e-9)
                    or (None if rep["fit_discrepancy"] <= 1e-6 else ("wrong", f"fit discrepancy {rep['fit_discrepancy']:.2e}"))
                )

            argv = ["oracle2d", "--ellipsoids", path, "--grid", "8192"]
            self._request(f"oracle2d_{i}", "oracle2d", argv, oracle_check)
        for i, d in enumerate([2, 3, 4, 5] * 3):
            v = rng.normal(size=d)
            v *= rng.uniform(0.5, 2.0) / np.linalg.norm(v)
            path = self._write(f"points_{i}.json", {"points": [v.tolist(), (-v).tolist()]})
            PointCloud(np.array([v, -v]))
            ref = float(np.linalg.norm(v)) * math.sqrt(2.0 / math.pi)
            self._mc(f"sudakov_d{d}_{i}", "sudakov", ["sudakov", "--points", path] + mc(), ref)

        fz = ["fieldzeros"]
        for i in range(4):
            s, t = rng.uniform(0.5, 2.0), rng.uniform(-10.0, 10.0)
            path = self._field(f"rice_{i}", FieldSpec(1, (rice_kernel(s),)))
            self._request(f"intensity_rice_{i}", "fieldzeros intensity",
                        fz + ["intensity", "--field", path, "--at", f"{t!r}"],
                        lambda rep, ref=s * math.sqrt(5.0) / math.pi: close(rep["value"], ref, 1e-12))
            s, phase = rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)
            path = self._field(f"nodal_{i}", FieldSpec(2, (circular_kernel(s, phase),)))
            self._request(f"intensity_nodal_{i}", "fieldzeros intensity",
                        fz + ["intensity", "--field", path, "--at", "0.5,0.25"],
                        lambda rep, ref=s / (2.0 * math.sqrt(2.0)): close(rep["value"], ref, 1e-12))
        for i in range(6):
            s, phase = rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)
            path = self._field(f"pair_{i}", FieldSpec(2, (circular_kernel(s, phase), circular_kernel(s, phase))))
            self._mc(f"intensity_pair_{i}", "fieldzeros intensity",
                     fz + ["intensity", "--field", path] + mc(), s * s / (4.0 * math.pi))
        for i in range(4):
            s, lo = rng.uniform(0.5, 2.0), rng.uniform(-50.0, 50.0)
            length = rng.uniform(10.0, 100.0)
            field = self._field(f"rice_m{i}", FieldSpec(1, (rice_kernel(s),)))
            region = self._region(f"line_m{i}", Region([lo], [lo + length]))
            self._request(f"measure_rice_{i}", "fieldzeros measure",
                        fz + ["measure", "--field", field, "--region", region],
                        lambda rep, ref=length * s * math.sqrt(5.0) / math.pi: close(rep["value"], ref, 1e-12))
            s, phase = rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)
            w, h = rng.uniform(2.0, 10.0, size=2)
            field = self._field(f"pair_m{i}", FieldSpec(2, (circular_kernel(s, phase), circular_kernel(s, phase))))
            region = self._region(f"box_m{i}", Region([0.0, 0.0], [w, h]))
            self._mc(f"measure_pair_{i}", "fieldzeros measure",
                     fz + ["measure", "--field", field, "--region", region] + mc(),
                     s * s * w * h / (4.0 * math.pi))
        for i, degree in enumerate([2, 3, 4] * 2):
            weights = rng.uniform(0.5, 2.0, size=degree + 1)
            lo, hi = sorted(rng.uniform(-5.0, 5.0, size=2))
            field = self._field(f"poly_{i}", FieldSpec(1, (KernelSpec.polynomial(
                [(float(w), j) for j, w in enumerate(weights)]),)))
            region = self._region(f"poly_line_{i}", Region([lo], [hi]))
            degrees = np.arange(degree + 1, dtype=float)
            ref = composite_gauss(lambda t: kac_density(weights, degrees, t), lo, hi)

            def poly_check(rep, ref=ref):
                if abs(rep["value"] - ref) <= max(4.0 * rep["std_error"], 1e-9 * ref):
                    return None
                return ("wrong", f"{rep['value']!r} vs Kac-Rice reference {ref!r} (quadrature delta {rep['std_error']:.1e})")

            self._request(f"measure_poly_d{degree}_{i}", "fieldzeros measure",
                        fz + ["measure", "--field", field, "--region", region], poly_check)

        for i in range(3):
            s, lo = rng.uniform(0.8, 1.2), rng.uniform(-50.0, 50.0)
            spec = FieldSpec(1, (rice_kernel(s),))
            field = self._field(f"rice_s{i}", spec)
            region = Region([lo], [lo + 20.0])
            seed_i = int(rng.integers(0, 2**62))
            argv = fz + ["simulate", "--field", field, "--region", self._region(f"line_s{i}", region),
                         "--grid", "2048", "--seed", str(seed_i)]
            self._request(f"simulate_1d_{i}", "fieldzeros simulate", argv, self._zeros_check(spec, region, seed_i))
        phase, x0 = rng.uniform(0.0, 1.0), rng.uniform(-50.0, 50.0)
        spec = FieldSpec(2, (circular_kernel(1.0, phase), circular_kernel(1.0, phase)))
        region = Region([x0, x0], [x0 + 5.0, x0 + 5.0])
        seed_2d = int(rng.integers(0, 2**62))
        argv = fz + ["simulate", "--field", self._field("pair_s", spec), "--region",
                     self._region("box_s", region), "--grid", "128", "--seed", str(seed_2d)]
        self._request("simulate_2d", "fieldzeros simulate", argv, self._zeros_check(spec, region, seed_2d))
        phase = rng.uniform(0.0, 1.0)
        field = self._field("nodal_s", FieldSpec(2, (circular_kernel(1.0, phase),)))
        region = self._region("box_len", Region([0.0, 0.0], [5.0, 5.0]))
        argv = fz + ["simulate", "--field", field, "--region", region, "--grid", "256",
                     "--seed", str(int(rng.integers(0, 2**62)))]
        self._request("simulate_length", "fieldzeros simulate", argv,
                    lambda rep: None if 0.0 < rep["length"] < 100.0 else ("wrong", f"length {rep['length']}"))

        for i in range(2):
            lo = rng.uniform(-50.0, 50.0)
            field = self._field(f"rice_c{i}", FieldSpec(1, (rice_kernel(),)))
            region = self._region(f"line_c{i}", Region([lo], [lo + 50.0]))
            argv = fz + ["compare", "--field", field, "--region", region, "--realizations", "256",
                         "--grid", "2048"] + mc()
            self._compare(f"compare_1d_{i}", argv)
        phase = rng.uniform(0.0, 1.0)
        field = self._field("pair_c", FieldSpec(2, (circular_kernel(1.0, phase), circular_kernel(1.0, phase))))
        region = self._region("box_c", Region([0.0, 0.0], [10.0, 10.0]))
        argv = fz + ["compare", "--field", field, "--region", region, "--realizations", "16",
                     "--grid", "128"] + mc()
        self._compare("compare_2d", argv)

        # malformed inputs: the documented contract is exit code 2
        trunc = self._text("truncated.json", json.dumps([{"dim": 2, "sigma": [[4.0, 0.0], [0.0, 1.0]]}])[:30])
        strsig = self._text("string_sigma.json", json.dumps(
            [{"dim": 2, "sigma": [[4.0, "x"], [0.0, 1.0]]}, {"dim": 2, "sigma": [[1.0, 0.0], [0.0, 1.0]]}]))
        ragged = self._text("ragged.json", json.dumps({"points": [[1.0, 0.0], [0.0]]}))
        self._request("malformed_truncated_ellipsoids", "malformed", ["full", "--ellipsoids", trunc] + mc(), expect=2)
        self._request("malformed_string_sigma", "malformed", ["withballs", "--ellipsoids", strsig] + mc(), expect=2)
        self._request("malformed_ragged_points", "malformed", ["sudakov", "--points", ragged] + mc(), expect=2)

        # each request is issued twice, in one fixed shuffled order
        doubled = self.requests + self.requests
        self.order = [doubled[i] for i in rng.permutation(len(doubled))]

        bodies5 = [self._spd(5) for _ in range(5)]
        path = self._ellipsoids("speedup_d5", bodies5)
        lower5, upper5 = barvinok_bounds(load_ellipsoids(path))
        seed5 = str(int(rng.integers(0, 2**62)))

        def speedup_request(name, threads):
            def check(rep):
                lo, hi = rep["value"] - 4.0 * rep["std_error"], rep["value"] + 4.0 * rep["std_error"]
                return None if hi >= lower5 and lo <= upper5 else ("wrong", f"{rep['value']} outside sandwich")

            argv = ["full", "--ellipsoids", path, "--samples", str(4 * CHUNK), "--seed", seed5,
                    "--threads", str(threads)]
            return self._job(name, "full", argv, 0, check)

        self.speedup = (speedup_request("full_d5@1thread", 1), speedup_request("full_d5@nproc", nproc))

    # -- input files ---------------------------------------------------------

    def _spd(self, d: int, gen: np.random.Generator | None = None) -> np.ndarray:
        g = (gen or self.rng).normal(size=(d, d))
        return g @ g.T + 0.5 * d * np.eye(d)

    def _write(self, name: str, obj) -> str:
        return self._text(name, json.dumps(obj))

    def _text(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _ellipsoids(self, name: str, sigmas) -> str:
        path = self._write(f"{name}.json", [{"dim": len(s), "sigma": np.asarray(s).tolist()} for s in sigmas])
        load_ellipsoids(path)
        return path

    def _field(self, name: str, spec: FieldSpec) -> str:
        path = self._write(f"{name}.json", fields.field_to_json(spec))
        load_field(path)
        return path

    def _region(self, name: str, region: Region) -> str:
        path = self._write(f"{name}.json", fields.region_to_json(region))
        load_region(path)
        return path

    # -- requests ------------------------------------------------------------

    def _call(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.lib["cli.main"](argv)
            except SystemExit as exc:  # argparse rejects with SystemExit(2)
                code = exc.code if isinstance(exc.code, int) else 2
        self.exits[code] += 1
        return code, out.getvalue(), err.getvalue()

    def _job(self, name, kind, argv, expect, check, value_key="value", se_key="std_error", n_key="n_samples") -> Job:
        def verdict(result):
            code, out, err = result
            if code != expect:
                return ("fault", f"exit {code}, expected {expect}: {err.strip()[:120]}")
            if expect != 0:
                return None
            return check(json.loads(out))

        def samples(result):
            code, out, _ = result
            if code != 0:
                return 0
            n = json.loads(out).get(n_key, 0)
            return n if n > 1 else 0

        def rse(result):
            rep = json.loads(result[1])
            return rep[se_key] / abs(rep[value_key])

        return Job(
            name,
            kind,
            lambda: self._call(argv),
            verdict,
            fingerprint=lambda r: (r[0], _WALL_TIME.sub("", r[1]), r[2]),
            samples=samples,
            rse=rse,
        )

    def _request(self, name, kind, argv, check=lambda rep: None, expect=0, **keys) -> None:
        self.requests.append(self._job(name, kind, argv, expect, check, **keys))

    def _mc(self, name, kind, argv, ref) -> None:
        self._request(name, kind, argv, lambda rep: within(rep["value"], rep["std_error"], ref))

    def _compare(self, name, argv) -> None:
        def check(rep):
            z = rep["z_score"]
            return None if abs(z) <= 4.0 else ("wrong", f"empirical vs analytic z-score {z:.2f}")

        self._request(name, "fieldzeros compare", argv, check,
                      value_key="empirical_mean", se_key="empirical_std_error", n_key="n_realizations")

    def _zeros_check(self, spec: FieldSpec, region: Region, seed: int):
        """The reported zeros are zeros of the same realization, inside the region."""

        def check(rep):
            zeros = np.atleast_2d(np.asarray(rep["zeros"], dtype=float))
            if spec.dim == 1:
                zeros = zeros.reshape(-1, 1)
            if rep["count"] != len(rep["zeros"]):
                return ("wrong", f"count {rep['count']} but {len(rep['zeros'])} zeros listed")
            if not rep["zeros"]:
                return None
            real = simulate_realization(spec, RngStream(seed, 0))
            worst = float(np.max(np.abs(real.values(zeros))))
            inside = region.contains(zeros) if spec.dim > 1 else (
                (zeros[:, 0] >= region.lower[0]) & (zeros[:, 0] < region.upper[0]))
            if worst > 1e-6 or not np.all(inside):
                return ("wrong", f"max |X(zero)| {worst:.1e}, all inside: {bool(np.all(inside))}")
            return None

        return check

    def warm_up(self) -> None:
        seen = set()
        for job in self.requests:
            if job.kind not in seen and job.kind != "malformed":
                seen.add(job.kind)
                job.run()


WORKLOADS = {w.name: w for w in (McVolumes, FieldZeros, CliRequests)}
