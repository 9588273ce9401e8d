"""Mixed volumes, intrinsic volumes, and widths via Gaussian determinants.

All estimators are exact rescalings of the same expectation: for a random
k x d matrix M whose i-th row is N(0, sigma_i),

    E sqrt(det(M M^T)) = (d)_k / ((2 pi)^(k/2) kappa_{d-k})
                         * V_d(E_1, ..., E_k, B, ..., B),

where E_i is the ellipsoid with representing matrix sigma_i and B fills the
remaining d-k slots with unit balls.  Inverting the constant turns a Monte
Carlo determinant average into a mixed-volume estimate; specializing the
rows gives intrinsic volumes, mean width, expected norms, and the Gaussian
width of finite point sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, IllConditionedEllipsoid, OutOfRange
from .geometry import Ellipsoid, falling_factorial, unit_ball_volume
from .sampling import (
    GaussianVectorSpec,
    MatrixEnsemble,
    MCEstimate,
    chunked_mc_mean,
    expected_gram_volume,
)

MAX_CONDITION = 1e12
SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Substream offset separating the consistency-check run of expected_norm
# from the direct run, so the two estimates are independent for equal seeds.
_CROSS_CHECK_STREAM_BASE = 1 << 32


@dataclass(frozen=True)
class MixedVolumeQuery:
    """k ellipsoids in R^d; the remaining d-k mixed-volume slots are balls."""

    ellipsoids: tuple[Ellipsoid, ...]

    def __post_init__(self):
        es = tuple(self.ellipsoids)
        if not es:
            raise DimensionMismatch("query needs at least one ellipsoid")
        d = es[0].dim
        if any(e.dim != d for e in es):
            raise DimensionMismatch("all ellipsoids must share one dimension")
        if len(es) > d:
            raise DimensionMismatch(f"{len(es)} bodies exceed dimension {d}")
        object.__setattr__(self, "ellipsoids", es)

    @property
    def dim(self) -> int:
        return self.ellipsoids[0].dim

    @property
    def n_ellipsoids(self) -> int:
        return len(self.ellipsoids)


@dataclass(frozen=True)
class PointCloud:
    """Finite nonempty set of points in R^d."""

    points: np.ndarray

    def __post_init__(self):
        p = np.atleast_2d(np.asarray(self.points, dtype=float))
        if p.size == 0:
            raise DimensionMismatch("point cloud must be nonempty")
        if not np.all(np.isfinite(p)):
            raise DimensionMismatch("point cloud entries must be finite")
        p = np.ascontiguousarray(p)
        p.flags.writeable = False
        object.__setattr__(self, "points", p)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _check_conditioning(ellipsoids: Sequence[Ellipsoid]) -> None:
    for i, e in enumerate(ellipsoids):
        cond = e.sigma.condition_number()
        if cond > MAX_CONDITION:
            raise IllConditionedEllipsoid(
                f"ellipsoid {i} has condition number {cond:.3e} > 1e12; "
                "the determinant statistic is too ill-conditioned to estimate"
            )


def _ensemble(ellipsoids: Sequence[Ellipsoid]) -> MatrixEnsemble:
    return MatrixEnsemble(tuple(GaussianVectorSpec(e.sigma) for e in ellipsoids))


def mixed_volume_with_balls(
    query: MixedVolumeQuery | Sequence[Ellipsoid],
    n: int = 1_000_000,
    seed: int = 0,
    *,
    ci_level: float = 0.99,
    threads: int = 1,
) -> MCEstimate:
    """V_d(E_1, ..., E_k, B, ..., B) with d-k unit-ball slots."""
    if not isinstance(query, MixedVolumeQuery):
        query = MixedVolumeQuery(tuple(query))
    _check_conditioning(query.ellipsoids)
    k, d = query.n_ellipsoids, query.dim
    raw = expected_gram_volume(
        _ensemble(query.ellipsoids), n, seed, ci_level=ci_level, threads=threads
    )
    const = (
        (2.0 * math.pi) ** (k / 2.0)
        * unit_ball_volume(d - k)
        / falling_factorial(d, k)
    )
    return raw.scaled(const)


def mixed_volume_full(
    ellipsoids: Sequence[Ellipsoid],
    n: int = 1_000_000,
    seed: int = 0,
    *,
    ci_level: float = 0.99,
    threads: int = 1,
) -> MCEstimate:
    """V_d(E_1, ..., E_d) of exactly d ellipsoids: (2 pi)^(d/2)/d! * E|det M|."""
    ellipsoids = tuple(ellipsoids)
    if not ellipsoids:
        raise DimensionMismatch("need d ellipsoids, got none")
    d = ellipsoids[0].dim
    if len(ellipsoids) != d:
        raise DimensionMismatch(
            f"mixed volume needs exactly d={d} bodies, got {len(ellipsoids)}"
        )
    return mixed_volume_with_balls(
        MixedVolumeQuery(ellipsoids), n, seed, ci_level=ci_level, threads=threads
    )


def intrinsic_volume(
    e: Ellipsoid,
    k: int,
    n: int = 1_000_000,
    seed: int = 0,
    *,
    ci_level: float = 0.99,
    threads: int = 1,
) -> MCEstimate:
    """k-th intrinsic volume V_k(E) = (2 pi)^(k/2)/k! * E sqrt(det(M M^T)).

    The k rows of M are i.i.d. N(0, sigma).  The normalization makes V_k
    independent of the ambient dimension; V_d is the ordinary volume and
    V_1 is proportional to the mean width.
    """
    if not 1 <= k <= e.dim:
        raise OutOfRange(f"order k={k} outside [1, {e.dim}]")
    _check_conditioning([e])
    raw = expected_gram_volume(
        _ensemble([e] * k), n, seed, ci_level=ci_level, threads=threads
    )
    return raw.scaled((2.0 * math.pi) ** (k / 2.0) / math.factorial(k))


def mean_width(
    e: Ellipsoid,
    n: int = 1_000_000,
    seed: int = 0,
    *,
    ci_level: float = 0.99,
    threads: int = 1,
) -> MCEstimate:
    """Mean width w(E) = 2 kappa_{d-1} / (d kappa_d) * V_1(E)."""
    d = e.dim
    v1 = intrinsic_volume(e, 1, n, seed, ci_level=ci_level, threads=threads)
    return v1.scaled(2.0 * unit_ball_volume(d - 1) / (d * unit_ball_volume(d)))


@dataclass(frozen=True)
class NormComparison:
    """E||xi|| measured two ways: directly, and as V_1(E)/sqrt(2 pi)."""

    direct: MCEstimate
    via_intrinsic: MCEstimate

    def z_score(self) -> float:
        gap = self.direct.mean - self.via_intrinsic.mean
        se = math.hypot(self.direct.std_error, self.via_intrinsic.std_error)
        return gap / se if se > 0 else 0.0


def expected_norm(
    e: Ellipsoid,
    n: int = 1_000_000,
    seed: int = 0,
    *,
    ci_level: float = 0.99,
    threads: int = 1,
) -> NormComparison:
    """E||xi|| for xi ~ N(0, sigma), with the intrinsic-volume cross-check.

    The direct estimate averages ||factor @ z||; the second value is
    V_1(E)/sqrt(2 pi) from an independent substream, which the Gaussian
    width identity says must agree.
    """
    _check_conditioning([e])
    factor = e.sigma.factor

    def stat(z: np.ndarray) -> np.ndarray:
        return np.linalg.norm(z @ factor.T, axis=1)

    direct = chunked_mc_mean(
        stat, (e.dim,), n, seed, ci_level=ci_level, threads=threads
    )
    # One-row gram volumes on a disjoint substream, pushed through the V_1
    # normalization and back: same constants as intrinsic_volume(e, 1), but
    # statistically independent of the direct run for equal seeds.
    v1 = expected_gram_volume(
        _ensemble([e]),
        n,
        seed,
        ci_level=ci_level,
        threads=threads,
        stream_base=_CROSS_CHECK_STREAM_BASE,
    ).scaled(SQRT_TWO_PI)
    return NormComparison(direct=direct, via_intrinsic=v1.scaled(1.0 / SQRT_TWO_PI))


@dataclass(frozen=True)
class SudakovWidth:
    """Gaussian width of a finite set and the intrinsic V_1 it implies."""

    gaussian_mean: MCEstimate
    implied_v1: MCEstimate


def sudakov_width(
    cloud: PointCloud,
    n: int = 1_000_000,
    seed: int = 0,
    *,
    ci_level: float = 0.99,
    threads: int = 1,
    antithetic: bool = False,
) -> SudakovWidth:
    """E max_{x in A} <x, eta> for standard Gaussian eta, and sqrt(2 pi)
    times it, which equals V_1 of the convex hull of A."""
    # a row-major copy of pts.T streams through the product; blocks of
    # 2^15 entries of z @ pts.T keep the max-reduction in cache
    pts_t = np.ascontiguousarray(cloud.points.T)
    block = max(1, (1 << 15) // pts_t.shape[1])

    def stat(z: np.ndarray) -> np.ndarray:
        out = np.empty(z.shape[0])
        for lo in range(0, z.shape[0], block):
            hi = min(lo + block, z.shape[0])
            out[lo:hi] = (z[lo:hi] @ pts_t).max(axis=1)
        return out

    est = chunked_mc_mean(
        stat,
        (cloud.dim,),
        n,
        seed,
        ci_level=ci_level,
        threads=threads,
        antithetic=antithetic,
    )
    return SudakovWidth(gaussian_mean=est, implied_v1=est.scaled(SQRT_TWO_PI))
