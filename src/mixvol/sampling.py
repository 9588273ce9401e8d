"""Gaussian sampling and the chunked Monte Carlo engine.

Reproducibility contract: every estimator splits its n samples into fixed
chunks of 2^16, chunk i draws from a counter-based Philox stream keyed by
(seed, stream_base + i), and partial sums are combined in chunk order.  The
result is therefore a pure function of (seed, n) and is bit-identical for
any number of worker threads.

Volumes of random parallelotopes come from one structure-of-arrays kernel:
the k rows of a block of samples are stored as a (k, d, block) array, and the
volume is |ad - bc| for k = d = 2 and otherwise the product of the row norms
left by a modified Gram-Schmidt sweep (the diagonal of R in M^T = QR).  M M^T
is never formed, so the condition number is not squared for elongated
ellipsoids.  Seeds and stream indices are the two 64-bit words of the Philox
key and must lie in [0, 2^64); nothing is reduced modulo 2^64, so distinct
seeds never alias.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np
from numpy.random import Generator, Philox

from .errors import DimensionMismatch, OutOfRange
from .geometry import SPDMatrix

CHUNK = 1 << 16  # samples per substream; fixed so parallel == serial
BLOCK = 1 << 12  # samples per Gram-kernel block; (k, d, BLOCK) stays in cache
SEED_LIMIT = 1 << 64  # seeds and stream indices are 64-bit Philox key words


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream identified by (seed, stream_index).

    Streams with distinct identifiers are statistically independent, and the
    values drawn are a pure function of (seed, stream_index, position).  Both
    must lie in [0, 2^64), otherwise OutOfRange.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_index"):
            value = getattr(self, name)
            if not 0 <= value < SEED_LIMIT:
                raise OutOfRange(f"{name} must be in [0, 2^64), got {value}")

    def generator(self) -> Generator:
        key = np.array([self.seed, self.stream_index], dtype=np.uint64)
        return Generator(Philox(key=key))


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo point estimate with provenance.

    ci_half_width = z(ci_level) * std_error with z the two-sided standard
    normal quantile; std_error is the sample standard deviation over sqrt(n).
    """

    mean: float
    std_error: float
    n_samples: int
    seed: int
    ci_level: float = 0.99
    ci_half_width: float = 0.0

    @property
    def interval(self) -> tuple[float, float]:
        return (self.mean - self.ci_half_width, self.mean + self.ci_half_width)

    def scaled(self, c: float) -> "MCEstimate":
        """Estimate of c times the underlying expectation."""
        return MCEstimate(
            mean=c * self.mean,
            std_error=abs(c) * self.std_error,
            n_samples=self.n_samples,
            seed=self.seed,
            ci_level=self.ci_level,
            ci_half_width=abs(c) * self.ci_half_width,
        )

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "ci_level": self.ci_level,
            "ci_half_width": self.ci_half_width,
        }


def normal_quantile(ci_level: float) -> float:
    if not 0.0 < ci_level < 1.0:
        raise OutOfRange(f"confidence level must be in (0,1), got {ci_level}")
    return NormalDist().inv_cdf(0.5 + ci_level / 2.0)


@dataclass(frozen=True)
class GaussianVectorSpec:
    """Centered non-degenerate Gaussian vector, given by its covariance."""

    covariance: SPDMatrix

    @property
    def dim(self) -> int:
        return self.covariance.dim


@dataclass(frozen=True)
class MatrixEnsemble:
    """Row specs of a random k x d matrix with independent Gaussian rows."""

    specs: tuple[GaussianVectorSpec, ...]

    def __post_init__(self):
        specs = tuple(self.specs)
        if not specs:
            raise DimensionMismatch("ensemble needs at least one row spec")
        d = specs[0].dim
        if any(s.dim != d for s in specs):
            raise DimensionMismatch("all row specs must share one dimension")
        if len(specs) > d:
            raise DimensionMismatch(
                f"number of rows {len(specs)} exceeds dimension {d}"
            )
        object.__setattr__(self, "specs", specs)

    @property
    def n_rows(self) -> int:
        return len(self.specs)

    @property
    def dim(self) -> int:
        return self.specs[0].dim


def sample_gaussian(spec: GaussianVectorSpec, stream: RngStream) -> np.ndarray:
    """First N(0, covariance) draw of the stream: factor @ z, z standard normal."""
    z = stream.generator().standard_normal(spec.dim)
    return spec.covariance.factor @ z


def gram_volume(rows) -> float:
    """k-volume of the parallelotope spanned by k row vectors in R^d.

    Equals sqrt(det(A A^T)); computed by the batched kernel on a batch of
    one: |ad - bc| for a 2 x 2 matrix, otherwise the product of the row norms
    of a modified Gram-Schmidt sweep.  Linearly dependent rows give 0.
    """
    a = np.atleast_2d(np.asarray(rows, dtype=float))
    k, d = a.shape
    if k > d:
        raise DimensionMismatch(f"{k} rows cannot be independent in R^{d}")
    return float(_soa_gram_volumes(a[:, :, None].copy())[0])


def _soa_gram_volumes(a: np.ndarray) -> np.ndarray:
    """Gram volumes of n row matrices stored as a (k, d, n) array -> (n,).

    k = d = 2 is |ad - bc|.  Otherwise the rows are orthogonalised in place
    by modified Gram-Schmidt, and the volume is the product of the k norms
    (k = 1 is the row norm).  A zero row gives volume 0, not NaN.
    """
    k, d, _ = a.shape
    if k == d == 2:
        return np.abs(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    vol = None
    for i in range(k):
        row = a[i]
        norm = np.sqrt(np.einsum("jn,jn->n", row, row))
        vol = norm if vol is None else vol * norm
        if i + 1 < k:
            row /= np.where(norm > 0.0, norm, 1.0)
            for later in a[i + 1 :]:
                later -= row * np.einsum("jn,jn->n", row, later)
    return vol


def chunked_mc_mean(
    stat,
    sample_shape: tuple[int, ...],
    n: int,
    seed: int,
    *,
    ci_level: float = 0.99,
    threads: int = 1,
    stream_base: int = 0,
    antithetic: bool = False,
) -> MCEstimate:
    """Mean of stat(z) over n standard-normal blocks z of the given shape.

    stat maps an (m,) + sample_shape array to m statistic values.  With
    antithetic=True the blocks come in (z, -z) pairs and the standard error
    is computed over pair means; n is rounded up to the next even number.
    Note that statistics even in z (such as |det|) make the mirrored half an
    exact duplicate, so antithetics buy nothing there.
    """
    if n < 2:
        raise OutOfRange(f"need n >= 2 samples, got {n}")
    if antithetic and n % 2:
        n += 1
    n_chunks = (n + CHUNK - 1) // CHUNK
    # built here so a seed or stream index out of range raises before any work
    streams = [RngStream(seed, stream_base + ci) for ci in range(n_chunks)]

    def run_chunk(ci: int) -> tuple[float, float, int]:
        m = min(CHUNK, n - ci * CHUNK)
        gen = streams[ci].generator()
        if antithetic:
            half = gen.standard_normal((m // 2,) + sample_shape)
            vals = stat(np.concatenate([half, -half], axis=0))
            pair_means = 0.5 * (vals[: m // 2] + vals[m // 2 :])
            return float(pair_means.sum()), float((pair_means * pair_means).sum()), m // 2
        vals = np.asarray(stat(gen.standard_normal((m,) + sample_shape)), dtype=float)
        return float(vals.sum()), float((vals * vals).sum()), m

    if threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(run_chunk, range(n_chunks)))
    else:
        partials = [run_chunk(ci) for ci in range(n_chunks)]

    # Sequential reduction in chunk order keeps the result thread-count
    # independent down to the last bit.
    total = 0.0
    total_sq = 0.0
    units = 0
    for s, sq, m in partials:
        total += s
        total_sq += sq
        units += m

    mean = total / units
    var = max(total_sq - units * mean * mean, 0.0) / max(units - 1, 1)
    se = math.sqrt(var / units)
    return MCEstimate(
        mean=mean,
        std_error=se,
        n_samples=n,
        seed=seed,
        ci_level=ci_level,
        ci_half_width=normal_quantile(ci_level) * se,
    )


def _times_pow2(est: MCEstimate, e: int) -> MCEstimate:
    """est scaled by 2^e, which is exact; OutOfRange where a nonzero mean or
    standard error leaves the range of normal doubles."""
    try:
        mean, se, half = (math.ldexp(v, e) for v in (est.mean, est.std_error, est.ci_half_width))
    except OverflowError:
        raise OutOfRange(f"estimate {est.mean!r} * 2^{e} overflows a double") from None
    for before, after in ((est.mean, mean), (est.std_error, se)):
        if before != 0.0 and abs(after) < sys.float_info.min:
            raise OutOfRange(f"estimate {est.mean!r} * 2^{e} underflows a double")
    return replace(est, mean=mean, std_error=se, ci_half_width=half)


def expected_gram_volume(
    ensemble: MatrixEnsemble,
    n: int = 1_000_000,
    seed: int = 0,
    *,
    ci_level: float = 0.99,
    threads: int = 1,
    stream_base: int = 0,
) -> MCEstimate:
    """Monte Carlo E sqrt(det(M M^T)) for M with independent Gaussian rows.

    This is the average k-volume of the random parallelotope spanned by the
    rows; for k = d it is E|det M|.  The volume is linear in each row's
    scale, so row factor i is divided by 2^e_i, with e_i the binary exponent
    of its largest entry, and the estimate multiplied by 2^(e_1 + .. + e_k):
    exact in binary, and the statistic and its square stay within double
    range.  A true value outside that range raises OutOfRange.
    """
    k, d = ensemble.n_rows, ensemble.dim
    raw = [s.covariance.factor for s in ensemble.specs]
    exponents = [math.frexp(float(np.max(np.abs(f))))[1] for f in raw]
    factors = [np.ldexp(f, -e) for f, e in zip(raw, exponents)]

    def stat(z: np.ndarray) -> np.ndarray:
        m = z.shape[0]
        out = np.empty(m)
        a = np.empty((k, d, min(BLOCK, m)))
        for lo in range(0, m, BLOCK):
            hi = min(lo + BLOCK, m)
            block = a[:, :, : hi - lo]
            for i, f in enumerate(factors):
                np.matmul(f, z[lo:hi, i, :].T, out=block[i])
            out[lo:hi] = _soa_gram_volumes(block)
        return out

    est = chunked_mc_mean(
        stat,
        (k, d),
        n,
        seed,
        ci_level=ci_level,
        threads=threads,
        stream_base=stream_base,
    )
    return _times_pow2(est, sum(exponents))
