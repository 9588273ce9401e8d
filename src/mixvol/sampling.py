"""Gaussian sampling and the chunked Monte Carlo engine.

Reproducibility contract: every estimator splits its n samples into fixed
chunks of 2^16, chunk i draws from a counter-based Philox stream keyed by
(seed, stream_base + i), and reduces to one Moments record: the count, the
mean (q,) and the M2 matrix (q, q) of the vector [y; c], where the
statistic y is entry 0 and c holds its p = q - 1 controls, those of known
mean where there are two or more chunks (otherwise q = 1).  The records
are merged in chunk order by the pairwise update of Chan, Golub &
LeVeque.  With controls, chunk i's moments become those of y - beta_i .
(c - E c), with beta_i the least-squares coefficients of the merged other
chunks (minimum-norm, as controls can be exactly dependent):
control variates whose coefficients are independent of the samples they
adjust.  They are dropped for the plain mean of the same records where the
error bounds of E c could bias it by more than 1e-3 standard errors.
Either way the result is a function of the chunk results only, so it is a
pure function of (seed, n) and is bit-identical for any number of worker
threads; a one-chunk estimate never uses the controls.  Realization
experiments run on the same engine, `map_chunks`, with chunks of
realizations instead of samples.

Volumes of random parallelotopes come from one structure-of-arrays kernel:
the k rows of a block of samples are stored as a (k, d, block) array, and the
volume is the product of the row norms left by a modified Gram-Schmidt sweep
(the diagonal of R in M^T = QR).  M M^T is never formed, so the condition
number is not squared for elongated ellipsoids.  For k = d >= 2 the last row
L_d xi_d is conditioned out: det M is linear in it, so a sample is
E[|det M| | xi_i, i < d] = sqrt(2/pi) |det L_d| vol_{d-1}(L_d^-1 L_i xi_i, i < d).
Where that leaves d - 1 >= 2 rows (k = d >= 3), and for k = d - 1 >= 2, the
last remaining row is taken out too: its part orthogonal to the other rows
is a Gaussian in the 2-D complement, whose mean norm is the perimeter of an
ellipse (Cauchy's formula) by the arithmetic-geometric mean.  A sample then
draws d(d - 2) normals; at d = 5 the relative variance per sample falls from
0.34 to 0.13, at no more time per chunk.  The sweep's row norms also give
the controls of a multi-chunk estimate: the prefix volumes (n_1 .. n_j)^2
and the squared row norms, whose exact means expected_gram_determinant
computes; with them the d = 5 relative variance falls to 0.085.
Seeds and stream indices are the two 64-bit words of the Philox key and must
lie in [0, 2^64); nothing is reduced modulo 2^64, so distinct seeds never alias.
"""

from __future__ import annotations

import math
from concurrent import futures
from dataclasses import dataclass, replace
from functools import reduce
from itertools import accumulate
from statistics import NormalDist

import numpy as np
from numpy.random import Generator, Philox

from .discriminant import expected_gram_determinant
from .errors import DimensionMismatch, OutOfRange
from .geometry import SPDMatrix, rescale_pow2, split_pow2

CHUNK = 1 << 16  # samples per substream; fixed so parallel == serial
BLOCK = 1 << 12  # samples per Gram-kernel block; (k, d, BLOCK) stays in cache
SEED_LIMIT = 1 << 64  # seeds and stream indices are 64-bit Philox key words
SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
# most determinants, C(d, k) (2^k - 1), spent on the exact second moment of
# all k rows, without which a multi-chunk Gram estimate has no controls:
# (8, 4) needs 1050, (16, 8) 3.3e6.  The prefix moments then cost at most
# 18 723 in all, at d = k = 9 (about 0.1 s)
CONTROL_DETERMINANTS = 4096
# a sample whose last-row complement holds less than this share of tr S
# has its traces recomputed by explicit projection (_complement_traces)
RECOMPUTE = 1e-2
# singular values of the controls' correlation matrix below this share of
# the largest are rounding, not signal (Moments.beta)
SOLVE_RCOND = 1e-10


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
        _philox_key(self.seed, self.stream_index)

    def generator(self) -> Generator:
        return Generator(Philox(key=np.array(_philox_key(self.seed, self.stream_index), dtype=np.uint64)))


# a fresh Philox stream's counter and buffer: one shared, immutable zero word
# tuple, which the state setter reads word by word like an array
_ZERO_WORDS = (0, 0, 0, 0)


def _philox_key(seed: int, stream_index: int) -> tuple[int, int]:
    for name, value in (("seed", seed), ("stream_index", stream_index)):
        if not 0 <= value < SEED_LIMIT:
            raise OutOfRange(f"{name} must be in [0, 2^64), got {value}")
    return seed, stream_index


def rekey(gen: Generator, seed: int, stream_index: int) -> Generator:
    """gen, a Philox Generator, reset in place to the start of stream
    (seed, stream_index); returns gen.

    Its draws then equal RngStream(seed, stream_index).generator()'s bit for
    bit, and the same range check applies.  Re-keying one generator per
    chunk of streams saves building a Philox per stream, which pulls fresh
    OS entropy for a seed sequence the key then overrides.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": _philox_key(seed, stream_index)},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


@dataclass(frozen=True)
class Moments:
    """Count, mean (q,) and M2 (q, q) of a batch of vectors [y; c_1..c_p],
    q = p + 1: a statistic y (entry 0) and its p controls.  M2 is the matrix
    of summed products of deviations, so M2[0, 0] is y's sum of squared
    deviations and the other entries are the co-moments; without controls
    q = 1."""

    count: int
    mean: np.ndarray
    m2: np.ndarray

    @classmethod
    def of(cls, values, controls=None) -> "Moments":
        """Moments of values (m,), with controls a (p, m) or (m,) array that
        is centred in place."""
        v = np.asarray(values, dtype=float)
        # an overflow here reaches the caller as OutOfRange from MCEstimate
        with np.errstate(over="ignore", invalid="ignore"):
            mean = np.mean(v, keepdims=True)
            rows = [v - mean[0]]
            if controls is not None:
                dc = np.atleast_2d(np.asarray(controls, dtype=float))
                c_mean = np.mean(dc, axis=1)
                dc -= c_mean[:, None]
                mean = np.concatenate((mean, c_mean))
                rows += list(dc)
            # each entry is one pairwise sum of one product, so a control
            # leaves the bits of y's own moments as they are without it
            q = len(rows)
            m2, work = np.empty((q, q)), np.empty_like(rows[0])
            for i in range(q):
                for j in range(i, q):
                    m2[i, j] = m2[j, i] = np.sum(np.multiply(rows[i], rows[j], out=work))
            return cls(v.shape[0], mean, m2)

    def merge(self, other: "Moments") -> "Moments":
        """Pairwise update of Chan, Golub & LeVeque (1983) on the vector: no
        sum of squares is formed, so a large mean cancels no digits of M2."""
        n = self.count + other.count
        with np.errstate(over="ignore", invalid="ignore"):
            delta = other.mean - self.mean
            return Moments(
                n,
                self.mean + delta * (other.count / n),
                self.m2 + other.m2 + np.multiply.outer(delta, delta) * (self.count * other.count / n),
            )

    @property
    def beta(self) -> np.ndarray:
        """Least-squares coefficients (p,) of y on the controls, from
        M2_yc = m2[1:, 0] and M2_cc = m2[1:, 1:].

        One control gives the slope M2_yc / M2_cc, 0 where c does not vary.
        Several give the minimum-norm solution of M2_cc beta = M2_yc, solved
        on the correlation scale with singular values below SOLVE_RCOND of
        the largest dropped: exactly dependent controls (on ball rows
        vol^2 tr A is a multiple of vol^2) then share one coefficient, and
        a control whose co-moments are not finite gives NaN.
        """
        yc, cc = self.m2[1:, 0], self.m2[1:, 1:]
        if yc.shape[0] == 1:
            return np.array([yc[0] / cc[0, 0] if cc[0, 0] > 0.0 else 0.0])
        if not np.all(np.isfinite(cc)):
            return np.full(yc.shape, math.nan)
        sd = np.sqrt(np.diagonal(cc))
        inv = np.divide(1.0, sd, out=np.zeros_like(sd), where=sd > 0.0)
        gamma = np.linalg.lstsq(cc * np.multiply.outer(inv, inv), yc * inv, rcond=SOLVE_RCOND)[0]
        return gamma * inv

    def adjusted(self, beta: np.ndarray, c_exact: np.ndarray) -> "Moments":
        """Moments of y - beta . (c - c_exact), without a control."""
        shift = float(np.sum(beta * (self.mean[1:] - c_exact)))
        m2 = (
            float(self.m2[0, 0])
            - float(np.sum(2.0 * beta * self.m2[1:, 0]))
            + float(np.sum(np.multiply.outer(beta, beta) * self.m2[1:, 1:]))
        )
        return Moments(self.count, self.mean[:1] - shift, np.array([[max(m2, 0.0)]]))


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo point estimate with provenance.

    ci_half_width = z(ci_level) * std_error with z the two-sided standard
    normal quantile; std_error is the sample standard deviation over sqrt(n).
    A non-finite mean or standard error raises OutOfRange.
    """

    mean: float
    std_error: float
    n_samples: int
    seed: int
    ci_level: float = 0.99
    ci_half_width: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.std_error)):
            raise OutOfRange(
                f"estimate {self.mean!r} +- {self.std_error!r} is not finite in doubles"
            )

    @classmethod
    def from_moments(cls, chunks, seed: int, ci_level: float) -> "MCEstimate":
        """Estimate from per-chunk Moments, merged in chunk order."""
        m = reduce(Moments.merge, chunks)
        mean, m2 = float(m.mean[0]), float(m.m2[0, 0])
        se = math.sqrt(m2 / (m.count - 1) / m.count)
        return cls(mean, se, m.count, seed, ci_level, normal_quantile(ci_level) * se)

    @classmethod
    def exact(
        cls, value: float, seed: int, ci_level: float, std_error: float = 0.0
    ) -> "MCEstimate":
        """A deterministic value; std_error is its error budget, if any."""
        z = normal_quantile(ci_level)
        return cls(float(value), std_error, 1, seed, ci_level, z * std_error)

    @property
    def interval(self) -> tuple[float, float]:
        return (self.mean - self.ci_half_width, self.mean + self.ci_half_width)

    def times_pow2(self, e: int) -> "MCEstimate":
        """Estimate of 2^e times the underlying expectation, exact in binary;
        OutOfRange where a nonzero mean, standard error or half-width leaves
        the range of normal doubles."""
        values = (self.mean, self.std_error, self.ci_half_width)
        mean, se, half = (rescale_pow2(v, e, f"estimate {self.mean!r} * 2^{e}") for v in values)
        return replace(self, mean=mean, std_error=se, ci_half_width=half)

    def scaled(self, c: float) -> "MCEstimate":
        """Estimate of c times the underlying expectation."""
        return replace(
            self,
            mean=c * self.mean,
            std_error=abs(c) * self.std_error,
            ci_half_width=abs(c) * self.ci_half_width,
        )


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
    one as the product of the row norms of a modified Gram-Schmidt sweep.
    Each row runs at the power of two of its own largest entry, exactly.
    Linearly dependent rows give 0; a volume outside the normal doubles raises OutOfRange.
    """
    a = np.atleast_2d(np.asarray(rows, dtype=float))
    k, d = a.shape
    if k > d:
        raise DimensionMismatch(f"{k} rows cannot be independent in R^{d}")
    scaled, exponents = zip(*map(split_pow2, a))
    vol = float(_soa_gram_volumes(np.array(scaled)[:, :, None])[0])
    return rescale_pow2(vol, sum(exponents), "Gram volume")


def _soa_gram_volumes(a: np.ndarray, orthonormal: bool = False, norms=None) -> np.ndarray:
    """Gram volumes of n row matrices stored as a (k, d, n) array -> (n,).

    The rows are orthogonalised in place by modified Gram-Schmidt, and the
    volume is the product of the k norms (k = 1 is the row norm).  A zero
    row gives volume 0, not NaN.  With orthonormal, the last row is
    normalised too, so a holds the sweep's orthonormal rows on return.
    With norms, a (k, n) array, the k norms are written into it as well.
    """
    k = a.shape[0]
    vol = None
    for i in range(k):
        row = a[i]
        norm = np.einsum("jn,jn->n", row, row, out=None if norms is None else norms[i])
        np.sqrt(norm, out=norm)
        vol = norm if vol is None else vol * norm
        if orthonormal or i + 1 < k:
            row /= np.where(norm > 0.0, norm, 1.0)
            for later in a[i + 1 :]:
                later -= row * np.einsum("jn,jn->n", row, later)
    return vol


def _complement_traces(q: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t = tr A and u = tr A^2 for A = P f f^T P, P the projection onto the
    2-D complement of the orthonormal rows q (j, d, n), j = d - 2.

    Both come from the trace identities t = tr S - tr(Q S Q^T) and
    u = tr S^2 - 2 ||S Q^T||^2 + ||Q S Q^T||^2, with S = f f^T.  These cancel
    digits where the complement holds a small share of S, so the samples
    with t < RECOMPUTE tr S are recomputed by explicit projection,
    B = f - Q^T (Q f): t = ||B||^2 and u = ||B B^T||^2.
    """
    s = f @ f.T
    trace_s = float(np.trace(s))
    sq = np.matmul(s, q)
    g = np.einsum("ijn,ljn->iln", q, sq)  # Q S Q^T per sample
    t = trace_s - np.einsum("iin->n", g)
    u = float(np.sum(s * s)) - 2.0 * np.einsum("ijn,ijn->n", sq, sq) + np.einsum("iln,iln->n", g, g)
    redo = np.flatnonzero(t < RECOMPUTE * trace_s)
    if redo.size:
        qr = np.take(q, redo, axis=2)
        qf = np.matmul(f.T, qr)  # (Q f)[i, c] per sample
        b = np.empty(f.shape + (redo.size,))
        for row, f_row in enumerate(f):
            np.multiply(qr[0, row], qf[0], out=b[row])
            for qi, qfi in zip(qr[1:], qf[1:]):
                b[row] += qi[row] * qfi
            np.subtract(f_row[:, None], b[row], out=b[row])
        a = np.einsum("jkn,lkn->jln", b, b)  # A = B B^T per sample
        t[redo] = np.einsum("jjn->n", a)
        u[redo] = np.einsum("jln,jln->n", a, a)
    return t, u


def _ellipse_perimeters(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Perimeters of the ellipses A with t = tr A and u = tr A^2, whose
    squared semi-axes are (t +- gap) / 2 with gap = sqrt(2u - t^2).

    Arithmetic-geometric mean of the semi-axes a >= b, iterated until every
    c_n = (a_{n-1} - b_{n-1}) / 2 is at most 2^-26 a_n (then AGM(a, b) and
    the sum are exact to rounding; at most ~8 steps, as b >= 2^-30 a):
    P = 2 pi (a^2 - sum_{n>=0} 2^(n-1) c_n^2) / AGM(a, b), where
    a^2 - c_0^2 / 2 = t / 2.  The floor b >= 2^-30 a changes P by less
    than 1e-17 relative and keeps the iteration finite when b rounds to 0.
    t and u are overwritten: with them as work space a chunk's perimeters
    take three arrays of its size, not six.
    """
    work = np.multiply(t, t)
    u *= 2.0
    u -= work
    gap = np.sqrt(np.maximum(u, 0.0, out=u), out=u)
    a = np.add(t, gap)
    a *= 0.5
    np.sqrt(a, out=a)
    b = np.subtract(t, gap)
    b *= 0.5
    np.sqrt(np.maximum(b, 0.0, out=b), out=b)
    np.maximum(b, np.ldexp(a, -30, out=work), out=b)
    total = t
    total *= 0.5
    c = gap
    weight = 1.0
    while True:
        np.subtract(a, b, out=c)
        c *= 0.5
        np.multiply(a, b, out=work)
        a += b
        a *= 0.5
        np.sqrt(work, out=b)
        np.multiply(c, c, out=work)
        work *= weight
        total -= work
        weight *= 2.0
        np.divide(c, a, out=work)
        if not work.max() > 2.0**-26:  # NaN stops it too
            total *= 2.0 * math.pi
            return np.divide(total, a, out=a)


def map_chunks(work, total: int, chunk: int, threads: int = 1) -> list:
    """[work(start, size) for the fixed chunks of range(total)], in chunk order.

    Chunk boundaries depend on total and chunk only, and results come back
    in chunk order whatever the number of threads, so a reduction over them
    in list order is thread-count independent down to the last bit.  The
    chunks run on min(threads, number of chunks) workers; work may call
    map_chunks again with its own share of the threads.
    """
    spans = [(s, min(chunk, total - s)) for s in range(0, total, chunk)]
    if threads <= 1 or len(spans) == 1:
        return [work(s, m) for s, m in spans]
    with futures.ThreadPoolExecutor(max_workers=min(threads, len(spans))) as pool:
        return list(pool.map(lambda span: work(*span), spans))


def chunked_mc_mean(
    stat,
    sample_shape: tuple[int, ...],
    n: int,
    seed: int,
    *,
    ci_level: float = 0.99,
    threads: int = 1,
    stream_base: int = 0,
    control: tuple | None = None,
) -> MCEstimate:
    """Mean of stat(z) over n standard-normal blocks z of the given shape.

    stat maps an (m,) + sample_shape array to m statistic values y.  With
    control = (means, bounds), two length-p arrays (or two numbers, p = 1)
    holding the exact means E c_j of p controls and a bound on the error of
    each, stat returns the pair (y, C) instead, C of shape (p, m) (or (m,)),
    which the engine may overwrite.  With two or more chunks, chunk i's
    values become y - beta_i . (c - E c), beta_i the least-squares
    coefficients of y on c over every other chunk merged (Moments.beta), so
    beta_i is independent of chunk i and the estimate is exactly unbiased.
    The controls are kept only if sum_j max_i |beta_ij| bound_j is at most
    1e-3 of the standard error they give; otherwise, and with one chunk or
    no control, the result is the plain mean of y over the same draws.
    Each chunk reduces to one Moments record of [y; c], or of y alone when
    no control is used; y's entries are the same bits either way, so the
    plain mean merges the same records.
    """
    if n < 2:
        raise OutOfRange(f"need n >= 2 samples, got {n}")
    # checked here so a bad ci_level, seed or stream index raises before any draw
    normal_quantile(ci_level)
    streams = [RngStream(seed, stream_base + ci) for ci in range((n + CHUNK - 1) // CHUNK)]
    controlled = control is not None and len(streams) > 1

    def run_chunk(start: int, m: int) -> Moments:
        z = streams[start // CHUNK].generator().standard_normal((m,) + sample_shape)
        y, c = (stat(z), None) if control is None else stat(z)
        return Moments.of(y, c if controlled else None)

    chunks = map_chunks(run_chunk, n, CHUNK, threads)
    if not controlled:
        return MCEstimate.from_moments(chunks, seed, ci_level)
    means, bounds = (np.atleast_1d(np.asarray(v, dtype=float)) for v in control)
    return _controlled_estimate(chunks, means, bounds, seed, ci_level)


def _controlled_estimate(
    chunks: list[Moments], c_exact: np.ndarray, bounds: np.ndarray, seed: int, ci_level: float
) -> MCEstimate:
    """The control-variate estimate of chunked_mc_mean, or the plain one
    where the error bounds of c_exact could bias it by more than 1e-3 SE."""
    # an overflowed control turns its co-moments NaN, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        # chunk i's coefficients are those of chunks < i merged with chunks > i
        prefix = list(accumulate(chunks, Moments.merge))
        plain = MCEstimate.from_moments(prefix[-1:], seed, ci_level)
        suffix = list(accumulate(reversed(chunks), lambda acc, c: c.merge(acc)))[::-1]
        others = [suffix[1]] + [p.merge(s) for p, s in zip(prefix, suffix[2:])] + [prefix[-2]]
        betas = np.array([o.beta for o in others])
        try:
            est = MCEstimate.from_moments(
                [c.adjusted(b, c_exact) for c, b in zip(chunks, betas)], seed, ci_level
            )
        except OutOfRange:  # a control overflowed; the plain estimate did not
            return plain
        # an infinite bound with a zero coefficient gives NaN: plain
        kept = np.sum(np.max(np.abs(betas), axis=0) * bounds) <= 1e-3 * est.std_error
    return est if kept else plain


def expected_gram_volume(
    ensemble: MatrixEnsemble,
    n: int = 1_000_000,
    seed: int = 0,
    *,
    ci_level: float = 0.99,
    threads: int = 1,
    stream_base: int = 0,
) -> MCEstimate:
    """Monte Carlo E sqrt(det(M M^T)) for M with independent rows L_i xi_i.

    This is the average k-volume of the random parallelotope spanned by the
    rows; for k = d it is E|det M|, and for d >= 2 the last row is taken
    out exactly: E[|det M| | xi_i, i < d] = sqrt(2/pi) |det L_d|
    vol_{d-1}(F_i xi_i, i < d) with F_i = L_d^-1 L_i.  That leaves m rows
    r_i = F_i xi_i (or L_i xi_i for k < d).  Where m = d - 1 >= 2, the
    last of them is taken out too: given r_1..r_{m-1}, its part in the 2-D
    complement of their span is N(0, A), A = P S_m P, S_m = F_m F_m^T, so
    a sample is vol_{m-1}(r_1..r_{m-1}) Per(A) / (2 sqrt(2 pi)), Per(A) the
    perimeter of the ellipse with semi-axes sqrt(lambda_i(A)) (Cauchy's
    formula for E||N(0, A)||, by the arithmetic-geometric mean), from
    d(d - 2) normals.  tr A and tr A^2 come from trace identities in S_m,
    which cancel digits where A holds a small share of S_m; the samples
    where tr A < RECOMPUTE tr S_m are recomputed by explicit projection
    (_complement_traces), which keeps each sample within 1e-10 relative
    at eigenvalue spreads up to 1e12.  The volume is linear in
    each row's scale, so row factor i (L_i or F_i) is divided by 2^e_i, with
    e_i the binary exponent of its largest entry, and the estimate multiplied
    by 2^(e_1 + ..) and by |det L_d| as the mantissas and exponents of its
    diagonal: exact in binary, and the statistic and its square stay within
    double range.  A true value outside that range raises OutOfRange.
    For n > CHUNK the q drawn rows r_i give p = k + q - 1 control variates
    (see chunked_mc_mean), k the rows left after the last square row:
    - the prefix volumes P_j^2 = (n_1 .. n_j)^2, j = 1..q, from the sweep's
      row norms n_j, with E P_j^2 = E det of the first j rows;
    - where the last row is in closed form (k = q + 1), P_q^2 tr A, its
      conditional mean over that row, so E det(M M^T) of all k rows;
    - the squared row norms ||r_i||^2, i = 2..q, with mean tr S_i
      (||r_1||^2 is P_1^2).
    Each exact mean and its rounding bound comes from
    expected_gram_determinant; one drawn row leaves the single control
    vol^2.  The controls are used where E det(M M^T) of all k rows costs at
    most CONTROL_DETERMINANTS determinants.
    """
    d = ensemble.dim
    raw = [s.covariance.factor for s in ensemble.specs]
    scale, det_exponent = 1.0, 0
    if len(raw) == d > 1:
        last = raw.pop()
        mantissas, exps = zip(*map(math.frexp, np.diagonal(last)))
        scale, det_exponent = math.sqrt(2.0 / math.pi) * math.prod(mantissas), sum(exps)
        raw = [np.linalg.solve(last, f) for f in raw]
    k = len(raw)
    factors, exponents = zip(*map(split_pow2, raw))
    # rows drawn per sample: all k, or k - 1 with the last in closed form
    tail = k == d - 1 >= 2
    drawn = k - 1 if tail else k
    if tail:
        scale /= 2.0 * SQRT_TWO_PI
    control = None
    if n > CHUNK and math.comb(d, k) * ((1 << k) - 1) <= CONTROL_DETERMINANTS:
        covs = [f @ f.T for f in factors]
        moments = [expected_gram_determinant(covs[:j]) for j in range(1, k + 1)]
        moments += [expected_gram_determinant([s]) for s in covs[1:drawn]]
        control = tuple(np.array(v) for v in zip(*moments))

    def stat(z: np.ndarray):
        m = z.shape[0]
        vol, t, u = np.empty(m), np.empty(m), np.empty(m)
        # rows: P_1^2 .. P_q^2, then P_q^2 tr A on the tail, then ||r_i||^2
        c = None if control is None else np.empty((k + drawn - 1, m))
        a = np.empty((drawn, d, min(BLOCK, m)))
        for lo in range(0, m, BLOCK):
            hi = min(lo + BLOCK, m)
            block = a[:, :, : hi - lo]
            for i, f in enumerate(factors[:drawn]):
                np.matmul(f, z[lo:hi, i, :].T, out=block[i])
            if c is None:
                vol[lo:hi] = _soa_gram_volumes(block, orthonormal=tail)
            else:
                # ||r_i||^2 before the sweep overwrites the rows, then the
                # sweep's row norms n_j, squared and multiplied up in place
                np.einsum("ijn,ijn->in", block[1:], block[1:], out=c[k:, lo:hi])
                prefix = c[:drawn, lo:hi]
                vol[lo:hi] = _soa_gram_volumes(block, orthonormal=tail, norms=prefix)
                prefix *= prefix
                for j in range(1, drawn):
                    prefix[j] *= prefix[j - 1]
            if tail:
                t[lo:hi], u[lo:hi] = _complement_traces(block, factors[-1])
        if c is not None and tail:  # before the perimeters overwrite t
            np.multiply(c[drawn - 1], t, out=c[drawn])
        # the perimeters run over the whole chunk: few calls hold the GIL
        y = vol * _ellipse_perimeters(t, u) if tail else vol
        return y if c is None else (y, c)

    est = chunked_mc_mean(
        stat,
        (drawn, d),
        n,
        seed,
        ci_level=ci_level,
        threads=threads,
        stream_base=stream_base,
        control=control,
    )
    return est.scaled(scale).times_pow2(det_exponent + sum(exponents))
