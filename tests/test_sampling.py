"""Gaussian sampling, Gram volumes, and the chunked Monte Carlo engine.

Core claims:
- sample_gaussian is a pure function of (seed, stream_index) and its draws
  have the requested covariance (law-of-large-numbers checks at 10^6 draws).
- gram_volume computes sqrt(det(A A^T)) without forming A A^T and satisfies
  the factorization identity Vol(x_1..x_d) = Vol(x_1..x_k) * Vol(projections),
  orthogonal invariance, and scaling.
- expected_gram_volume is bit-identical across 1, 2, and 8 worker threads
  and its 99% confidence interval covers the exact Wishart value with the
  advertised frequency.
- Antithetic pairing cancels odd statistics exactly and is documented as a
  no-op for even ones.
- The structure-of-arrays Gram kernel agrees with batched Householder QR for
  every 1 <= k <= d <= 8, on random, MAX_CONDITION and rank-deficient rows,
  to 1e-13 of the Hadamard bound per sample and 1e-12 relative in the mean.
- Power-of-two scale normalisation is exact: scaled ensembles give exactly
  scaled estimates, and a true value above the double range raises
  OutOfRange (test_volumes covers the huge and tiny mixed-volume cases).
- Seeds and stream indices outside [0, 2^64) raise OutOfRange; none alias.
"""

import math

import numpy as np
import pytest
from pytest import approx

from mixvol import (
    CHUNK,
    DimensionMismatch,
    GaussianVectorSpec,
    MatrixEnsemble,
    MCEstimate,
    OutOfRange,
    RngStream,
    chunked_mc_mean,
    expected_gram_volume,
    gram_volume,
    make_spd,
    normal_quantile,
    sample_gaussian,
)

from mixvol.sampling import _soa_gram_volumes
from mixvol.volumes import MAX_CONDITION
from support import (
    SEEDS,
    random_orthogonal,
    random_spd,
    reference_expected_gram_volume,
    reference_gram_volumes,
    rng_for,
)


# -- Helpers ----------------------------------------------------------------


def _standard_ensemble(d, k):
    spec = GaussianVectorSpec(make_spd(np.eye(d)))
    return MatrixEnsemble((spec,) * k)


def _batched_draws(spec, seed, n, n_streams=64):
    """n draws of N(0, covariance) through the sampler's own map.

    Stream i's first vector is exactly sample_gaussian(spec, RngStream(seed, i)),
    which the caller can (and the tests do) spot-check; the remaining rows
    continue the same generators.
    """
    d = spec.covariance.dim
    per = n // n_streams
    blocks = []
    for i in range(n_streams):
        z = RngStream(seed, i).generator().standard_normal((per, d))
        blocks.append(z @ spec.covariance.factor.T)
    return np.concatenate(blocks), per


# == 1. sample_gaussian =====================================================


class TestSampleGaussian:
    def test_deterministic(self):
        spec = GaussianVectorSpec(make_spd(np.eye(3)))
        a = sample_gaussian(spec, RngStream(42, 7))
        b = sample_gaussian(spec, RngStream(42, 7))
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        spec = GaussianVectorSpec(make_spd(np.eye(3)))
        a = sample_gaussian(spec, RngStream(42, 0))
        b = sample_gaussian(spec, RngStream(42, 1))
        c = sample_gaussian(spec, RngStream(43, 0))
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_batched_draws_match_sampler(self):
        spec = GaussianVectorSpec(make_spd([[4.0, 0.0], [0.0, 1.0]]))
        xs, per = _batched_draws(spec, seed=11, n=6400, n_streams=64)
        for i in range(8):
            direct = sample_gaussian(spec, RngStream(11, i))
            assert np.array_equal(xs[i * per], direct)

    def test_variance_lln(self):
        # diag(4,1): empirical Var of the first coordinate over 10^6 draws
        spec = GaussianVectorSpec(make_spd([[4.0, 0.0], [0.0, 1.0]]))
        xs, _ = _batched_draws(spec, seed=5, n=1_000_000)
        v = xs[:, 0].var()
        assert 3.98 <= v <= 4.02

    def test_cross_covariance_lln(self):
        # [[2,1],[1,2]]: empirical covariance entry (1,2) over 10^6 draws
        spec = GaussianVectorSpec(make_spd([[2.0, 1.0], [1.0, 2.0]]))
        xs, _ = _batched_draws(spec, seed=6, n=1_000_000)
        c = float(np.mean(xs[:, 0] * xs[:, 1]))
        assert c == approx(1.0, abs=0.01)


# == 2. gram_volume =========================================================


class TestGramVolume:
    def test_unit_square_in_r3(self):
        assert gram_volume([[1, 0, 0], [0, 1, 0]]) == approx(1.0, rel=1e-12)

    def test_single_row_is_norm(self):
        assert gram_volume([[3.0, 4.0]]) == approx(5.0, rel=1e-12)

    def test_shear(self):
        assert gram_volume([[1.0, 0.0], [1.0, 1.0]]) == approx(1.0, rel=1e-12)

    def test_dependent_rows_give_zero(self):
        assert gram_volume([[1.0, 2.0], [2.0, 4.0]]) == approx(0.0, abs=1e-12)

    def test_too_many_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            gram_volume(np.ones((3, 2)))
        with pytest.raises(DimensionMismatch):
            gram_volume([[1.0], [2.0]])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_factorization_identity(self, seed):
        # Vol(x_1..x_d) = Vol(x_1..x_k) * Vol(P x_{k+1}..P x_d) with P the
        # projection onto the orthogonal complement of span{x_1..x_k}
        rng = rng_for(seed)
        for d in (3, 4, 5):
            xs = rng.normal(size=(d, d))
            full = gram_volume(xs)
            for k in range(1, d):
                head = gram_volume(xs[:k])
                q, _ = np.linalg.qr(xs[:k].T)
                tail = xs[k:] - (xs[k:] @ q) @ q.T
                assert full == approx(head * gram_volume(tail), rel=1e-8)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_orthogonal_invariance(self, seed):
        rng = rng_for(seed)
        xs = rng.normal(size=(3, 5))
        q = random_orthogonal(rng, 5)
        assert gram_volume(xs @ q) == approx(gram_volume(xs), abs=1e-10)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_row_scaling(self, seed):
        rng = rng_for(seed)
        xs = rng.normal(size=(3, 4))
        for c in (-2.5, 0.125, 7.0):
            ys = xs.copy()
            ys[0] *= c
            assert gram_volume(ys) == approx(abs(c) * gram_volume(xs), rel=1e-12)


# == 3. MatrixEnsemble validation ===========================================


class TestMatrixEnsemble:
    def test_k_greater_than_d_rejected(self):
        spec = GaussianVectorSpec(make_spd(np.eye(2)))
        with pytest.raises(DimensionMismatch):
            MatrixEnsemble((spec,) * 3)

    def test_mixed_dims_rejected(self):
        a = GaussianVectorSpec(make_spd(np.eye(2)))
        b = GaussianVectorSpec(make_spd(np.eye(3)))
        with pytest.raises(DimensionMismatch):
            MatrixEnsemble((a, b))

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            MatrixEnsemble(())


# == 4. expected_gram_volume ================================================


class TestExpectedGramVolume:
    def test_wishart_square(self):
        est = expected_gram_volume(_standard_ensemble(2, 2), n=100_000, seed=1)
        assert abs(est.mean - 1.0) <= 3.0 * est.std_error

    def test_wishart_rectangular(self):
        est = expected_gram_volume(_standard_ensemble(3, 2), n=100_000, seed=2)
        assert abs(est.mean - 2.0) <= 3.0 * est.std_error

    def test_single_row_chi_mean(self):
        # d=2, k=1: mean of a chi(2) variable, sqrt(pi/2)
        est = expected_gram_volume(_standard_ensemble(2, 1), n=100_000, seed=3)
        target = math.sqrt(math.pi / 2.0)
        assert abs(est.mean - target) <= 3.0 * est.std_error
        # brute-force oracle: average ||z|| over fresh standard normal pairs
        z = np.random.default_rng(303).normal(size=(1_000_000, 2))
        brute = float(np.linalg.norm(z, axis=1).mean())
        assert abs(est.mean - brute) <= 4.0 * est.std_error

    def test_thread_count_does_not_change_bits(self):
        ens = _standard_ensemble(3, 2)
        runs = [
            expected_gram_volume(ens, n=200_001, seed=9, threads=t)
            for t in (1, 2, 8)
        ]
        assert runs[0].mean == runs[1].mean == runs[2].mean
        assert runs[0].std_error == runs[1].std_error == runs[2].std_error

    def test_seed_changes_result(self):
        ens = _standard_ensemble(2, 2)
        a = expected_gram_volume(ens, n=10_000, seed=1)
        b = expected_gram_volume(ens, n=10_000, seed=2)
        assert a.mean != b.mean

    def test_std_error_matches_manual_recompute(self):
        # single-chunk run: the estimate must equal the plain sample mean
        # and sd/sqrt(n) of |det M| over the chunk's own draws
        n, seed = 4096, 17
        est = expected_gram_volume(_standard_ensemble(2, 2), n=n, seed=seed)
        z = RngStream(seed, 0).generator().standard_normal((n, 2, 2))
        vals = np.abs(z[:, 0, 0] * z[:, 1, 1] - z[:, 0, 1] * z[:, 1, 0])
        assert est.mean == approx(float(vals.mean()), rel=1e-12)
        assert est.std_error == approx(
            float(vals.std(ddof=1)) / math.sqrt(n), rel=1e-12
        )

    def test_ci_coverage(self):
        # 200 independent seeds, d=k=2: the 99% CI must cover the exact
        # Wishart value 1.0 at least 193 times
        ens = _standard_ensemble(2, 2)
        hits = 0
        for i in range(200):
            est = expected_gram_volume(ens, n=16_384, seed=10_000 + i)
            lo, hi = est.interval
            hits += lo <= 1.0 <= hi
        assert hits >= 193

    def test_tiny_n_rejected(self):
        with pytest.raises(OutOfRange):
            expected_gram_volume(_standard_ensemble(2, 2), n=1, seed=0)


# == 5. chunked_mc_mean and antithetics =====================================


class TestChunkedMCMean:
    def test_mean_of_abs_normal(self):
        est = chunked_mc_mean(
            lambda z: np.abs(z[:, 0]), (1,), 200_000, seed=4
        )
        assert abs(est.mean - math.sqrt(2.0 / math.pi)) <= 3.0 * est.std_error

    def test_antithetic_cancels_odd_statistic(self):
        est = chunked_mc_mean(
            lambda z: z[:, 0], (1,), 100_000, seed=5, antithetic=True
        )
        assert est.mean == 0.0
        assert est.std_error == 0.0

    def test_antithetic_even_statistic_still_converges(self):
        # |z| is even, so the mirrored half duplicates the first; the
        # estimate must still be consistent, just without variance gain
        est = chunked_mc_mean(
            lambda z: np.abs(z[:, 0]), (1,), 100_000, seed=6, antithetic=True
        )
        assert abs(est.mean - math.sqrt(2.0 / math.pi)) <= 4.0 * est.std_error

    def test_thread_determinism(self):
        stat = lambda z: np.abs(z[:, 0]) ** 1.5
        runs = [
            chunked_mc_mean(stat, (1,), 150_000, seed=7, threads=t)
            for t in (1, 2, 8)
        ]
        assert runs[0].mean == runs[1].mean == runs[2].mean


# == 6. MCEstimate ==========================================================


class TestMCEstimate:
    def test_ci_half_width_invariant(self):
        est = expected_gram_volume(_standard_ensemble(2, 2), n=10_000, seed=8)
        assert est.ci_half_width == approx(
            normal_quantile(est.ci_level) * est.std_error, rel=1e-12
        )

    def test_interval(self):
        est = MCEstimate(
            mean=2.0, std_error=0.1, n_samples=100, seed=0,
            ci_level=0.99, ci_half_width=0.2576,
        )
        lo, hi = est.interval
        assert lo == approx(2.0 - 0.2576)
        assert hi == approx(2.0 + 0.2576)

    def test_scaled(self):
        est = MCEstimate(
            mean=2.0, std_error=0.1, n_samples=100, seed=0,
            ci_level=0.99, ci_half_width=0.2576,
        )
        s = est.scaled(-3.0)
        assert s.mean == approx(-6.0)
        assert s.std_error == approx(0.3)
        assert s.ci_half_width == approx(0.7728)
        assert s.n_samples == 100

    def test_normal_quantile_values(self):
        assert normal_quantile(0.99) == approx(2.5758293, abs=1e-6)
        assert normal_quantile(0.95) == approx(1.9599640, abs=1e-6)


# == 7. The structure-of-arrays Gram kernel =================================

SHAPES = [(d, k) for d in range(1, 9) for k in range(1, d + 1)]


def _factor(rng, d, kind):
    """Cholesky factor of a random covariance; kind 'ill' has condition
    MAX_CONDITION (singular values of the factor from 1 to 1e6)."""
    q = random_orthogonal(rng, d)
    if kind == "ill":
        spectrum = np.logspace(0.0, math.log10(MAX_CONDITION), d) if d > 1 else [1.0]
    else:
        spectrum = rng.uniform(0.5, 2.0, size=d)
    return np.linalg.cholesky((q * np.asarray(spectrum)) @ q.T)


def _rows(rng, d, k, n, kind):
    """n random k x d row matrices, shape (n, k, d)."""
    m = np.empty((n, k, d))
    for i in range(k):
        m[:, i, :] = rng.normal(size=(n, d)) @ _factor(rng, d, kind).T
    if kind == "deficient":
        if k > 1:
            # last row a combination of the others; a few exact duplicates
            c = rng.normal(size=(n, k - 1, 1))
            m[:, -1, :] = (c * m[:, :-1, :]).sum(axis=1)
            m[:8, -1, :] = m[:8, 0, :]
        m[8:16, 0, :] = 0.0
    return m


def _ensemble(rng, d, k, kind):
    specs = []
    for _ in range(k):
        f = _factor(rng, d, kind)
        specs.append(GaussianVectorSpec(make_spd(f @ f.T)))
    return MatrixEnsemble(tuple(specs))


class TestGramKernel:
    @pytest.mark.parametrize("kind", ["random", "ill", "deficient"])
    def test_matches_qr_within_hadamard_bound(self, kind):
        # per sample |v - v_QR| <= 1e-13 * prod ||row_i||: near-singular
        # samples have no meaningful relative accuracy, but this absolute
        # scale is what backward stability of either R factor guarantees
        rng = rng_for(21)
        for d, k in SHAPES:
            m = _rows(rng, d, k, 512, kind)
            v = _soa_gram_volumes(np.ascontiguousarray(m.transpose(1, 2, 0)))
            ref = reference_gram_volumes(m)
            hadamard = np.prod(np.linalg.norm(m, axis=2), axis=1)
            assert np.all(np.abs(v - ref) <= 1e-13 * hadamard), (d, k)
            if kind == "deficient":
                assert np.all(v[8:16] == 0.0), (d, k)

    @pytest.mark.parametrize("kind", ["random", "ill"])
    def test_expected_gram_volume_matches_qr_path(self, kind):
        rng = rng_for(22)
        n = CHUNK + 5000  # a full chunk, then a partial chunk and block
        for d, k in SHAPES:
            ens = _ensemble(rng, d, k, kind)
            est = expected_gram_volume(ens, n=n, seed=d * 10 + k)
            ref = reference_expected_gram_volume(ens, n, d * 10 + k)
            assert est.mean == approx(ref.mean, rel=1e-12), (d, k)
            assert est.std_error == approx(ref.std_error, rel=1e-9), (d, k)

    @pytest.mark.parametrize("d, k", [(5, 5), (8, 3)])
    def test_thread_count_does_not_change_bits(self, d, k):
        ens = _ensemble(rng_for(23), d, k, "random")
        runs = [
            expected_gram_volume(ens, n=3 * CHUNK + 5000, seed=12, threads=t)
            for t in (1, 2, 8)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_zero_row_gives_zero_volume(self):
        assert gram_volume([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]) == 0.0
        assert gram_volume([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]) == 0.0


# == 8. Power-of-two scale normalisation ====================================


def _diagonal_ensemble(axes_per_row):
    return MatrixEnsemble(
        tuple(GaussianVectorSpec(make_spd(np.diag(np.square(a)))) for a in axes_per_row)
    )


class TestScaleNormalisation:
    def test_power_of_two_scales_are_exact(self):
        base = [[1.0, 3.0, 0.5], [2.0, 0.25, 1.5]]
        est = expected_gram_volume(_diagonal_ensemble(base), n=20_000, seed=3)
        for j in (-400, -3, 5, 300):
            scaled = [[math.ldexp(x, j) for x in row] for row in base]
            other = expected_gram_volume(_diagonal_ensemble(scaled), n=20_000, seed=3)
            assert other.mean == math.ldexp(est.mean, 2 * j)
            assert other.std_error == math.ldexp(est.std_error, 2 * j)
            assert other.ci_half_width == math.ldexp(est.ci_half_width, 2 * j)

    def test_value_above_double_range_raises(self):
        with pytest.raises(OutOfRange, match="overflows"):
            expected_gram_volume(_diagonal_ensemble([[1e150] * 3] * 3), n=4096, seed=5)


# == 9. Seed range ==========================================================


class TestSeedRange:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_stream_rejects_out_of_range(self, seed):
        with pytest.raises(OutOfRange, match="seed"):
            RngStream(seed)
        with pytest.raises(OutOfRange, match="stream_index"):
            RngStream(0, seed)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_estimators_reject_out_of_range(self, seed):
        with pytest.raises(OutOfRange):
            expected_gram_volume(_standard_ensemble(2, 2), n=1000, seed=seed)
        with pytest.raises(OutOfRange):
            chunked_mc_mean(lambda z: z[:, 0], (1,), 1000, seed=seed)

    def test_last_stream_index_checked(self):
        with pytest.raises(OutOfRange, match="stream_index"):
            chunked_mc_mean(lambda z: z[:, 0], (1,), 2 * CHUNK, seed=0, stream_base=2**64 - 1)

    def test_range_ends_are_distinct_streams(self):
        ens = _standard_ensemble(2, 2)
        top = expected_gram_volume(ens, n=1000, seed=2**64 - 1)
        assert top.mean != expected_gram_volume(ens, n=1000, seed=0).mean
