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
- For k = d >= 2 it averages E[|det M| | rows 1..d-1] = sqrt(2/pi) |det L_d|
  vol_{d-1}(L_d^-1 L_i xi_i): within 4 SE of exact ball and ellipse mixed
  volumes, of the plain |det M| average on an ill-conditioned d = 5
  ensemble, and calibrated over 2000 seeds at n = 4096.  k = d = 1 stays a
  sampled estimate with a positive standard error.
- chunked_mc_mean merges per-chunk centred moments: a shifted statistic
  keeps its standard error, multi-chunk results match a single-pass mean
  and standard deviation, and a bad ci_level raises before any draw.
- The structure-of-arrays Gram kernel agrees with batched Householder QR for
  every 1 <= k <= d <= 8, on random, MAX_CONDITION and rank-deficient rows,
  to 1e-13 of the Hadamard bound per sample and 1e-12 relative in the mean.
- Power-of-two scale normalisation is exact: scaled ensembles give exactly
  scaled estimates, and a true value above the double range raises
  OutOfRange (test_volumes covers the huge and tiny mixed-volume cases).
- Seeds and stream indices outside [0, 2^64) raise OutOfRange; none alias.
  A generator re-keyed by rekey draws what a new stream's generator draws.
- With two or more chunks, controls of exact mean (stat^2, or the Gram
  kernel's prefix volumes and row norms) are control variates whose
  least-squares coefficients for chunk i come from the other chunks: with
  one and with two controls the estimate equals a direct recompute from the
  draws, it is calibrated over 600 seeds of the ellipse pair at 2 CHUNK,
  it cuts the standard error of the benchmark's d = 5 family at 4 CHUNK by
  1.5x or more and leaves a relative variance per sample of at most 0.10,
  and it is bit-identical across thread counts.  Exactly dependent controls
  (ball rows) give the estimate of one of them.  One chunk, an error bound
  too large for the coefficients, or an overflowing control gives the
  plain estimate bit for bit (a spread-1e12 d = 5 ensemble falls back).
- Where d - 1 >= 2 rows are left, the last is taken out in closed form:
  per sample, tr A and the AGM perimeter agree within 1e-9 with eigvalsh of
  the explicit projection and an 8192-node trapezoid perimeter at
  eigenvalue spreads 1, 1e6 and 1e12 (shared long axes run the recompute),
  and the estimates are calibrated against exact values at 4096 samples
  (2000 seeds) and at 2 CHUNK with the vol^2 tr A control (200 seeds) for
  k = d = 3, k = d = 5 and (d, k) = (3, 2).
- Estimates with one control or none keep their float.hex bits at threads
  1 and 2, and the pinned multi-control Gram estimates theirs.
"""

import math

import numpy as np
import pytest
from pytest import approx
from scipy.integrate import quad
from scipy.special import ellipeinc, ellipkinc

from mixvol import (
    CHUNK,
    DimensionMismatch,
    Ellipsoid,
    GaussianVectorSpec,
    MatrixEnsemble,
    MCEstimate,
    OutOfRange,
    PointCloud,
    RngStream,
    SupportBody2D,
    ball,
    chunked_mc_mean,
    ellipsoid_from_axes,
    expected_gram_volume,
    expected_norm,
    gram_volume,
    intrinsic_volume,
    make_spd,
    mixed_area_oracle,
    mixed_volume_full,
    mixed_volume_with_balls,
    normal_quantile,
    rekey,
    sample_gaussian,
    sudakov_width,
    transform_ellipsoid,
    unit_ball_volume,
)

import mixvol.sampling
from mixvol.sampling import RECOMPUTE, _complement_traces, _ellipse_perimeters, _soa_gram_volumes
from mixvol.volumes import MAX_CONDITION
from support import (
    SEEDS,
    random_orthogonal,
    random_spd,
    reference_complement_ellipses,
    reference_expected_gram_volume,
    reference_gram_volumes,
    rng_for,
    spread_covariances,
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
        # single-chunk run: the estimate must equal the plain sample mean and
        # sd/sqrt(n) of E[|det M| | first row] = sqrt(2/pi) ||xi_1|| over the
        # chunk's own (n, 1, 2) draws
        n, seed = 4096, 17
        est = expected_gram_volume(_standard_ensemble(2, 2), n=n, seed=seed)
        z = RngStream(seed, 0).generator().standard_normal((n, 1, 2))
        vals = math.sqrt(2.0 / math.pi) * np.linalg.norm(z[:, 0, :], axis=1)
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


# == 5. chunked_mc_mean =====================================================


class TestChunkedMCMean:
    def test_mean_of_abs_normal(self):
        est = chunked_mc_mean(
            lambda z: np.abs(z[:, 0]), (1,), 200_000, seed=4
        )
        assert abs(est.mean - math.sqrt(2.0 / math.pi)) <= 3.0 * est.std_error

    def test_thread_determinism(self):
        stat = lambda z: np.abs(z[:, 0]) ** 1.5
        runs = [
            chunked_mc_mean(stat, (1,), 150_000, seed=7, threads=t)
            for t in (1, 2, 8)
        ]
        assert runs[0].mean == runs[1].mean == runs[2].mean

    @pytest.mark.parametrize("shift", [1e8, 1e9])
    def test_shift_keeps_std_error(self, shift):
        # the old total_sq - n * mean^2 reduction read 0.0 at 1e8 and 11x
        # too much at 1e9; centred moments do not see the shift
        base = chunked_mc_mean(lambda z: z[:, 0], (1,), 4 * CHUNK, seed=3)
        moved = chunked_mc_mean(lambda z: shift + z[:, 0], (1,), 4 * CHUNK, seed=3)
        assert moved.std_error == approx(base.std_error, rel=0.01)

    def test_multi_chunk_matches_single_pass(self):
        n = 3 * CHUNK + 17
        stat = lambda z: 1e4 + np.abs(z[:, 0] * z[:, 1]) ** 1.5
        est = chunked_mc_mean(stat, (2,), n, seed=9, threads=2)
        sizes = [CHUNK, CHUNK, CHUNK, 17]
        draws = np.concatenate(
            [RngStream(9, i).generator().standard_normal((m, 2)) for i, m in enumerate(sizes)]
        )
        values = stat(draws)
        assert est.n_samples == n
        assert est.mean == approx(np.mean(values), rel=1e-12)
        assert est.std_error == approx(np.std(values, ddof=1) / math.sqrt(n), rel=1e-12)

    def test_bad_ci_level_raises_before_any_draw(self):
        calls = []

        def stat(z):
            calls.append(z.shape[0])
            return z[:, 0]

        with pytest.raises(OutOfRange):
            chunked_mc_mean(stat, (1,), 2 * CHUNK, seed=1, ci_level=2.0)
        assert calls == []


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

    @pytest.mark.parametrize("mean, se", [(math.nan, 0.1), (1.0, math.inf), (1.0, math.nan)])
    def test_non_finite_rejected(self, mean, se):
        with pytest.raises(OutOfRange):
            MCEstimate(mean=mean, std_error=se, n_samples=10, seed=0)

    def test_scaled_overflow_rejected(self):
        est = MCEstimate.exact(1e300, seed=0, ci_level=0.99, std_error=1e290)
        with pytest.raises(OutOfRange):
            est.scaled(1e10)

    def test_exact_value(self):
        est = MCEstimate.exact(2.5, seed=4, ci_level=0.95, std_error=0.5)
        assert (est.mean, est.std_error, est.n_samples, est.seed) == (2.5, 0.5, 1, 4)
        assert est.ci_half_width == normal_quantile(0.95) * 0.5
        assert MCEstimate.exact(2.5, seed=4, ci_level=0.95).interval == (2.5, 2.5)
        with pytest.raises(OutOfRange):
            MCEstimate.exact(2.5, seed=4, ci_level=1.5)

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
    def test_thread_count_does_not_change_bits(self, d, k, monkeypatch):
        ens = _ensemble(rng_for(23), d, k, "random")
        runs = [
            expected_gram_volume(ens, n=3 * CHUNK + 5000, seed=12, threads=t)
            for t in (1, 2, 8)
        ]
        assert runs[0] == runs[1] == runs[2]
        # the control variate is in use
        assert runs[0] != _plain_gram_volume(monkeypatch, ens, n=3 * CHUNK + 5000, seed=12)

    def test_zero_row_gives_zero_volume(self):
        assert gram_volume([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]) == 0.0
        assert gram_volume([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]) == 0.0


# == 8. Conditioning out the last row =======================================


def _ellipse_pair():
    c, s = math.cos(0.7), math.sin(0.7)
    rot = np.array([[c, -s], [s, c]])
    pair = [
        Ellipsoid(make_spd(np.diag([4.0, 1.0]))),
        Ellipsoid(make_spd(rot @ np.diag([2.25, 0.36]) @ rot.T)),
    ]
    return pair, mixed_area_oracle(*(SupportBody2D.from_ellipsoid(e) for e in pair))


def _distinct_balls(d):
    radii = np.linspace(0.5, 2.0, d)
    return [ball(d, r) for r in radii], unit_ball_volume(d) * float(np.prod(radii))


class TestConditionedSquare:
    """k = d >= 2 averages E[|det M| | rows 1..d-1]: unbiased, calibrated."""

    @pytest.mark.parametrize("d", range(2, 9))
    def test_distinct_balls_unbiased(self, d):
        bodies, exact = _distinct_balls(d)
        est = mixed_volume_full(bodies, CHUNK, seed=40 + d)
        assert abs(est.mean - exact) <= 4.0 * est.std_error

    def test_ellipse_pair_unbiased(self):
        pair, exact = _ellipse_pair()
        est = mixed_volume_full(pair, CHUNK, seed=50)
        assert abs(est.mean - exact) <= 4.0 * est.std_error

    def test_ill_conditioned_agrees_with_plain_estimate(self):
        # the plain |det M| average over (n, 5, 5) draws at an independent seed
        ens = _ensemble(rng_for(24), 5, 5, "ill")
        est = expected_gram_volume(ens, n=2 * CHUNK, seed=51)
        plain = reference_expected_gram_volume(ens, 2 * CHUNK, 52, condition=False)
        gap = abs(est.mean - plain.mean)
        assert gap <= 4.0 * math.hypot(est.std_error, plain.std_error)

    @pytest.mark.parametrize("case", ["ellipse_pair", "balls_d5"])
    def test_calibrated_at_4096_samples(self, case):
        # 2000 fixed seeds: the z-scores against the exact value have mean
        # within 0.1 of 0, and at most 12 exceed 3 (nominal 5.4 for N(0, 1))
        bodies, exact = _ellipse_pair() if case == "ellipse_pair" else _distinct_balls(5)
        ests = [mixed_volume_full(bodies, 4096, seed=60_000 + i) for i in range(2000)]
        z = np.array([(e.mean - exact) / e.std_error for e in ests])
        assert abs(z.mean()) <= 0.1
        assert np.sum(np.abs(z) > 3.0) <= 12

    def test_one_dimension_stays_sampled(self):
        # conditioning at d = 1 would leave a constant, reported as x +- 0
        est = expected_gram_volume(_standard_ensemble(1, 1), n=4096, seed=53)
        assert est.std_error > 0.0
        assert abs(est.mean - math.sqrt(2.0 / math.pi)) <= 4.0 * est.std_error


# == 9. The exact second moment as a control variate =======================


def _benchmark_d5():
    """The d = 5 family of the mc_volumes benchmark: g g^T + 2.5 I."""
    fixed = np.random.default_rng(2012)
    specs = []
    for _ in range(5):
        g = fixed.normal(size=(5, 5))
        specs.append(GaussianVectorSpec(make_spd(g @ g.T + 2.5 * np.eye(5))))
    return MatrixEnsemble(tuple(specs))


def _plain_gram_volume(monkeypatch, *args, **kwargs):
    """expected_gram_volume with the control switched off."""
    with monkeypatch.context() as m:
        m.setattr(mixvol.sampling, "CONTROL_DETERMINANTS", 0)
        return expected_gram_volume(*args, **kwargs)


def _skewed(z):
    return np.abs(z[:, 0] * z[:, 1]) ** 1.5 + z[:, 2] ** 2


def _skewed_squared(z):
    """_skewed with its square as the control."""
    y = _skewed(z)
    return y, y * y


def _skewed_two_controls(z):
    """_skewed with its square and z_3^2 as the controls."""
    y = _skewed(z)
    return y, np.stack([y * y, z[:, 2] ** 2])


class TestControlVariate:
    def test_matches_direct_recompute(self):
        # chunk i is adjusted by the slope of y on y^2 over the other chunks
        n, mu = 3 * CHUNK + 17, 7.0
        est = chunked_mc_mean(_skewed_squared, (3,), n, seed=9, control=(mu, 0.0))
        sizes = [CHUNK, CHUNK, CHUNK, 17]
        ys = [_skewed(RngStream(9, i).generator().standard_normal((m, 3))) for i, m in enumerate(sizes)]
        adjusted = []
        for i, y in enumerate(ys):
            rest = np.concatenate(ys[:i] + ys[i + 1 :])
            c = rest * rest
            beta = np.sum((rest - rest.mean()) * (c - c.mean())) / np.sum((c - c.mean()) ** 2)
            adjusted.append(y - beta * (y * y - mu))
        values = np.concatenate(adjusted)
        assert est.mean == approx(np.mean(values), rel=1e-12)
        assert est.std_error == approx(np.std(values, ddof=1) / math.sqrt(n), rel=1e-9)

    def test_two_controls_match_direct_recompute(self):
        # chunk i is adjusted by the least-squares fit of y on (y^2, z_3^2)
        # over the other chunks
        n, mu = 3 * CHUNK + 17, np.array([7.0, 1.0])
        est = chunked_mc_mean(_skewed_two_controls, (3,), n, seed=9, control=(mu, [0.0, 0.0]))
        sizes = [CHUNK, CHUNK, CHUNK, 17]
        draws = [RngStream(9, i).generator().standard_normal((m, 3)) for i, m in enumerate(sizes)]
        ys = [_skewed(z) for z in draws]
        cs = [np.column_stack([y * y, z[:, 2] ** 2]) for y, z in zip(ys, draws)]
        adjusted = []
        for i, (y, c) in enumerate(zip(ys, cs)):
            y_rest = np.concatenate(ys[:i] + ys[i + 1 :])
            c_rest = np.concatenate(cs[:i] + cs[i + 1 :])
            beta = np.linalg.lstsq(c_rest - c_rest.mean(axis=0), y_rest - y_rest.mean(), rcond=None)[0]
            adjusted.append(y - (c - mu) @ beta)
        values = np.concatenate(adjusted)
        assert est.mean == approx(np.mean(values), rel=1e-12)
        assert est.std_error == approx(np.std(values, ddof=1) / math.sqrt(n), rel=1e-9)

    def test_one_unbounded_moment_gives_the_plain_estimate(self):
        n = 3 * CHUNK
        plain = chunked_mc_mean(_skewed, (3,), n, seed=4)
        mu = [7.0, 1.0]
        loose = chunked_mc_mean(_skewed_two_controls, (3,), n, seed=4, control=(mu, [0.0, math.inf]))
        tight = chunked_mc_mean(_skewed_two_controls, (3,), n, seed=4, control=(mu, [0.0, 0.0]))
        assert loose == plain and tight.mean != plain.mean

    def test_dependent_controls_give_the_one_control_estimate(self, monkeypatch):
        # on ball rows vol^2 tr A = 2 r_2^2 ||r_1||^2: the two controls of
        # withballs d = 3, k = 2 are dependent, and the minimum-norm solve
        # gives what the last one, vol^2 tr A, gives alone
        balls = [ball(3, 0.7), ball(3, 1.6)]
        both = mixed_volume_with_balls(balls, 3 * CHUNK, seed=5)
        with monkeypatch.context() as m:
            m.setattr(mixvol.sampling, "CONTROL_DETERMINANTS", 0)
            plain = mixed_volume_with_balls(balls, 3 * CHUNK, seed=5)

        def last_control_only(stat, *args, control, **kwargs):
            def one(z):
                y, c = stat(z)
                return y, c[-1]

            return chunked_mc_mean(one, *args, control=(control[0][-1], control[1][-1]), **kwargs)

        monkeypatch.setattr(mixvol.sampling, "chunked_mc_mean", last_control_only)
        one = mixed_volume_with_balls(balls, 3 * CHUNK, seed=5)
        assert math.isfinite(both.mean) and both.std_error > 0.0
        assert both.mean == approx(one.mean, rel=1e-12)
        assert one.mean != plain.mean

    @pytest.mark.parametrize("n", [1000, CHUNK])
    def test_one_chunk_is_unchanged(self, n):
        plain = chunked_mc_mean(_skewed, (3,), n, seed=4)
        assert chunked_mc_mean(_skewed_squared, (3,), n, seed=4, control=(7.0, 0.0)) == plain

    def test_unbounded_moment_gives_the_plain_estimate(self):
        n = 3 * CHUNK
        plain = chunked_mc_mean(_skewed, (3,), n, seed=4)
        loose = chunked_mc_mean(_skewed_squared, (3,), n, seed=4, control=(7.0, math.inf))
        tight = chunked_mc_mean(_skewed_squared, (3,), n, seed=4, control=(7.0, 0.0))
        assert loose == plain and tight.mean != plain.mean

    def test_overflowing_control_gives_the_plain_estimate(self):
        # y's deviations stay finite, but its square, the control, is inf
        def huge(z):
            return np.ldexp(1.0 + np.ldexp(_skewed(z), -13), 514)

        def huge_squared(z):
            y = huge(z)
            with np.errstate(over="ignore"):
                return y, y * y

        n = 3 * CHUNK
        plain = chunked_mc_mean(huge, (3,), n, seed=4)
        assert math.isfinite(plain.std_error) and plain.std_error > 0.0
        assert chunked_mc_mean(huge_squared, (3,), n, seed=4, control=(math.inf, 0.0)) == plain

    def test_overflowing_one_of_two_controls_gives_the_plain_estimate(self):
        # y^2 is inf, so its co-moments are NaN and so is the solve
        def huge(z):
            return np.ldexp(1.0 + np.ldexp(_skewed(z), -13), 514)

        def huge_two(z):
            y = huge(z)
            with np.errstate(over="ignore"):
                return y, np.stack([y * y, z[:, 2] ** 2])

        n = 3 * CHUNK
        plain = chunked_mc_mean(huge, (3,), n, seed=4)
        control = ([math.inf, 1.0], [0.0, 0.0])
        assert chunked_mc_mean(huge_two, (3,), n, seed=4, control=control) == plain

    def test_spread_1e12_falls_back(self, monkeypatch):
        ens = _ensemble(rng_for(24), 5, 5, "ill")
        est = expected_gram_volume(ens, n=2 * CHUNK, seed=51)
        assert est == _plain_gram_volume(monkeypatch, ens, n=2 * CHUNK, seed=51)

    def test_calibrated_at_two_chunks(self):
        # 600 fixed seeds: the z-scores against the exact value have mean
        # within 0.1 of 0, and at most 6 exceed 3 (nominal 1.6 for N(0, 1))
        pair, exact = _ellipse_pair()
        ests = [mixed_volume_full(pair, 2 * CHUNK, seed=70_000 + i) for i in range(600)]
        z = np.array([(e.mean - exact) / e.std_error for e in ests])
        assert abs(z.mean()) <= 0.1
        assert np.sum(np.abs(z) > 3.0) <= 6

    def test_benchmark_d5_standard_error_falls(self):
        ens = _benchmark_d5()
        est = expected_gram_volume(ens, n=4 * CHUNK, seed=3)
        plain = reference_expected_gram_volume(ens, 4 * CHUNK, 3, control=False)
        assert 1.5 * est.std_error <= plain.std_error
        assert abs(est.mean - plain.mean) <= 4.0 * plain.std_error

    def test_benchmark_d5_relative_variance(self):
        # relative variance per sample: 0.13 with vol^2 tr A alone; the
        # prefix volumes and row norms leave 0.083-0.090 at seeds 3-7
        est = expected_gram_volume(_benchmark_d5(), n=4 * CHUNK, seed=3)
        assert est.std_error**2 * est.n_samples / est.mean**2 <= 0.10

    def test_expected_norm_direct_run(self):
        # E||xi|| for sigma = r^2 I_4 is r sqrt(2) Gamma(5/2) / Gamma(2)
        r = 1.3
        exact = r * math.sqrt(2.0) * math.gamma(2.5) / math.gamma(2.0)
        cmp = expected_norm(Ellipsoid(make_spd(r * r * np.eye(4))), n=4 * CHUNK, seed=8)
        assert abs(cmp.direct.mean - exact) <= 4.0 * cmp.direct.std_error
        # relative variance per sample 0.13 plain; the control leaves < 0.02
        assert cmp.direct.std_error**2 * cmp.direct.n_samples / exact**2 < 0.02


# == 10. Power-of-two scale normalisation ===================================


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


# == 11. Seed range =========================================================


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

    @pytest.mark.parametrize("index", [0, 1, 2**64 - 1])
    def test_rekeyed_generator_draws_equal_a_new_stream(self, index):
        gen = RngStream(3, 7).generator()
        gen.standard_normal(5)
        for seed in (0, 2**64 - 1):
            gen.integers(0, 2**32, dtype=np.uint32)  # leaves half a word buffered
            assert rekey(gen, seed, index) is gen
            fresh = RngStream(seed, index).generator()
            assert np.array_equal(
                gen.integers(0, 2**32, 9, dtype=np.uint32),
                fresh.integers(0, 2**32, 9, dtype=np.uint32),
            )
            assert np.array_equal(gen.standard_normal(9), fresh.standard_normal(9))

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_rekey_rejects_out_of_range(self, bad):
        gen = RngStream(0).generator()
        with pytest.raises(OutOfRange, match="stream_index"):
            rekey(gen, 0, bad)
        with pytest.raises(OutOfRange, match="seed"):
            rekey(gen, bad, 0)

    def test_last_stream_index_checked(self):
        with pytest.raises(OutOfRange, match="stream_index"):
            chunked_mc_mean(lambda z: z[:, 0], (1,), 2 * CHUNK, seed=0, stream_base=2**64 - 1)

    def test_range_ends_are_distinct_streams(self):
        ens = _standard_ensemble(2, 2)
        top = expected_gram_volume(ens, n=1000, seed=2**64 - 1)
        assert top.mean != expected_gram_volume(ens, n=1000, seed=0).mean


# == 12. The second Gaussian row in closed form =============================

PERIMETER_NODES = 8192


def _trapezoid_perimeter(lam):
    """Perimeters of the ellipses with squared semi-axes lam (n, 2), largest
    first: the arclength integral by the trapezoid rule on PERIMETER_NODES
    nodes of u, theta = u - sin(2u)/2, which clusters the nodes at the ends
    of the major axis (exact to ~1e-16 for axis ratios down to 1e-8)."""
    u = 2.0 * math.pi * np.arange(PERIMETER_NODES) / PERIMETER_NODES
    theta, weight = u - 0.5 * np.sin(2.0 * u), 1.0 - np.cos(2.0 * u)
    sin2, cos2 = np.sin(theta) ** 2, np.cos(theta) ** 2
    out = [np.sum(np.sqrt(a2 * sin2 + b2 * cos2) * weight) for a2, b2 in lam]
    return np.array(out) * (2.0 * math.pi / PERIMETER_NODES)


def _complement_case(d, spread, shared, n=512):
    """n samples of d - 2 rows N(0, S_i) and the factor f of S_{d-1}, the
    covariances from spread_covariances."""
    rng = rng_for(1000 + 10 * d + int(math.log10(spread)) + 100 * shared)
    factors = [np.linalg.cholesky(s) for s in spread_covariances(rng, d, d - 1, spread, shared)]
    rows = np.stack([f @ rng.normal(size=(d, n)) for f in factors[:-1]])
    return rows, factors[-1]


def _expected_norm(sigma):
    """E||N(0, sigma)|| = (1 / 2 sqrt(pi)) int_0^inf (1 - prod_i (1 + 2 s
    lambda_i)^(-1/2)) s^(-3/2) ds, by adaptive quadrature in s = u^2."""
    lam = np.linalg.eigvalsh(sigma)
    integrand = lambda u: 2.0 * (1.0 - np.prod(1.0 + 2.0 * u * u * lam) ** -0.5) / (u * u)
    value, _ = quad(integrand, 0.0, np.inf, limit=200, epsabs=0.0, epsrel=1e-13)
    return value / (2.0 * math.sqrt(math.pi))


def _rotated_ellipsoid(axes, seed):
    q = random_orthogonal(rng_for(seed), len(axes))
    return transform_ellipsoid(ellipsoid_from_axes(axes), q)


def _surface_area(axes):
    """Surface area of the ellipsoid with semi-axes a >= b >= c (Legendre)."""
    a, b, c = sorted(axes, reverse=True)
    phi = math.acos(c / a)
    m = a * a * (b * b - c * c) / (b * b * (a * a - c * c))
    tail = ellipeinc(phi, m) * math.sin(phi) ** 2 + ellipkinc(phi, m) * math.cos(phi) ** 2
    return 2.0 * math.pi * c * c + 2.0 * math.pi * a * b / math.sin(phi) * tail


def _closed_form_case(case):
    """(estimator of n and seed, exact value) for the three shapes that take
    the second row out: an eccentric ellipsoid last, so the complement
    ellipses are eccentric too."""
    if case == "d3k2":
        axes = (3.0, 1.0, 0.4)
        e = _rotated_ellipsoid(axes, 90)
        return (lambda n, seed: intrinsic_volume(e, 2, n, seed, threads=2)), 0.5 * _surface_area(axes)
    d, radii = {"d3k3": (3, (0.8, 1.3)), "d5k5": (5, (0.7, 0.9, 1.1, 1.3))}[case]
    e = _rotated_ellipsoid(np.linspace(3.0, 0.4, d), 91)
    bodies = [ball(d, r) for r in radii] + [e]
    # V(B_r.., E) = prod r sqrt(2 pi) kappa_{d-1} / d E||N(0, sigma_E)||
    exact = math.prod(radii) * math.sqrt(2.0 * math.pi) * unit_ball_volume(d - 1) / d
    exact *= _expected_norm(e.sigma.entries)
    return (lambda n, seed: mixed_volume_full(bodies, n, seed, threads=2)), exact


class TestSecondRowClosedForm:
    """Where d - 1 >= 2 rows are left, the last is taken out by Cauchy's
    formula: per sample as precise as an eigvalsh reference, unbiased and
    calibrated."""

    @pytest.mark.parametrize("shared", [False, True], ids=["bases", "shared"])
    @pytest.mark.parametrize("spread", [1.0, 1e6, 1e12])
    @pytest.mark.parametrize("d", [3, 5])
    def test_matches_projection_reference(self, d, spread, shared):
        # d = 3 is a (3, 2) pair: one drawn row, the second in closed form
        rows, f = _complement_case(d, spread, shared)
        q = rows.copy()
        _soa_gram_volumes(q, orthonormal=True)
        trace, trace_sq = _complement_traces(q, f)
        lam = reference_complement_ellipses(np.moveaxis(rows, -1, 0), f)
        np.testing.assert_allclose(trace, lam.sum(axis=1), rtol=1e-9, atol=0.0)
        perimeter = _ellipse_perimeters(trace, trace_sq)
        np.testing.assert_allclose(perimeter, _trapezoid_perimeter(lam), rtol=1e-9, atol=0.0)
        if shared and spread == 1e12:
            # the complement holds a small share of S: the recompute runs
            assert np.any(lam.sum(axis=1) < RECOMPUTE * np.sum(f * f))

    def test_circle_and_segment(self):
        # equal axes give 2 pi a; a vanishing minor axis gives 4 a
        per = _ellipse_perimeters(np.array([2.0, 4.0]), np.array([2.0, 16.0]))
        np.testing.assert_allclose(per, [2.0 * math.pi, 8.0], rtol=1e-15)

    @pytest.mark.parametrize("case", ["d3k3", "d5k5", "d3k2"])
    def test_calibrated_at_4096_samples(self, case):
        # 2000 fixed seeds: the z-scores against the exact value have mean
        # within 0.1 of 0, and at most 12 exceed 3 (nominal 5.4 for N(0, 1))
        run, exact = _closed_form_case(case)
        z = np.array([(e.mean - exact) / e.std_error for e in (run(4096, 80_000 + i) for i in range(2000))])
        assert abs(z.mean()) <= 0.1
        assert np.sum(np.abs(z) > 3.0) <= 12

    @pytest.mark.parametrize("case", ["d3k3", "d5k5", "d3k2"])
    def test_calibrated_at_two_chunks(self, case):
        # the control vol_{m-1}^2 tr A: 200 fixed seeds (a d = 5 pair of
        # chunks takes 50 ms), z-score mean within 0.2 of 0 (2.8 SE) and at
        # most 3 beyond 3 (nominal 0.54 for N(0, 1))
        run, exact = _closed_form_case(case)
        z = np.array([(e.mean - exact) / e.std_error for e in (run(2 * CHUNK, 90_000 + i) for i in range(200))])
        assert abs(z.mean()) <= 0.2
        assert np.sum(np.abs(z) > 3.0) <= 3


# == 13. Estimates that keep their bits =====================================

# float.hex of (mean, std_error) at n = 2 CHUNK + 5 unless named.  The
# p = 1 estimates keep the bits they had before the engine took p controls:
# gram_d1k1, gram_d2k1, gram_d2k2 (one drawn row, control vol^2), norm_d4,
# sudakov_d3 and sudakov_d2_n4096 recorded before the second row was taken
# out in closed form, sudakov_d2 (control ||z||^2) at 9cbac9e.  The shapes
# that draw two or more rows, or one row with the last in closed form,
# gained the prefix-volume and row-norm controls, and their pins were
# recorded again from that code: gram_d3k2, gram_d3k3 and gram_d5k5 (p = 2,
# 2 and 6, with vol^2 tr A), gram_d4k2 and gram_d8k3 (p = 3 and 5).
PINNED = {
    "gram_d1k1": ("0x1.16d02c63cce53p+0", "0x1.a3884478edcf4p-11"),
    "gram_d2k1": ("0x1.7ac07bfd8b395p+0", "0x1.5e1a41354033bp-11"),
    "gram_d2k2": ("0x1.12358a85e2756p+0", "0x1.ef2a4770e0812p-12"),
    "gram_d4k2": ("0x1.99bf65e18aedap+1", "0x1.a5aade82916c2p-10"),
    "gram_d8k3": ("0x1.4839c68cb6e22p+4", "0x1.e5ba252515ff3p-8"),
    "norm_d4": ("0x1.1209d7b1b99d2p+2", "0x1.2576e86d9abbep-10"),
    "sudakov_d3": ("0x1.be82600bd9d9ap+1", "0x1.1aa32a50088bbp-8"),
    "sudakov_d2_n4096": ("0x1.ab6362ed019b5p+1", "0x1.d0e364234eeecp-6"),
    "gram_d3k3": ("0x1.652e77bef65fep+1", "0x1.cbadc2aaccd25p-11"),
    "gram_d5k5": ("0x1.7b3aba98ce990p+3", "0x1.017e218a0bbe3p-7"),
    "gram_d3k2": ("0x1.36ad5029154f4p+1", "0x1.a6123666d1d60p-11"),
    "sudakov_d2": ("0x1.a96f95cead9ebp+1", "0x1.bb09feed8ed20p-10"),
}


def _pinned_run(name, threads):
    n = 2 * CHUNK + 5
    if name.startswith("gram"):
        d, k = int(name[6]), int(name[8])
        ens = _ensemble(rng_for(80 + 10 * d + k), d, k, "random")
        return expected_gram_volume(ens, n, seed=10 * d + k, threads=threads)
    if name == "norm_d4":
        return expected_norm(Ellipsoid(random_spd(rng_for(81), 4)), n, seed=7, threads=threads).direct
    if name == "sudakov_d3":
        cloud = PointCloud(rng_for(82).normal(size=(40, 3)))
        return sudakov_width(cloud, n, seed=9, threads=threads).gaussian_mean
    cloud = PointCloud(rng_for(83).normal(size=(300, 2)))
    n = 4096 if name == "sudakov_d2_n4096" else n
    return sudakov_width(cloud, n, seed=11, threads=threads).gaussian_mean


class TestUnchangedBits:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", PINNED)
    def test_float_hex(self, name, threads):
        est = _pinned_run(name, threads)
        assert (est.mean.hex(), est.std_error.hex()) == PINNED[name]
