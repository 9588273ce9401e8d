"""Zero counting and nodal-length extraction on sampled realizations.

Core claims:
- count_zeros_1d refines sign changes by bisection, honors the half-open
  region convention, and its grid-doubling self-check catches undersampled
  spectra with GridTooCoarse.
- Roots are accepted on the normalized field, |X_i| <= 1e-9 sigma_i: weights
  multiplied by 1e+-30 (1-D) or 1e+-20 (2-D) give the counts and roots of
  unit weights, and every returned root passes that residual.  So do the
  ends of the weight range, a largest weight of 4^511, 1e308 or 2^-1074,
  in zeros_1d, zeros_2d and both count experiments, bit for bit where the
  factor is a power of four and with no RuntimeWarning.
- count_zeros_2d finds all common zeros of forced product realizations via
  the Newton polish, and level_length_2d recovers straight nodal lines to
  1e-6.
- The batched experiments equal a realization-by-realization loop over the
  public counting ops (2-D counts exactly, also across a chunk boundary;
  nodal lengths to 1e-12), are bit-identical across thread counts, and
  their means match the analytic intensities within 3 standard errors.
- The fast kernels (array root deduplication, crossing-cell marching
  squares, sign counts over a chunk of realizations) reproduce their
  quadratic and full-grid references bit for bit.
- Counting keeps the variance contract of measuring: a 1-D field whose
  variance vanishes in the region raises DegenerateVariance in zeros_1d and
  in the experiment, before any draw, and one whose moments overflow a
  double at the region's point farthest from 0 raises OutOfRange there, in
  zeros_1d, the experiment and expected_zero_measure alike.
- zeros_1d evaluates its realization's grid once, at 2 grid_n + 1 nodes,
  whose even nodes are the grid_n + 1 nodes bit for bit.
- The 1-D experiment's one-GEMM line grid and one sign pass give the fine
  counts, the coarse counts and the number of realizations that moved of
  the two-GEMM grid and four-comparison counts they replaced, also with
  exact zeros at the first, an interior and the last node and at values of
  size 1e+-200; a polynomial experiment equals the loop over
  count_zeros_1d across a chunk boundary.
- Separable tensor-grid values match direct evaluation to 1e-12 of the
  coefficient mass, and the shared-phase values and Jacobians that drive
  the chunk-batched Newton loop equal Realization.values/jacobians exactly.
- A chunk of 2-D realizations spreads over its share of the thread budget
  (both grids at once, Newton by realization groups) with the same roots
  and estimates at every thread count and never more workers than threads;
  the in-place grid equals the concatenating one bit for bit, and the
  array deduplication equals the quadratic one on chains, ties and
  rounding edge cases.
"""

import math
import threading
import time

import numpy as np
import pytest
from pytest import approx

from mixvol import (
    DegenerateVariance,
    DimensionMismatch,
    FieldSpec,
    GridTooCoarse,
    KernelSpec,
    MCEstimate,
    OutOfRange,
    Realization,
    Region,
    RngStream,
    count_zeros_1d,
    count_zeros_2d,
    covariance,
    expected_zero_measure,
    level_length_2d,
    nodal_length_experiment,
    simulate_realization,
    zero_count_experiment_1d,
    zero_count_experiment_2d,
    zeros_1d,
    zeros_2d,
)
from mixvol import fields
from mixvol.sampling import Moments
from support import (
    grid_points,
    reference_dedup,
    reference_line_counts,
    reference_segment_lengths,
    reference_trig_grid,
    reference_trig_line,
)

RICE_TARGET = 100.0 * math.sqrt(5.0) / math.pi      # zeros on [0, 100]
WAVE_TARGET = 100.0 / (4.0 * math.pi)               # common zeros on [0,10]^2
NODAL_TARGET = 100.0 / (2.0 * math.sqrt(2.0))       # nodal length on [0,10]^2


# -- Helpers ----------------------------------------------------------------


def _rice_field():
    return FieldSpec(1, (KernelSpec.trig([(1.0, [1.0]), (1.0, [3.0])]),))


def _circular_kernel(freq_scale=1.0, n_atoms=64):
    step = 2.0 * math.pi / n_atoms
    atoms = [
        (
            1.0 / n_atoms,
            [freq_scale * math.cos(m * step), freq_scale * math.sin(m * step)],
        )
        for m in range(n_atoms)
    ]
    return KernelSpec.trig(atoms)


def _wave_field(k, freq_scale=1.0):
    return FieldSpec(2, tuple(_circular_kernel(freq_scale) for _ in range(k)))


def _forced_cos_1d():
    """X(t) = cos t: single atom, cosine coefficient forced to 1."""
    field = FieldSpec(1, (KernelSpec.trig([(1.0, [1.0])]),))
    return Realization(field, (np.array([[1.0, 0.0]]),))


def _forced_line(value):
    """X(t) = c0 + c1 t with forced polynomial coefficients."""
    field = FieldSpec(1, (KernelSpec.polynomial([(1.0, 0), (1.0, 1)]),))
    return Realization(field, (np.asarray(value, dtype=float),))


def _forced_product_2d():
    """X_1 = cos t_1, X_2 = cos t_2."""
    field = FieldSpec(
        2,
        (
            KernelSpec.trig([(1.0, [1.0, 0.0])]),
            KernelSpec.trig([(1.0, [0.0, 1.0])]),
        ),
    )
    block = np.array([[1.0, 0.0]])
    return Realization(field, (block, block))


def _forced_plane_2d(offset=5.0, eps=1e-4):
    """X ~ eps * (t_1 - offset): a sine atom with tiny frequency."""
    field = FieldSpec(2, (KernelSpec.trig([(1.0, [eps, 0.0])]),))
    coeff = np.array([[-math.sin(offset * eps), math.cos(offset * eps)]])
    return Realization(field, (coeff,))


# == 1. count_zeros_1d ======================================================


class TestCountZeros1D:
    def test_forced_cosine_has_two_zeros(self):
        r = _forced_cos_1d()
        assert count_zeros_1d(r, Region([0.0], [2.0 * math.pi - 0.01])) == 2

    def test_no_sign_change_gives_zero(self):
        r = _forced_cos_1d()
        assert count_zeros_1d(r, Region([0.0], [1.0])) == 0

    def test_half_open_keeps_lower_boundary_zero(self):
        # X(t) = t vanishes exactly at the lower endpoint
        r = _forced_line([0.0, 1.0])
        assert count_zeros_1d(r, Region([0.0], [1.0])) == 1

    def test_half_open_drops_upper_boundary_zero(self):
        r = _forced_line([0.0, 1.0])
        assert count_zeros_1d(r, Region([-1.0], [0.0])) == 0

    def test_grid_floor_enforced(self):
        r = _forced_cos_1d()
        with pytest.raises(OutOfRange):
            count_zeros_1d(r, Region([0.0], [1.0]), grid_n=128)

    def test_undersampled_spectrum_raises(self):
        fast = FieldSpec(1, (KernelSpec.trig([(1.0, [300.0])]),))
        r = simulate_realization(fast, RngStream(1, 0))
        with pytest.raises(GridTooCoarse):
            count_zeros_1d(r, Region([0.0], [100.0]), grid_n=256)

    def test_self_check_can_be_disabled(self):
        fast = FieldSpec(1, (KernelSpec.trig([(1.0, [300.0])]),))
        r = simulate_realization(fast, RngStream(1, 0))
        # without the doubling check the coarse grid returns (a wrong count)
        # instead of raising; a fine enough grid recovers the exact tone count
        count_zeros_1d(r, Region([0.0], [100.0]), grid_n=256, self_check=False)
        fine = count_zeros_1d(
            r, Region([0.0], [100.0]), grid_n=65536, self_check=False
        )
        assert fine == 9549  # floor(100 * 300 / pi) zeros of a pure tone

    def test_wrong_shape_rejected(self):
        r = _forced_product_2d()
        with pytest.raises(DimensionMismatch):
            count_zeros_1d(r, Region([0.0], [1.0]))


# == 2. count_zeros_2d ======================================================


class TestCountZeros2D:
    def test_forced_product_has_four_zeros(self):
        r = _forced_product_2d()
        region = Region([0.1, 0.1], [2.0 * math.pi, 2.0 * math.pi])
        assert count_zeros_2d(r, region, grid_n=128) == 4

    def test_positive_component_gives_zero(self):
        r = _forced_product_2d()
        assert count_zeros_2d(r, Region([0.1, 0.1], [1.2, 1.2]), grid_n=128) == 0

    def test_grid_floor_enforced(self):
        r = _forced_product_2d()
        with pytest.raises(OutOfRange):
            count_zeros_2d(r, Region([0.0, 0.0], [1.0, 1.0]), grid_n=64)

    def test_undersampled_spectrum_raises(self):
        # 8 atoms at radius 90: half-wavelength comparable to the cell size,
        # so the doubled grid resolves zero pairs the coarse one merges
        step = math.pi / 4.0
        atoms = [
            (0.125, [90.0 * math.cos(m * step), 90.0 * math.sin(m * step)])
            for m in range(8)
        ]
        kernel = KernelSpec.trig(atoms)
        field = FieldSpec(2, (kernel, kernel))
        r = simulate_realization(field, RngStream(2, 0))
        with pytest.raises(GridTooCoarse):
            count_zeros_2d(r, Region([0.0, 0.0], [1.0, 1.0]), grid_n=128)

    def test_needs_two_components(self):
        r = simulate_realization(_wave_field(1), RngStream(0, 0))
        with pytest.raises(DimensionMismatch):
            count_zeros_2d(r, Region([0.0, 0.0], [1.0, 1.0]))


# == 2b. roots of the normalized field ======================================


def _quintic_field(scale=1.0):
    atoms = [(1.0, degree) for degree in range(6)]
    return FieldSpec(1, (KernelSpec.polynomial(atoms).scaled(scale),))


def _scaled(field, scale):
    return FieldSpec(field.dim, tuple(c.scaled(scale) for c in field.components))


ONE_D_CASES = [
    (_rice_field(), Region([0.0], [100.0]), 2048),
    (_quintic_field(), Region([-2.0], [2.0]), 512),
    # sigma(0) = 1e-4 and 0 is no grid node: the bracket holding 0 has a
    # 30 times larger sigma at its ends
    (FieldSpec(1, (KernelSpec.polynomial([(1e-8, 0), (1.0, 1)]),)), Region([-1.0], [1.01]), 512),
]


def _assert_relative_residual(r, roots):
    """Every root has |X_i| <= 1e-9 sigma_i, sigma_i^2 = r_i(t, t)."""
    pts = roots.reshape(roots.shape[0], r.field.dim)
    values = r.values(pts)
    for p, v in zip(pts, values):
        sigmas = [math.sqrt(covariance(c, p, p)) for c in r.field.components]
        assert np.all(np.abs(v) <= 1e-9 * np.array(sigmas)), (p, v, sigmas)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestRootsOfNormalizedField:
    """Roots are accepted on X_i / sigma_i, so multiplying every weight by a
    constant changes no count and no root."""

    # 4^511 and 1e308 overflowed sigma^2 and the sign products
    @pytest.mark.parametrize("case", [0, 1, 2], ids=["rice", "quintic", "line"])
    @pytest.mark.parametrize("scale", [1e-30, 1e30, 4.0**511, 1e308])
    def test_1d_roots_invariant_to_weight_scale(self, case, scale):
        field, region, grid_n = ONE_D_CASES[case]
        found = 0
        for seed in range(4):
            unit = zeros_1d(simulate_realization(field, RngStream(seed, 0)), region, grid_n)
            scaled = zeros_1d(simulate_realization(_scaled(field, scale), RngStream(seed, 0)), region, grid_n)
            assert np.array_equal(scaled, unit)
            found += unit.shape[0]
        assert found >= 3
        unit = zero_count_experiment_1d(field, region, 16, seed=2, grid_n=grid_n)
        scaled = zero_count_experiment_1d(_scaled(field, scale), region, 16, seed=2, grid_n=grid_n)
        assert (scaled.mean, scaled.std_error) == (unit.mean, unit.std_error)

    # at 1e-300 and 1e-305 the raw Jacobian determinant is below 1e-300;
    # 2^-1068 puts the weights 1/64 at 2^-1074, the least double
    @pytest.mark.parametrize("scale", [1e-20, 1e20, 1e-300, 1e-305, 2.0**-1068])
    def test_2d_roots_invariant_to_weight_scale(self, scale):
        region = Region([0.0, 0.0], [10.0, 10.0])
        for seed in range(3):
            unit = zeros_2d(simulate_realization(_wave_field(2), RngStream(seed, 0)), region, 128)
            field = _scaled(_wave_field(2), scale)
            scaled = zeros_2d(simulate_realization(field, RngStream(seed, 0)), region, 128)
            assert unit.shape[0] > 0 and scaled.shape == unit.shape
            assert np.allclose(scaled, unit, rtol=0.0, atol=1e-12)
        unit = zero_count_experiment_2d(_wave_field(2), region, 40, seed=2)
        scaled = zero_count_experiment_2d(_scaled(_wave_field(2), scale), region, 40, seed=2)
        assert (scaled.mean, scaled.std_error) == (unit.mean, unit.std_error)

    # largest weights no factor on the fields above reaches: 2^-1074 zeroes
    # the line's weight 1e-8, and 4^511 and 1e308 are beyond the double
    # range as factors on the plane's weights 1/64
    @pytest.mark.parametrize(
        "case, largest",
        [(0, 2.0**-1074), (1, 2.0**-1074), (None, 4.0**511), (None, 1e308)],
        ids=["rice-2^-1074", "quintic-2^-1074", "plane-4^511", "plane-1e308"],
    )
    def test_roots_at_the_ends_of_the_weight_range(self, case, largest):
        if case is None:
            unit, region, grid_n = _wave_field(2), Region([0.0, 0.0], [10.0, 10.0]), 128
            zeros, experiment = zeros_2d, zero_count_experiment_2d
        else:
            (unit, region, grid_n), zeros, experiment = ONE_D_CASES[case], zeros_1d, zero_count_experiment_1d
        field = FieldSpec(unit.dim, tuple(
            KernelSpec(c.kind, c.weights / np.max(c.weights) * largest, c.table) for c in unit.components
        ))
        mantissa, exponent = math.frexp(largest)
        power_of_four = mantissa == 0.5 and exponent % 2 == 1
        found = 0
        for seed in range(3):
            want = zeros(simulate_realization(unit, RngStream(seed, 0)), region, grid_n)
            got = zeros(simulate_realization(field, RngStream(seed, 0)), region, grid_n)
            assert got.shape == want.shape
            if power_of_four:
                assert np.array_equal(got, want)
            else:
                assert np.allclose(got, want, rtol=0.0, atol=1e-12)
            found += want.shape[0]
        assert found >= 3
        want, got = (experiment(f, region, 16, seed=2, grid_n=grid_n) for f in (unit, field))
        assert (got.mean, got.std_error) == (want.mean, want.std_error)

    @pytest.mark.parametrize("scale", [1e-30, 1.0, 1e30])
    def test_every_root_passes_the_relative_residual(self, scale):
        for field, region, grid_n in ONE_D_CASES:
            for seed in range(20):
                r = simulate_realization(_scaled(field, scale), RngStream(seed, 0))
                _assert_relative_residual(r, zeros_1d(r, region, grid_n))
        plane_scale = min(max(scale, 1e-20), 1e20)
        for seed in range(3):
            r = simulate_realization(_scaled(_wave_field(2), plane_scale), RngStream(seed, 0))
            _assert_relative_residual(r, zeros_2d(r, Region([0.0, 0.0], [10.0, 10.0]), 128))


# sigma^2 = t^2 + t^6 vanishes at t = 0 only
ODD_FIELD = FieldSpec(1, (KernelSpec.polynomial([(1.0, 1), (1.0, 3)]),))
ODD_REGION = Region([-1.0], [1.01])


class TestVarianceContract:
    """Counting keeps the variance contract of measuring: each component's
    sigma^2 must clear the floor at the region's point nearest 0, and its
    moments must be finite at the point farthest from 0."""

    @pytest.mark.parametrize("seed", range(5))
    def test_single_call_raises_where_variance_vanishes(self, seed):
        # zeros_1d returned t = -1.3e-65, where |X| / sigma is 0.16 to 1.02
        r = simulate_realization(ODD_FIELD, RngStream(seed, 0))
        with pytest.raises(DegenerateVariance, match=r"t=\[0\.0\]"):
            zeros_1d(r, ODD_REGION, 512)
        with pytest.raises(DegenerateVariance):
            count_zeros_1d(r, ODD_REGION, 512, self_check=False)

    def test_experiment_raises_before_any_draw(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before validation")

        monkeypatch.setattr(fields, "_chunk_coefficients", no_work)
        with pytest.raises(DegenerateVariance, match=r"t=\[0\.0\]"):
            zero_count_experiment_1d(ODD_FIELD, ODD_REGION, 100, seed=0, grid_n=512)

    # 100^320 overflows sigma^2: zeros_1d raised GridTooCoarse from inf and
    # NaN node values, the experiment returned a silent 3.5 +- 0.5, and the
    # measure raised "estimate nan +- nan" after numpy warnings
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lower, upper, far", [(-100.0, 100.0, "100.0"), (-100.0, 50.0, "-100.0")])
    def test_moments_overflowing_in_region_raise_before_any_draw(self, monkeypatch, lower, upper, far):
        field = FieldSpec(1, (KernelSpec.polynomial([(1.0, d) for d in range(161)]),))
        region = Region([lower], [upper])
        r = simulate_realization(field, RngStream(1, 0))
        with pytest.raises(OutOfRange, match=rf"t=\[{far}\]"):
            zeros_1d(r, region, 512)
        with pytest.raises(OutOfRange, match=rf"t=\[{far}\]"):
            expected_zero_measure(field, region)

        def no_work(*args, **kwargs):
            raise AssertionError("work started before validation")

        monkeypatch.setattr(fields, "_chunk_coefficients", no_work)
        with pytest.raises(OutOfRange, match=rf"t=\[{far}\]"):
            zero_count_experiment_1d(field, region, 8, seed=1)

    def test_region_away_from_zero_is_counted(self):
        found = 0
        for seed in range(20):
            r = simulate_realization(ODD_FIELD, RngStream(seed, 0))
            roots = zeros_1d(r, Region([0.25], [1.01]), 512)
            _assert_relative_residual(r, roots)
            found += roots.shape[0]
        assert found >= 3


# == 3. level_length_2d =====================================================


class TestLevelLength2D:
    def test_straight_nodal_line(self):
        r = _forced_plane_2d(offset=5.0)
        length = level_length_2d(r, Region([0.0, 0.0], [10.0, 10.0]))
        assert length == approx(10.0, abs=1e-6)

    def test_positive_field_has_no_nodal_set(self):
        field = FieldSpec(2, (KernelSpec.trig([(1.0, [1e-4, 0.0])]),))
        r = Realization(field, (np.array([[1.0, 0.0]]),))
        assert level_length_2d(r, Region([0.0, 0.0], [10.0, 10.0])) == 0.0

    def test_diagonal_nodal_line(self):
        # zero line t_1 = t_2 crossing the unit square has length sqrt(2)
        eps = 1e-4
        field = FieldSpec(2, (KernelSpec.trig([(1.0, [eps, -eps])]),))
        r = Realization(field, (np.array([[0.0, 1.0]]),))  # sin(eps (t1 - t2))
        length = level_length_2d(r, Region([0.0, 0.0], [1.0, 1.0]))
        assert length == approx(math.sqrt(2.0), rel=1e-4)

    def test_grid_floor_enforced(self):
        r = _forced_plane_2d()
        with pytest.raises(OutOfRange):
            level_length_2d(r, Region([0.0, 0.0], [10.0, 10.0]), grid_n=128)

    def test_undersampled_spectrum_raises(self):
        r = simulate_realization(_wave_field(1, freq_scale=60.0), RngStream(3, 0))
        with pytest.raises(GridTooCoarse):
            level_length_2d(r, Region([0.0, 0.0], [10.0, 10.0]), grid_n=256)

    def test_needs_scalar_component(self):
        r = _forced_product_2d()
        with pytest.raises(DimensionMismatch):
            level_length_2d(r, Region([0.0, 0.0], [1.0, 1.0]))


# == 4. experiments vs analytic intensities =================================


class TestExperiments:
    def test_rice_mean_count(self):
        est = zero_count_experiment_1d(_rice_field(), Region([0.0], [100.0]), 2000, seed=1)
        assert abs(est.mean - RICE_TARGET) <= 3.0 * est.std_error

    def test_experiment_equals_manual_loop(self):
        region = Region([0.0], [100.0])
        est = zero_count_experiment_1d(_rice_field(), region, 50, seed=12, grid_n=2048)
        manual = [
            count_zeros_1d(
                simulate_realization(_rice_field(), RngStream(12, i)),
                region,
                grid_n=4096,
                self_check=False,
            )
            for i in range(50)
        ]
        assert est.mean == float(np.mean(manual))

    def test_multi_chunk_experiment_matches_single_pass(self):
        # 520 realizations run as chunks of 256, 256 and 8 whose moments
        # are merged; the result is the one-pass mean and std of the counts
        region = Region([0.0], [100.0])
        est = zero_count_experiment_1d(_rice_field(), region, 520, seed=13, threads=2)
        manual = [
            count_zeros_1d(
                simulate_realization(_rice_field(), RngStream(13, i)),
                region,
                grid_n=4096,
                self_check=False,
            )
            for i in range(520)
        ]
        assert est.n_samples == 520
        assert est.mean == approx(np.mean(manual), rel=1e-12)
        assert est.std_error == approx(np.std(manual, ddof=1) / math.sqrt(520), rel=1e-12)

    def test_polynomial_experiment_equals_manual_loop(self):
        # 300 realizations: chunks of 256 and 44, merged
        field, region = _quintic_field(), Region([-2.0], [2.0])
        est = zero_count_experiment_1d(field, region, 300, seed=16, grid_n=256)
        manual = [
            count_zeros_1d(
                simulate_realization(field, RngStream(16, i)), region, grid_n=512, self_check=False
            )
            for i in range(300)
        ]
        assert est.n_samples == 300
        assert est.mean == approx(np.mean(manual), rel=1e-12)
        assert est.std_error == approx(np.std(manual, ddof=1) / math.sqrt(300), rel=1e-12)

    def test_wave_pair_mean_count(self):
        est = zero_count_experiment_2d(
            _wave_field(2), Region([0.0, 0.0], [10.0, 10.0]), 400, seed=3
        )
        assert abs(est.mean - WAVE_TARGET) <= 3.0 * est.std_error

    def test_nodal_length_mean(self):
        est = nodal_length_experiment(
            _wave_field(1), Region([0.0, 0.0], [10.0, 10.0]), 300, seed=5
        )
        assert abs(est.mean - NODAL_TARGET) <= 3.0 * est.std_error

    def test_thread_count_does_not_change_bits(self):
        region = Region([0.0], [100.0])
        runs = [
            zero_count_experiment_1d(_rice_field(), region, 600, seed=4, threads=t)
            for t in (1, 2, 4)
        ]
        assert runs[0].mean == runs[1].mean == runs[2].mean
        assert runs[0].std_error == runs[1].std_error == runs[2].std_error

    def test_thread_count_does_not_change_bits_2d(self):
        region = Region([0.0, 0.0], [10.0, 10.0])
        runs = [
            zero_count_experiment_2d(_wave_field(2), region, 60, seed=6, threads=t)
            for t in (1, 2)
        ]
        assert runs[0].mean == runs[1].mean

    def test_2d_experiment_equals_manual_loop_across_chunks(self):
        # 260 realizations run as chunks of 256 and 4, each chunk through one
        # Newton loop; every count must equal the one-realization count
        region = Region([0.0, 0.0], [10.0, 10.0])
        field = _wave_field(2)
        est = zero_count_experiment_2d(field, region, 260, seed=14)
        manual = [
            count_zeros_2d(
                simulate_realization(field, RngStream(14, i)), region, 128, self_check=False
            )
            for i in range(260)
        ]
        chunks = [Moments.of(manual[:256]), Moments.of(manual[256:])]
        assert est == MCEstimate.from_moments(chunks, 14, 0.99)

    def test_nodal_experiment_equals_manual_loop(self):
        region = Region([0.0, 0.0], [10.0, 10.0])
        field = _wave_field(1)
        est = nodal_length_experiment(field, region, 40, seed=15)
        manual = [
            level_length_2d(
                simulate_realization(field, RngStream(15, i)), region, 256, self_check=False
            )
            for i in range(40)
        ]
        assert est.mean == approx(np.mean(manual), rel=1e-12)
        assert est.std_error == approx(np.std(manual, ddof=1) / math.sqrt(40), rel=1e-12)

    def test_thread_count_does_not_change_bits_nodal(self):
        region = Region([0.0, 0.0], [10.0, 10.0])
        runs = [
            nodal_length_experiment(_wave_field(1), region, 300, seed=16, threads=t)
            for t in (1, 2)
        ]
        assert runs[0] == runs[1]

    def test_experiment_grid_check_raises_on_fast_field(self):
        fast = FieldSpec(1, (KernelSpec.trig([(1.0, [4000.0])]),))
        with pytest.raises(GridTooCoarse):
            zero_count_experiment_1d(fast, Region([0.0], [100.0]), 100, seed=0, grid_n=2048)

    def test_field_shape_validation(self, monkeypatch):
        # every input is checked before a single realization is drawn
        def no_work(*args, **kwargs):
            raise AssertionError("work started before validation")

        monkeypatch.setattr(fields, "_chunk_coefficients", no_work)
        monkeypatch.setattr(fields, "simulate_realization", no_work)
        line, square = Region([0.0], [1.0]), Region([0.0, 0.0], [1.0, 1.0])
        table = [
            # experiment, right field, right region, wrong field, min grid_n
            (zero_count_experiment_1d, _rice_field(), line, _wave_field(1), 256),
            (zero_count_experiment_2d, _wave_field(2), square, _wave_field(1), 128),
            (nodal_length_experiment, _wave_field(1), square, _wave_field(2), 256),
        ]
        for run, field, region, wrong_field, min_grid in table:
            wrong_region = square if region.dim == 1 else line
            cases = [
                (DimensionMismatch, (wrong_field, region, 10), {}),
                (DimensionMismatch, (field, wrong_region, 10), {}),
                (OutOfRange, (field, region, 10), {"grid_n": min_grid - 1}),
                (OutOfRange, (field, region, 1), {}),
                (OutOfRange, (field, region, 10), {"ci_level": 1.5}),
            ]
            for error, args, kwargs in cases:
                with pytest.raises(error):
                    run(*args, seed=0, **kwargs)


# == 5. linear-cost kernels vs their references =============================


def _saddle_grid_realization(offset):
    """X = cos t_1 cos t_2 + offset: level-0 saddles near (pi/2 + k pi, pi/2 + m pi)."""
    field = FieldSpec(
        2,
        (KernelSpec.trig([(1.0, [1.0, -1.0]), (1.0, [1.0, 1.0]), (1.0, [0.0, 0.0])]),),
    )
    return Realization(field, (np.array([[0.5, 0.0], [0.5, 0.0], [offset, 0.0]]),))


def _corner_cases(values):
    s = (values > 0.0).astype(int)
    return set(np.unique(s[:-1, :-1] + 2 * s[1:, :-1] + 4 * s[1:, 1:] + 8 * s[:-1, 1:]).tolist())


class TestKernelsMatchReferences:
    @pytest.mark.parametrize("grid_n", [128, 256])
    def test_dense_roots_equal_quadratic_dedup(self, grid_n, monkeypatch):
        region = Region([0.0, 0.0], [10.0, 10.0])
        reals = [simulate_realization(_wave_field(2, 6.0), RngStream(21, i)) for i in range(2)]
        fast = [fields._roots_2d(r, region, grid_n) for r in reals]
        monkeypatch.setattr(fields, "_dedup", reference_dedup)
        slow = [fields._roots_2d(r, region, grid_n) for r in reals]
        for f, s in zip(fast, slow):
            assert f.shape[0] > 200
            assert f.dtype == s.dtype and f.shape == s.shape
            assert np.array_equal(f, s)

    @pytest.mark.parametrize("grid_n", [256, 512])
    def test_nodal_lengths_equal_full_grid(self, grid_n):
        region = Region([0.0, 0.0], [10.0, 10.0])
        reals = [_saddle_grid_realization(c) for c in (1e-3, -1e-3, 0.0)]
        reals += [simulate_realization(_wave_field(1, s), RngStream(22, 0)) for s in (1.0, 4.0)]
        xs, ys = fields._grid_axes(region, grid_n)
        pts = grid_points(xs, ys)
        seen = set()
        for r in reals:
            values = r.component_values(0, pts).reshape(grid_n + 1, grid_n + 1)
            center = lambda p: r.component_values(0, p)
            seen |= _corner_cases(values)
            fast = fields._segment_lengths(values, xs, ys, center)
            assert fast > 0.0
            assert fast == reference_segment_lengths(values, xs, ys, center)
        assert {5, 10} <= seen

    def test_dedup_of_nothing(self):
        out = fields._dedup(np.empty((0, 2)), 1e-6)
        assert out.shape == (0, 2)

    @pytest.mark.parametrize(
        "pair, radius",
        [
            ([[0.0, 0.0], [fields.DEDUP_RADIUS, 0.0]], fields.DEDUP_RADIUS),
            # exactly radius apart across a bucket boundary, and across zero
            ([[0.375, 1.0], [0.625, 1.0]], 0.25),
            ([[-0.125, 0.0], [0.125, 0.25]], 0.25),
        ],
    )
    def test_points_exactly_radius_apart_merge(self, pair, radius):
        pts = np.array(pair)
        assert np.max(np.abs(pts[0] - pts[1])) == radius
        assert np.array_equal(fields._dedup(pts, radius), pts[:1])

    def test_points_just_beyond_radius_both_stay(self):
        r = fields.DEDUP_RADIUS
        pts = np.array([[1.0, 2.0], [1.0 + r * (1.0 + 1e-9), 2.0]])
        assert np.array_equal(fields._dedup(pts, r), pts)

    def test_first_point_in_input_order_survives(self):
        r = 0.25
        cluster = np.array([[0.1, 0.1], [0.0, 0.0], [0.2, 0.0]])
        assert np.array_equal(fields._dedup(cluster, r), cluster[:1])
        # greedy, not transitive: the middle of a chain merges into the first
        # point, and the far end is compared only with survivors
        chain = np.array([[0.0, 0.0], [0.2, 0.0], [0.4, 0.0]])
        assert np.array_equal(fields._dedup(chain, r), chain[[0, 2]])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_dedup_equals_reference_on_clusters(self, dim):
        rng = np.random.default_rng(dim)
        centers = rng.uniform(-3.0, 3.0, size=(40, dim))
        pts = centers[rng.integers(0, 40, size=400)] + rng.uniform(-0.3, 0.3, size=(400, dim))
        out = fields._dedup(pts, 0.25)
        assert np.array_equal(out, reference_dedup(pts, 0.25))

    def test_sign_counts_of_a_chunk_equal_per_column_counts(self):
        rng = np.random.default_rng(5)
        vals = rng.standard_normal((513, 7))
        vals[[10, 40, 512], [0, 3, 6]] = 0.0  # exact node zeros, one at the last node
        per_column = [fields._sign_change_count(vals[:, i]) for i in range(7)]
        assert fields._sign_change_count(vals).tolist() == per_column

    # the product of the two values underflows to -0.0 or overflows to -inf
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("size", [1e-200, 1e200])
    def test_sign_tests_see_crossings_whose_product_leaves_the_range(self, size):
        vals = size * np.array([1.0, -1.0, -1.0, 1.0])
        assert fields._sign_change_count(vals) == 2
        assert fields._sign_change_count(np.column_stack([vals, -vals])).tolist() == [2, 2]
        root = fields._bisect_roots(lambda x: size * (x - 0.3), np.array([0.0]), np.array([1.0]), np.array([size]))
        assert abs(root[0] - 0.3) < 1e-9

    def test_counts_are_lengths_of_the_zeros(self):
        rice = simulate_realization(_rice_field(), RngStream(8, 0))
        line = Region([0.0], [100.0])
        z1 = zeros_1d(rice, line, 2048)
        assert z1.ndim == 1 and count_zeros_1d(rice, line, 2048) == z1.shape[0]
        wave = simulate_realization(_wave_field(2), RngStream(8, 0))
        box = Region([0.0, 0.0], [10.0, 10.0])
        z2 = zeros_2d(wave, box, 128)
        assert z2.shape[1] == 2 and count_zeros_2d(wave, box, 128) == z2.shape[0]


# == 6. separable grids and shared-phase Newton evaluation ==================


def _chunk(field, seed, size):
    reals = [simulate_realization(field, RngStream(seed, i)) for i in range(size)]
    stacks = [np.stack([r.coefficients[c] for r in reals]) for c in range(field.n_components)]
    return reals, stacks


class TestOneEvaluation:
    """A single 1-D realization is a chunk of one: one grid evaluation gives
    its brackets and its self-check."""

    @pytest.mark.parametrize(
        "field, region, grid_n",
        [(_rice_field(), Region([0.0], [100.0]), 2048), (_quintic_field(), Region([-2.0], [2.0]), 512)],
        ids=["trig", "polynomial"],
    )
    def test_zeros_1d_evaluates_its_grid_once(self, field, region, grid_n, monkeypatch):
        spec = field.components[0]
        row, calls = fields._KINDS[spec.kind], []

        def counted(*args):
            calls.append(args[1][0].shape)
            return row.grid(*args)

        monkeypatch.setitem(fields._KINDS, spec.kind, row._replace(grid=counted))
        r = simulate_realization(field, RngStream(4, 0))
        roots = zeros_1d(r, region, grid_n, self_check=True)
        assert calls == [(2 * grid_n + 1,)]
        assert roots.shape[0] > 0

    @pytest.mark.parametrize("bounds", [(0.0, 100.0), (-2.0, 2.0), (50.3, 150.3), (-1.0, 1.01), (-7.1, -0.3)])
    @pytest.mark.parametrize("grid_n", [256, 512, 2048])
    def test_even_nodes_of_the_doubled_grid_are_the_grid(self, bounds, grid_n):
        region = Region([bounds[0]], [bounds[1]])
        (fine,) = fields._grid_axes(region, 2 * grid_n)
        (coarse,) = fields._grid_axes(region, grid_n)
        assert np.array_equal(fine[::2], coarse)


def _with_node_zeros(values):
    """values with exact zeros at the first, an interior and the last node of
    some columns, and a run of zeros in one."""
    values = values.copy()
    values[0, [0, 5]] = 0.0
    values[[7, 8, 9, 400], [1, 1, 1, 2]] = 0.0
    values[-1, [3, 5]] = 0.0
    values[::2, 4] = 0.0
    return values


class TestLineCounts:
    """The 1-D experiment's counts equal those of the two-GEMM grid and the
    four-comparison sign counts it replaced."""

    @pytest.mark.parametrize("size", [1.0, 1e-200, 1e200])
    def test_counts_equal_reference_with_node_zeros(self, size):
        rng = np.random.default_rng(31)
        # a smooth part keeps fine and coarse counts apart in some columns
        values = size * _with_node_zeros(
            np.cos(np.linspace(0.0, 40.0, 1025))[:, None] + 0.3 * rng.standard_normal((1025, 9))
        )
        fine, coarse = fields._line_counts(values)
        want_fine, want_coarse, want_moved = reference_line_counts(values)
        assert fine.tolist() == want_fine.tolist()
        assert coarse.tolist() == want_coarse.tolist()
        assert int(np.count_nonzero(fine != coarse)) == want_moved > 0

    @pytest.mark.parametrize("nodes", [300, 70_000])
    def test_counts_past_the_range_of_a_byte_and_of_a_short(self, nodes):
        # every node pair crosses: 299 and 69 999 crossings
        values = np.tile([1.0, -1.0], nodes // 2)[:, None]
        want_fine, want_coarse, _ = reference_line_counts(values)
        fine, coarse = fields._line_counts(values)
        assert fine.tolist() == want_fine.tolist() == [nodes - 1]
        assert coarse.tolist() == want_coarse.tolist() == [0]

    @pytest.mark.parametrize("seed", [3, 4])
    def test_rice_chunk_counts_equal_reference(self, seed):
        field, region, grid_n = _rice_field(), Region([0.5], [100.5]), 2048
        (coefs,) = fields._chunk_coefficients(field, seed, 0, 256)
        nodes, values = fields._chunk_line_1d(field, [coefs], region, grid_n)
        reference = reference_trig_line(field.components[0], nodes, coefs)
        scale = np.sum(np.abs(coefs), axis=(1, 2))
        assert np.all(np.abs(values - reference) <= 1e-12 * scale)
        fine, coarse = fields._line_counts(values)
        want_fine, want_coarse, want_moved = reference_line_counts(reference)
        assert fine.tolist() == want_fine.tolist()
        assert coarse.tolist() == want_coarse.tolist()
        assert int(np.count_nonzero(fine != coarse)) == want_moved

    def test_experiment_reads_its_counts_from_the_line(self, monkeypatch):
        # each odd node repeats the next even one: no realization moves, and
        # the estimate is the mean fine count; with node zeros, the number
        # that moved is the reference's, and beyond 1% it raises
        coarse = np.random.default_rng(32).standard_normal((257, 6))
        values = np.empty((513, 6))
        values[::2], values[1::2] = coarse, coarse[1:]
        field, line = _rice_field(), Region([0.0], [1.0])
        monkeypatch.setattr(fields, "_chunk_line_1d", lambda *args: (None, values))
        est = zero_count_experiment_1d(field, line, 6, seed=0, grid_n=256)
        want_fine, _, want_moved = reference_line_counts(values)
        assert want_moved == 0 and est.mean == approx(np.mean(want_fine), rel=1e-12)
        values = _with_node_zeros(values)
        _, _, want_moved = reference_line_counts(values)
        with pytest.raises(GridTooCoarse, match=f"^{want_moved} of 6 "):
            zero_count_experiment_1d(field, line, 6, seed=0, grid_n=256)


class TestSeparableKernels:
    def test_separable_grid_matches_direct_values(self):
        # |omega| = 6 on a box near 50: phases reach ~700 rad
        field = _wave_field(2, 6.0)
        region = Region([50.3, 49.6], [60.3, 59.6])
        reals, stacks = _chunk(field, 23, 3)
        xs, ys = fields._grid_axes(region, 128)
        pts = grid_points(xs, ys)
        for c, spec in enumerate(field.components):
            grid = fields._trig_grid(spec.table, [xs, ys], stacks[c])
            assert grid.shape == (129, 129, 3)
            for i, r in enumerate(reals):
                direct = r.component_values(c, pts).reshape(129, 129)
                scale = np.sum(np.abs(r.coefficients[c]))
                assert np.max(np.abs(grid[:, :, i] - direct)) <= 1e-12 * scale

    def test_shared_phase_equals_values_and_jacobians(self):
        field = _wave_field(2, 6.0)
        reals, stacks = _chunk(field, 24, 3)
        rng = np.random.default_rng(24)
        pts = rng.uniform(45.0, 65.0, size=(500, 2))
        owner = np.sort(rng.integers(0, 3, size=500))
        vals, jac = fields._evaluate(field, [s[owner] for s in stacks], pts, gradients=True)
        for i, r in enumerate(reals):
            mine = owner == i
            assert np.array_equal(vals[mine], r.values(pts[mine]))
            assert np.array_equal(jac[mine], r.jacobians(pts[mine]))
            # the same point alone, as a chunk of one
            one = np.flatnonzero(mine)[:1]
            alone = fields._evaluate(field, [s[i : i + 1] for s in stacks], pts[one], gradients=True)
            assert np.array_equal(alone[0], vals[one])
            assert np.array_equal(alone[1], jac[one])


# == 7. thread budget inside a chunk, lean grids, array deduplication ========


def _concurrency_probe(monkeypatch):
    """Wrap the trig row's grid and _newton_roots_2d so that each call holds
    a slot for a moment; returns the record of the most calls live at once."""
    lock = threading.Lock()
    record = {"live": 0, "peak": 0}

    def hold(original):
        def wrapped(*args, **kwargs):
            with lock:
                record["live"] += 1
                record["peak"] = max(record["peak"], record["live"])
            try:
                time.sleep(0.02)
                return original(*args, **kwargs)
            finally:
                with lock:
                    record["live"] -= 1

        return wrapped

    row = fields._KINDS[fields.TRIG]
    monkeypatch.setitem(fields._KINDS, fields.TRIG, row._replace(grid=hold(row.grid)))
    monkeypatch.setattr(fields, "_newton_roots_2d", hold(fields._newton_roots_2d))
    return record


class TestThreadBudget:
    @pytest.mark.parametrize("n", [3, 60, 300])
    def test_estimate_equal_at_every_thread_count(self, n):
        # fewer realizations than threads, one chunk, and two chunks
        region = Region([0.0, 0.0], [10.0, 10.0])
        runs = [
            zero_count_experiment_2d(_wave_field(2), region, n, seed=31, threads=t)
            for t in (1, 2, 3, 4)
        ]
        assert runs[0].n_samples == n
        assert runs[0] == runs[1] == runs[2] == runs[3]

    def test_chunk_roots_equal_at_every_inner_budget(self):
        field = _wave_field(2, 6.0)
        region = Region([0.0, 0.0], [10.0, 10.0])
        _, stacks = _chunk(field, 32, 7)
        # realizations 1 and 6 are zero everywhere, so no cell seeds Newton;
        # at 3 threads realization 6 is a group of its own
        for s in stacks:
            s[[1, 6]] = 0.0
        runs = [fields._chunk_roots_2d(field, stacks, region, 128, t) for t in (1, 2, 3)]
        for roots in runs:
            assert len(roots) == 7
            assert roots[1].shape == roots[6].shape == (0, 2)
            assert all(r.shape[0] > 200 for i, r in enumerate(roots) if i not in (1, 6))
            assert all(np.array_equal(r, s) for r, s in zip(roots, runs[0]))

    @pytest.mark.parametrize("n, threads", [(60, 1), (60, 2), (60, 3), (300, 2), (300, 3), (300, 4)])
    def test_live_workers_never_exceed_threads(self, n, threads, monkeypatch):
        record = _concurrency_probe(monkeypatch)
        zero_count_experiment_2d(
            _wave_field(2), Region([0.0, 0.0], [10.0, 10.0]), n, seed=33, threads=threads
        )
        assert 1 <= record["peak"] <= threads
        if n <= fields.EXPERIMENT_CHUNK:
            # one chunk alone still spreads over the whole budget
            assert record["peak"] == threads


class TestLeanGrid:
    @pytest.mark.parametrize("n_real", [1, 7, 96])
    def test_grid_equals_concatenating_reference(self, n_real):
        field = _wave_field(2, 6.0)
        region = Region([50.3, 49.6], [60.3, 59.6])
        _, stacks = _chunk(field, 34, n_real)
        xs, ys = fields._grid_axes(region, 128)
        for c, spec in enumerate(field.components):
            grid = fields._trig_grid(spec.table, [xs, ys], stacks[c])
            assert grid.shape == (129, 129, n_real)
            reference = reference_trig_grid(spec, xs, ys, np.moveaxis(stacks[c], 0, 2))
            assert np.array_equal(grid, reference)


def _rounding_pair(radius):
    """Two points on a horizontal line whose x gap computes to exactly radius
    although x_first + radius rounds below x_second."""
    ulp = np.spacing(radius)
    return np.array([[-0.4 * ulp, 1.0], [radius, 1.0]])


def _chain(step, n, direction):
    return np.outer(step * np.arange(n), direction)


class TestDedupEdges:
    @pytest.mark.parametrize(
        "pts, radius",
        [
            (_chain(0.9 * 0.25, 12, [1.0, 0.0]), 0.25),
            (_chain(0.25, 12, [1.0, 0.0]), 0.25),
            (_chain(0.9 * 0.25, 12, [1.0, 1.0]), 0.25),
            (_chain(0.25, 12, [1.0, 1.0]), 0.25),
            # the chain visited from its far end, and in a shuffled order
            (_chain(0.9 * 0.25, 12, [1.0, 1.0])[::-1], 0.25),
            (_chain(0.25, 12, [1.0, 0.0])[np.random.default_rng(35).permutation(12)], 0.25),
            # equal x, different y: the x window holds all of them
            (np.column_stack([np.full(9, 1.5), [0.0, 0.3, 0.1, 0.2, 0.25, 0.6, 0.5, 0.4, 0.45]]), 0.25),
            # negative coordinates, across zero
            (_chain(0.9 * 0.25, 12, [-1.0, -1.0]) + 0.5, 0.25),
            (np.array([[-1.0, -2.0], [-1.25, -2.0], [-0.75, -1.75], [-1.5, -2.2], [-1.0, -2.0]]), 0.25),
            # d = 1 and d = 3
            (_chain(0.9 * 0.25, 12, [1.0]), 0.25),
            (_chain(0.25, 12, [-1.0]), 0.25),
            (_chain(0.9 * 0.25, 12, [1.0, -1.0, 1.0]), 0.25),
            (_chain(0.25, 12, [0.0, 0.0, 1.0]), 0.25),
            # x_i + r rounds below x_j although |x_j - x_i| <= r
            (_rounding_pair(0.25), 0.25),
            (_rounding_pair(0.25)[::-1], 0.25),
            (_rounding_pair(1.0), 1.0),
        ],
    )
    def test_equals_reference(self, pts, radius):
        out = fields._dedup(pts, radius)
        ref = reference_dedup(pts, radius)
        assert out.shape == ref.shape and np.array_equal(out, ref)
        assert ref.shape[0] < pts.shape[0]

    def test_rounding_pair_premise(self):
        for radius in (0.25, 1.0):
            (xi, _), (xj, _) = _rounding_pair(radius)
            assert xi + radius < xj and abs(xj - xi) <= radius
