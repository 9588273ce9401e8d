"""Zero counting and nodal-length extraction on sampled realizations.

Core claims:
- count_zeros_1d certifies sign changes by bisection, honors the half-open
  region convention, and its grid-doubling self-check catches undersampled
  spectra with GridTooCoarse.
- count_zeros_2d finds all common zeros of forced product realizations via
  the Newton polish, and level_length_2d recovers straight nodal lines to
  1e-6.
- The batched experiments equal a realization-by-realization loop over the
  public counting ops, are bit-identical across thread counts, and their
  means match the analytic intensities within 3 standard errors.
- The linear-cost kernels (hashed root deduplication, crossing-cell
  marching squares, sign counts over a chunk of realizations) reproduce
  their quadratic and full-grid references bit for bit.
"""

import math

import numpy as np
import pytest
from pytest import approx

from mixvol import (
    DimensionMismatch,
    FieldSpec,
    GridTooCoarse,
    KernelSpec,
    OutOfRange,
    Realization,
    Region,
    RngStream,
    count_zeros_1d,
    count_zeros_2d,
    level_length_2d,
    nodal_length_experiment,
    simulate_realization,
    zero_count_experiment_1d,
    zero_count_experiment_2d,
    zeros_1d,
    zeros_2d,
)
from mixvol import fields
from support import reference_dedup, reference_segment_lengths

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

    def test_experiment_grid_check_raises_on_fast_field(self):
        fast = FieldSpec(1, (KernelSpec.trig([(1.0, [4000.0])]),))
        with pytest.raises(GridTooCoarse):
            zero_count_experiment_1d(fast, Region([0.0], [100.0]), 100, seed=0, grid_n=2048)

    def test_field_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            zero_count_experiment_1d(_wave_field(1), Region([0.0], [1.0]), 10, seed=0)
        with pytest.raises(DimensionMismatch):
            zero_count_experiment_2d(
                _wave_field(1), Region([0.0, 0.0], [1.0, 1.0]), 10, seed=0
            )
        with pytest.raises(DimensionMismatch):
            nodal_length_experiment(
                _wave_field(2), Region([0.0, 0.0], [1.0, 1.0]), 10, seed=0
            )


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
        fast = [fields._roots_2d(r, region, grid_n, 1e-9) for r in reals]
        monkeypatch.setattr(fields, "_dedup", reference_dedup)
        slow = [fields._roots_2d(r, region, grid_n, 1e-9) for r in reals]
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
        pts = fields._grid_points(region, grid_n)
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

    def test_counts_are_lengths_of_the_zeros(self):
        rice = simulate_realization(_rice_field(), RngStream(8, 0))
        line = Region([0.0], [100.0])
        z1 = zeros_1d(rice, line, 2048)
        assert z1.ndim == 1 and count_zeros_1d(rice, line, 2048) == z1.shape[0]
        wave = simulate_realization(_wave_field(2), RngStream(8, 0))
        box = Region([0.0, 0.0], [10.0, 10.0])
        z2 = zeros_2d(wave, box, 128)
        assert z2.shape[1] == 2 and count_zeros_2d(wave, box, 128) == z2.shape[0]
