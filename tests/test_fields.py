"""Gaussian field engine: kernels, gradient covariances, zero intensities.

Core claims:
- gradient_covariance implements C(t) = H/s^2 - g g^T/s^4 for the normalized
  field and matches a central finite-difference of the correlation function
  rho(s,t) = r(s,t)/sqrt(r(s,s) r(t,t)) to 1e-6.
- zero_intensity reproduces the closed-form targets: sqrt(5)/pi for the
  two-atom Rice spectrum, 1/(4 pi) for the planar circular spectrum with two
  components, 1/(2 sqrt(2)) for its nodal-length intensity; all three hold
  under seeds 1..5 at the Monte Carlo route's own 3-sigma tolerance.
- expected_zero_measure is intensity times volume for stationary kernels,
  exact quadrature with an order-doubling error budget for the Kac kernel,
  and agrees with a quadratic-formula root-counting oracle; each
  Gauss-Legendre rule is computed once per order, read-only, and the Kac
  value is the same to the bit on the first call and on later ones; the
  quadrature order lies in [1, QUADRATURE_LIMIT] for every field, the
  stationary ones included.  Moments that overflow a double raise
  OutOfRange in gradient_covariance, with no numpy warning.
- The variance floor is relative to the largest weight: trig weights times
  2^-44 or 2^-990 and polynomial weights times 2^-44 give the intensities
  and measures of unit weights bit for bit.
- A polynomial realization's Jacobian is sum c_a deg_a x^(deg_a - 1),
  degree-0 atoms and x = 0 included.
- X(t) and grad X(t) are uncorrelated, realizations are bit-reproducible,
  and rescaling all atom weights changes nothing but the field's amplitude.
- Realization i of seed s draws, component by component from stream
  (s, i), (A, 2) trig or (A,) polynomial normals times sqrt(w_a), alone and
  in an experiment's chunk, also in a chunk that ends at stream 2^64 - 1; a
  chunk that reaches past the streams raises OutOfRange before any draw.
- A KernelSpec is read-only weights plus one table, frequencies or integer
  degrees; each invalid kernel input raises the same error class through
  KernelSpec.trig/polynomial and field_from_json, an array-valued weight
  and a non-string kind included, and field_to_json(field_from_json(obj)) == obj.
- A Region's bounds and sides are finite doubles, and its volume a positive
  normal one.
- KernelSpec, FieldSpec and Region compare by value: kinds and dimensions
  with ==, their arrays with np.array_equal.
"""

import json
import math

import numpy as np
import pytest
from pytest import approx

from mixvol import (
    DegenerateGradient,
    DegenerateVariance,
    DimensionMismatch,
    Ellipsoid,
    FieldSpec,
    KernelSpec,
    OutOfRange,
    Realization,
    Region,
    RngStream,
    SupportBody2D,
    covariance,
    expected_zero_measure,
    field_from_json,
    field_to_json,
    gradient_covariance,
    gradient_ellipsoids,
    load_field,
    load_region,
    make_spd,
    mixed_area_oracle,
    region_from_json,
    region_to_json,
    simulate_realization,
    zero_intensity,
)
from mixvol import fields

from support import SEEDS, quadratic_root_count_oracle, rng_for

RICE_INTENSITY = math.sqrt(5.0) / math.pi
WAVE_INTENSITY = 1.0 / (4.0 * math.pi)
NODAL_INTENSITY = 1.0 / (2.0 * math.sqrt(2.0))


# -- Helpers ----------------------------------------------------------------


def _rice_kernel():
    return KernelSpec.trig([(1.0, [1.0]), (1.0, [3.0])])


def _rice_field():
    return FieldSpec(1, (_rice_kernel(),))


def _single_wave_field():
    return FieldSpec(1, (KernelSpec.trig([(1.0, [1.0])]),))


def _kac_field():
    return FieldSpec(1, (KernelSpec.polynomial([(1.0, 0), (1.0, 1), (1.0, 2)]),))


def _circular_kernel(n_atoms=64):
    step = 2.0 * math.pi / n_atoms
    atoms = [
        (1.0 / n_atoms, [math.cos(m * step), math.sin(m * step)])
        for m in range(n_atoms)
    ]
    return KernelSpec.trig(atoms)


def _wave_field(k):
    return FieldSpec(2, tuple(_circular_kernel() for _ in range(k)))


def _aniso_kernel():
    return KernelSpec.trig(
        [(0.8, [1.0, 0.3]), (0.5, [0.7, -1.1]), (1.2, [2.0, 0.5])]
    )


def _fd_gradient_covariance(spec, t, h=1e-4):
    """Central finite differences of rho(s,u) = r(s,u)/sqrt(r(s,s) r(u,u))."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    d = t.shape[0]

    def rho(s, u):
        return covariance(spec, s, u) / math.sqrt(
            covariance(spec, s, s) * covariance(spec, u, u)
        )

    out = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            ei = np.zeros(d)
            ej = np.zeros(d)
            ei[i] = h
            ej[j] = h
            out[i, j] = (
                rho(t + ei, t + ej)
                - rho(t + ei, t - ej)
                - rho(t - ei, t + ej)
                + rho(t - ei, t - ej)
            ) / (4.0 * h * h)
    return out


# == 1. Kernel and field validation =========================================


class TestSpecValidation:
    def test_atom_weight_must_be_positive(self):
        with pytest.raises(OutOfRange):
            KernelSpec.trig([(0.0, [1.0])])
        with pytest.raises(OutOfRange):
            KernelSpec.polynomial([(-1.0, 2)])

    def test_poly_degree_nonnegative(self):
        with pytest.raises(OutOfRange):
            KernelSpec.polynomial([(1.0, -1)])

    def test_kernel_needs_atoms(self):
        with pytest.raises(OutOfRange):
            KernelSpec.trig([])

    def test_kernel_kind_checked(self):
        # a non-string kind must not reach the kind lookup as an unhashable key
        for kind in ["spline", ["trig"], {}, 1, None]:
            with pytest.raises(OutOfRange, match="kind"):
                KernelSpec(kind, [1.0], [[1.0]])

    def test_trig_atoms_must_agree_on_dim(self):
        with pytest.raises(DimensionMismatch):
            KernelSpec.trig([(1.0, [1.0]), (1.0, [1.0, 2.0])])

    def test_more_components_than_dims_rejected(self):
        with pytest.raises(DimensionMismatch):
            FieldSpec(1, (_rice_kernel(), _rice_kernel()))

    def test_polynomial_kernels_are_one_dimensional(self):
        with pytest.raises(DimensionMismatch):
            FieldSpec(2, (KernelSpec.polynomial([(1.0, 1)]), _circular_kernel()))

    def test_component_dim_must_match_field(self):
        with pytest.raises(DimensionMismatch):
            FieldSpec(2, (_rice_kernel(),))

    def test_covariance_closed_forms(self):
        assert covariance(_rice_kernel(), 0.7, 0.2) == approx(
            math.cos(0.5) + math.cos(1.5), rel=1e-14
        )
        kac = _kac_field().components[0]
        s, t = 0.3, -1.1
        assert covariance(kac, s, t) == approx(
            1.0 + s * t + (s * t) ** 2, rel=1e-14
        )



# each invalid kernel input with the error class it raises, both through
# KernelSpec.trig / KernelSpec.polynomial and through field_from_json
INVALID_TRIG = [
    ([(0.0, [1.0])], OutOfRange),
    ([(-1.0, [1.0])], OutOfRange),
    ([(math.inf, [1.0])], OutOfRange),
    ([(math.nan, [1.0])], OutOfRange),
    ([(True, [1.0])], OutOfRange),
    ([("1.0", [1.0])], OutOfRange),
    ([(1.0, [1.0]), (1.0, [1.0, 2.0])], DimensionMismatch),
    ([(1.0, [[1.0]])], DimensionMismatch),
    ([(1.0, [[1.0]]), (1.0, [1.0])], DimensionMismatch),
    ([(1.0, [math.inf])], OutOfRange),
    ([(1.0, [math.nan])], OutOfRange),
    ([(1.0, [1.0, [2.0]])], OutOfRange),
    ([], OutOfRange),
]
INVALID_POLY = [
    ([(0.0, 1)], OutOfRange),
    ([(-1.0, 1)], OutOfRange),
    ([(math.inf, 1)], OutOfRange),
    ([(math.nan, 1)], OutOfRange),
    ([(True, 1)], OutOfRange),
    ([("2", 1)], OutOfRange),
    ([(1.0, -1)], OutOfRange),
    ([(1.0, True)], OutOfRange),
    ([(1.0, 0), (1.0, True)], OutOfRange),
    ([(1.0, 2.0)], OutOfRange),
    ([(1.0, "2")], OutOfRange),
    ([], OutOfRange),
]


def _field_obj(kind, atoms):
    key = "omega" if kind == "trig" else "degree"
    atoms = [{"w": w, key: v} for w, v in atoms]
    return {"dim": 1, "components": [{"kind": kind, "atoms": atoms}]}


class TestKernelArrays:
    @pytest.mark.parametrize("atoms, error", INVALID_TRIG)
    def test_invalid_trig_input(self, atoms, error):
        with pytest.raises(error):
            KernelSpec.trig(atoms)
        with pytest.raises(error):
            field_from_json(_field_obj("trig", atoms))

    @pytest.mark.parametrize("atoms, error", INVALID_POLY)
    def test_invalid_polynomial_input(self, atoms, error):
        with pytest.raises(error):
            KernelSpec.polynomial(atoms)
        with pytest.raises(error):
            field_from_json(_field_obj("polynomial", atoms))

    @pytest.mark.parametrize("kind, atom", [("trig", ([1.0], [1.0])), ("polynomial", ([2.0], 1))])
    def test_array_weight_is_out_of_range(self, kind, atom):
        # float() of a 1-element array raised TypeError under numpy 2
        build = KernelSpec.trig if kind == "trig" else KernelSpec.polynomial
        with pytest.raises(OutOfRange, match="weight"):
            build([atom])
        with pytest.raises(OutOfRange, match="weight"):
            field_from_json(_field_obj(kind, [atom]))

    def test_arrays_read_only(self):
        trig, poly = _aniso_kernel(), _kac_field().components[0]
        assert trig.table.shape == (3, 2)
        assert poly.table.tolist() == [0, 1, 2]
        for a in (trig.weights, trig.table, poly.weights, poly.table):
            assert not a.flags.writeable

    def test_one_table_per_kind(self):
        with pytest.raises(DimensionMismatch):
            KernelSpec("trig", [1.0, 2.0], [[1.0]])

    def test_scaled_keeps_the_tables(self):
        kac = _kac_field().components[0].scaled(3.0)
        assert kac.weights.tolist() == [3.0, 3.0, 3.0]
        assert kac.table.tolist() == [0, 1, 2]
        with pytest.raises(OutOfRange):
            kac.scaled(0.0)


class TestSpecEquality:
    def test_kernels_compare_by_value(self):
        poly = lambda w: KernelSpec.polynomial([(1.0, 0), (w, 1)])
        trig = lambda w: KernelSpec.trig([(1.0, [1.0, 0.0]), (w, [0.0, 1.0])])
        assert poly(1.0) == poly(1.0) and trig(1.0) == trig(1.0)
        assert poly(1.0) != poly(2.0) and trig(1.0) != trig(2.0)
        assert poly(1.0) != KernelSpec.polynomial([(1.0, 0), (1.0, 2)])
        assert KernelSpec.trig([(1.0, [1.0])]) != KernelSpec.polynomial([(1.0, 1)])

    def test_fields_compare_by_value(self):
        comp = lambda w: KernelSpec.trig([(1.0, [1.0, 0.0]), (w, [0.0, 1.0])])
        assert FieldSpec(2, (comp(1.0), comp(2.0))) == FieldSpec(2, (comp(1.0), comp(2.0)))
        assert FieldSpec(2, (comp(1.0), comp(2.0))) != FieldSpec(2, (comp(1.0), comp(1.0)))
        assert FieldSpec(2, (comp(1.0),)) != FieldSpec(2, (comp(1.0), comp(1.0)))

    def test_regions_compare_by_value(self):
        assert Region([0, 0], [1, 1]) == Region([0.0, 0.0], [1.0, 1.0])
        assert Region([0, 0], [1, 1]) != Region([0, 0], [1, 2])
        assert Region([0], [1]) != Region([0, 0], [1, 1])
        assert Region([0], [1]) != ([0], [1])


class TestRegion:
    def test_volume_and_midpoint(self):
        r = Region([0.0, -1.0], [2.0, 3.0])
        assert r.volume == approx(8.0)
        assert np.allclose(r.midpoint, [1.0, 1.0])

    def test_half_open_membership(self):
        r = Region([0.0], [1.0])
        inside = r.contains(np.array([[0.0], [0.5], [1.0]]))
        assert inside.tolist() == [True, True, False]

    def test_ordering_enforced(self):
        with pytest.raises(OutOfRange):
            Region([1.0], [1.0])
        with pytest.raises(OutOfRange):
            Region([2.0], [1.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Region([0.0, 0.0], [1.0])

    # a side of 2e308 made the Rice experiment a silent 0.0 +- 0.0; sides of
    # 1e-200 made the volume 0, so measure read 0.0 +- 0.0 and compare
    # divided by it
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "lower, upper",
        [([-1e308], [1e308]), ([0.0, 0.0], [1e200, 1e200]),
         ([0.0, 0.0], [1e-200, 1e-200]), ([0.0], [1e-310])],
        ids=["side", "volume", "zero_volume", "subnormal_volume"],
    )
    def test_side_and_volume_must_be_finite(self, lower, upper):
        with pytest.raises(OutOfRange, match="region"):
            Region(lower, upper)
        assert Region([-1e307], [1e307]).volume == 2e307
        tiny = np.finfo(float).tiny
        assert Region([0.0], [tiny]).volume == tiny


# == 2. gradient_covariance =================================================


class TestGradientCovariance:
    def test_single_wave(self):
        c = gradient_covariance(_single_wave_field().components[0], 0.0)
        assert c.entries[0, 0] == approx(1.0, rel=1e-14)

    def test_rice_spectrum(self):
        c = gradient_covariance(_rice_kernel(), 0.0)
        assert c.entries[0, 0] == approx(5.0, rel=1e-14)

    def test_poly_kernel_at_origin(self):
        spec = KernelSpec.polynomial([(1.0, 0), (1.0, 1)])  # r = 1 + s t
        c = gradient_covariance(spec, 0.0)
        assert c.entries[0, 0] == approx(1.0, rel=1e-12)

    def test_circular_spectrum_is_half_identity(self):
        c = gradient_covariance(_circular_kernel(), [0.0, 0.0])
        assert np.allclose(c.entries, 0.5 * np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_finite_differences_trig(self, seed):
        rng = rng_for(seed)
        d = 1 + seed % 2
        atoms = [
            (float(w), list(om))
            for w, om in zip(
                rng.uniform(0.3, 1.5, size=3), rng.uniform(-2.0, 2.0, size=(3, d))
            )
        ]
        spec = KernelSpec.trig(atoms)
        t = rng.uniform(-1.0, 1.0, size=d)
        exact = gradient_covariance(spec, t).entries
        fd = _fd_gradient_covariance(spec, t)
        assert np.allclose(fd, exact, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_finite_differences_poly(self, seed):
        rng = rng_for(seed)
        weights = rng.uniform(0.5, 1.5, size=3)
        spec = KernelSpec.polynomial(
            [(float(w), j) for j, w in enumerate(weights)]
        )
        t = float(rng.uniform(-1.5, 1.5))
        exact = gradient_covariance(spec, t).entries
        fd = _fd_gradient_covariance(spec, t)
        assert np.allclose(fd, exact, rtol=1e-6, atol=1e-6)

    def test_degenerate_variance(self):
        spec = KernelSpec.polynomial([(1.0, 1)])  # r(0,0) = 0
        with pytest.raises(DegenerateVariance):
            gradient_covariance(spec, 0.0)

    def test_degenerate_gradient(self):
        # a single planar frequency leaves grad X supported on a line
        spec = KernelSpec.trig([(1.0, [1.0, 0.0])])
        with pytest.raises(DegenerateGradient):
            gradient_covariance(spec, [0.0, 0.0])

    def test_stationary_kernels_are_t_independent(self):
        rng = rng_for(0)
        for spec in (_rice_kernel(), _aniso_kernel()):
            d = spec.dim
            base = gradient_covariance(spec, np.zeros(d)).entries
            for _ in range(10):
                t = rng.uniform(-7.0, 7.0, size=d)
                assert np.abs(gradient_covariance(spec, t).entries - base).max() <= 1e-12

    def test_gradient_ellipsoids(self):
        field = _wave_field(2)
        es = gradient_ellipsoids(field, [0.0, 0.0])
        assert len(es) == 2
        for e in es:
            assert isinstance(e, Ellipsoid)
            assert np.allclose(e.sigma.entries, 0.5 * np.eye(2), atol=1e-14)


# == 3. zero_intensity ======================================================


class TestZeroIntensity:
    def test_rice_exact_path(self):
        est = zero_intensity(_rice_field(), 0.0, seed=1)
        assert est.mean == approx(RICE_INTENSITY, rel=1e-12)
        assert est.std_error == 0.0

    def test_exact_path_validates_ci_level(self):
        # the Monte Carlo path always raised here; the closed form returned 1.5
        with pytest.raises(OutOfRange):
            zero_intensity(_rice_field(), 0.0, seed=1, ci_level=1.5)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rice_monte_carlo_route(self, seed):
        est = zero_intensity(_rice_field(), 0.0, 100_000, seed, exact=False)
        assert abs(est.mean - RICE_INTENSITY) <= 3.0 * est.std_error
        assert est.std_error > 0.0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_planar_wave_pair(self, seed):
        est = zero_intensity(_wave_field(2), [0.0, 0.0], 100_000, seed)
        assert abs(est.mean - WAVE_INTENSITY) <= 3.0 * est.std_error

    def test_nodal_intensity_exact_path(self):
        est = zero_intensity(_wave_field(1), [0.0, 0.0], seed=2)
        assert est.mean == approx(NODAL_INTENSITY, rel=1e-10)
        assert est.std_error == 0.0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_nodal_intensity_monte_carlo_route(self, seed):
        est = zero_intensity(_wave_field(1), [0.0, 0.0], 100_000, seed, exact=False)
        assert abs(est.mean - NODAL_INTENSITY) <= 3.0 * est.std_error

    def test_exact_refused_for_anisotropic_gradient(self):
        field = FieldSpec(2, (_aniso_kernel(),))
        with pytest.raises(OutOfRange):
            zero_intensity(field, [0.0, 0.0], 1000, seed=0, exact=True)

    def test_anisotropic_intensity_vs_planar_oracle(self):
        # d=2, k=1: the constant (2)_1/((2 pi) kappa_1) = 1/(2 pi), so the
        # intensity is V_2(E, B)/(2 pi) with E the gradient ellipsoid; V_2
        # comes from the deterministic support-function oracle
        field = FieldSpec(2, (_aniso_kernel(),))
        c = gradient_covariance(_aniso_kernel(), [0.0, 0.0])
        target = mixed_area_oracle(
            SupportBody2D.from_ellipsoid(Ellipsoid(c)),
            SupportBody2D.from_disk(1.0),
            4096,
        ) / (2.0 * math.pi)
        est = zero_intensity(field, [0.0, 0.0], 200_000, seed=3)
        assert abs(est.mean - target) <= 3.0 * est.std_error

    def test_weight_rescaling_is_a_no_op(self):
        # C = H/s^2 - g g^T/s^4 is invariant under w -> c w; with c = 4 the
        # float arithmetic is exact, so the whole estimate is bit-identical
        base = FieldSpec(2, (_aniso_kernel(),))
        scaled = FieldSpec(2, (_aniso_kernel().scaled(4.0),))
        a = zero_intensity(base, [0.0, 0.0], 50_000, seed=4, exact=False)
        b = zero_intensity(scaled, [0.0, 0.0], 50_000, seed=4, exact=False)
        assert a.mean == b.mean
        assert a.std_error == b.std_error

    def test_weight_rescaling_non_dyadic(self):
        base = FieldSpec(2, (_aniso_kernel(),))
        scaled = FieldSpec(2, (_aniso_kernel().scaled(3.0),))
        a = zero_intensity(base, [0.0, 0.0], 50_000, seed=5, exact=False)
        b = zero_intensity(scaled, [0.0, 0.0], 50_000, seed=5, exact=False)
        assert b.mean == approx(a.mean, rel=1e-12)


class TestScaleFreeVarianceFloor:
    """sigma^2 is compared with VARIANCE_FLOOR times the largest weight, so
    weights scaled far below the floor by a power of 2 give the bits of
    unit weights; an absolute floor rejected all of these fields."""

    @pytest.mark.parametrize(
        "field, scales",
        [
            (_rice_field(), (2.0**-44, 2.0**-990)),
            (_wave_field(2), (2.0**-44, 2.0**-990)),
            (FieldSpec(2, (_aniso_kernel(),)), (2.0**-44, 2.0**-990)),
            (_kac_field(), (2.0**-44,)),
        ],
        ids=["rice", "wave_pair", "aniso", "kac"],
    )
    def test_intensity_and_measure_bit_identical_to_unit_weights(self, field, scales):
        t = np.full(field.dim, 0.5)
        region = Region(np.full(field.dim, -2.0), np.full(field.dim, 3.0))

        def results(f):
            runs = (zero_intensity(f, t, 20_000, seed=6), expected_zero_measure(f, region, 20_000, seed=6))
            return [(e.mean, e.std_error, e.n_samples) for e in runs]

        unit = results(field)
        for scale in scales:
            scaled = FieldSpec(field.dim, tuple(c.scaled(scale) for c in field.components))
            assert max(np.max(c.weights) for c in scaled.components) < fields.VARIANCE_FLOOR
            assert results(scaled) == unit


# == 4. expected_zero_measure ===============================================


class TestExpectedZeroMeasure:
    def test_single_wave_full_period(self):
        # a cos t + b sin t has exactly two zeros per period
        est = expected_zero_measure(
            _single_wave_field(), Region([0.0], [2.0 * math.pi]), seed=1
        )
        assert est.mean == approx(2.0, rel=1e-12)
        assert est.std_error == 0.0

    def test_rice_window(self):
        est = expected_zero_measure(_rice_field(), Region([0.0], [100.0]), seed=2)
        assert est.mean == approx(100.0 * RICE_INTENSITY, rel=1e-12)

    def test_stationary_measure_is_intensity_times_volume(self):
        region = Region([0.0, 0.0], [10.0, 10.0])
        measure = expected_zero_measure(_wave_field(2), region, 50_000, seed=6)
        intensity = zero_intensity(_wave_field(2), region.midpoint, 50_000, seed=6)
        assert measure.mean == approx(100.0 * intensity.mean, rel=1e-14)
        assert abs(measure.mean - 100.0 * WAVE_INTENSITY) <= 3.0 * measure.std_error

    def test_kac_against_root_counting_oracle(self):
        est = expected_zero_measure(
            _kac_field(), Region([-5.0], [5.0]), seed=3, quadrature_order=32
        )
        oracle_mean, oracle_se = quadratic_root_count_oracle(200_000, seed=333)
        gap = abs(est.mean - oracle_mean)
        assert gap <= 3.0 * math.hypot(est.std_error, oracle_se)

    def test_kac_quadrature_error_budget(self):
        est32 = expected_zero_measure(
            _kac_field(), Region([-5.0], [5.0]), seed=0, quadrature_order=32
        )
        est64 = expected_zero_measure(
            _kac_field(), Region([-5.0], [5.0]), seed=0, quadrature_order=64
        )
        assert est32.std_error >= 0.0
        # the reported value is already the doubled-order quadrature, so
        # pushing the order further moves it by less than the budget
        assert abs(est64.mean - est32.mean) <= max(est32.std_error, 1e-9)

    def test_quadrature_order_is_bounded(self):
        # order 100000 asked for 74.5 GiB: a MemoryError
        for order in (0, fields.QUADRATURE_LIMIT + 1):
            with pytest.raises(OutOfRange, match="quadrature order"):
                expected_zero_measure(
                    _kac_field(), Region([-5.0], [5.0]), seed=0, quadrature_order=order
                )

    @pytest.mark.parametrize(
        "field, region",
        [(_rice_field(), Region([0.0], [10.0])), (_wave_field(2), Region([0.0, 0.0], [6.0, 6.0]))],
        ids=["stationary_1d", "stationary_2d"],
    )
    @pytest.mark.parametrize("order", [0, fields.QUADRATURE_LIMIT + 1])
    def test_stationary_quadrature_order_is_bounded(self, field, region, order):
        # a stationary field needs no quadrature, and returned a value at any order
        with pytest.raises(OutOfRange, match="quadrature order"):
            expected_zero_measure(field, region, n=4096, seed=0, quadrature_order=order)

    def test_overflowing_moments_raise_out_of_range(self):
        # a frequency of 1e200 overflows H = sum w omega omega^T: a numpy
        # warning, then "matrix has a non-finite entry"
        spec = KernelSpec.trig([(1.0, [1e200]), (1.0, [1.0])])
        with np.errstate(all="raise"):
            with pytest.raises(OutOfRange, match=r"^field moments overflow a double at t=\[1.0\]$"):
                gradient_covariance(spec, 1.0)

    def test_region_dim_checked(self):
        with pytest.raises(DimensionMismatch):
            expected_zero_measure(
                _rice_field(), Region([0.0, 0.0], [1.0, 1.0]), seed=0
            )

    def test_legendre_rule_cached_and_read_only(self):
        fields._legendre_rule.cache_clear()
        region = Region([-5.0], [5.0])
        first, *later = (
            expected_zero_measure(_kac_field(), region, seed=0, quadrature_order=32)
            for _ in range(3)
        )
        for est in later:
            assert float.hex(est.mean) == float.hex(first.mean)
            assert float.hex(est.std_error) == float.hex(first.std_error)
        info = fields._legendre_rule.cache_info()
        assert (info.misses, info.hits) == (2, 4)  # orders 32 and 64
        x, w = fields._legendre_rule(32)
        want_x, want_w = np.polynomial.legendre.leggauss(32)
        assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
        for a in (x, w):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0


# == 5. simulate_realization ================================================


@pytest.fixture(scope="module")
def rice_batch():
    """10^5 Rice realizations evaluated at t=0: values and derivatives."""
    field = _rice_field()
    n = 100_000
    vals = np.empty(n)
    grads = np.empty(n)
    for i in range(n):
        r = simulate_realization(field, RngStream(777, i))
        vals[i] = r.values(0.0)[0, 0]
        grads[i] = r.jacobians(0.0)[0, 0, 0]
    return vals, grads


class TestSimulateRealization:
    def test_bit_identical_for_fixed_stream(self):
        field = _wave_field(2)
        a = simulate_realization(field, RngStream(5, 9))
        b = simulate_realization(field, RngStream(5, 9))
        for x, y in zip(a.coefficients, b.coefficients):
            assert np.array_equal(x, y)

    def test_streams_differ(self):
        field = _rice_field()
        a = simulate_realization(field, RngStream(5, 0))
        b = simulate_realization(field, RngStream(5, 1))
        assert not np.array_equal(a.coefficients[0], b.coefficients[0])

    def test_coefficient_shapes(self):
        r = simulate_realization(_wave_field(2), RngStream(0, 0))
        assert [c.shape for c in r.coefficients] == [(64, 2), (64, 2)]
        p = simulate_realization(_kac_field(), RngStream(0, 0))
        assert [c.shape for c in p.coefficients] == [(3,)]

    @pytest.mark.parametrize(
        "field",
        [
            FieldSpec(2, (_aniso_kernel(), _aniso_kernel().scaled(3.0))),
            FieldSpec(1, (KernelSpec.polynomial([(1.0, 0), (0.25, 1), (4.0, 3)]),)),
        ],
        ids=["trig", "polynomial"],
    )
    def test_draw_order_and_scaling(self, field):
        # realization i of seed s: per component, (A, 2) trig or (A,)
        # polynomial normals from stream (s, i), atom a's times sqrt(w_a);
        # the chunked draw of the experiments gives the same blocks
        chunk = fields._chunk_coefficients(field, 13, 0, 3)
        for i in range(3):
            gen = RngStream(13, i).generator()
            r = simulate_realization(field, RngStream(13, i))
            for c, spec in enumerate(field.components):
                root = np.sqrt(spec.weights)
                if spec.kind == "trig":
                    want = gen.standard_normal((root.size, 2)) * root[:, None]
                else:
                    want = gen.standard_normal(root.size) * root
                assert np.array_equal(r.coefficients[c], want)
                assert np.array_equal(chunk[c][i], want)

    @pytest.mark.parametrize("size", [1, 3])
    def test_chunk_ending_at_the_last_stream(self, size):
        field = FieldSpec(2, (_aniso_kernel(), _aniso_kernel().scaled(3.0)))
        start = 2**64 - size
        chunk = fields._chunk_coefficients(field, 2**64 - 1, start, size)
        for i in range(size):
            gen = RngStream(2**64 - 1, start + i).generator()
            for c, spec in enumerate(field.components):
                want = gen.standard_normal(spec.weights.shape + (2,)) * np.sqrt(spec.weights)[:, None]
                assert np.array_equal(chunk[c][i], want)

    @pytest.mark.parametrize("start, size", [(2**64 - 2, 3), (2**64, 1), (-1, 2)])
    def test_chunk_past_the_streams_raises_before_any_draw(self, start, size, monkeypatch):
        # every draw follows a re-key that succeeded
        rekey, rekeyed = fields.rekey, []

        def recorded(gen, seed, index):
            rekey(gen, seed, index)
            rekeyed.append(index)
            return gen

        monkeypatch.setattr(fields, "rekey", recorded)
        with pytest.raises(OutOfRange, match="stream_index"):
            fields._chunk_coefficients(_rice_field(), 5, start, size)
        assert rekeyed == []

    def test_wrong_block_shape_rejected(self):
        field = _rice_field()
        with pytest.raises(DimensionMismatch):
            Realization(field, (np.zeros((2, 3)),))
        with pytest.raises(DimensionMismatch):
            Realization(field, (np.zeros((2, 2)), np.zeros((2, 2))))

    def test_variance_lln(self, rice_batch):
        vals, _ = rice_batch
        lam0 = 2.0
        se = lam0 * math.sqrt(2.0 / vals.size)
        assert abs(vals.var() - lam0) <= 3.0 * se

    def test_gradient_variance_lln(self, rice_batch):
        _, grads = rice_batch
        h = 10.0  # sum of w * omega^2
        se = h * math.sqrt(2.0 / grads.size)
        assert abs(grads.var() - h) <= 3.0 * se

    def test_value_gradient_independence(self, rice_batch):
        vals, grads = rice_batch
        cov = float(np.mean(vals * grads))
        se = math.sqrt(2.0 * 10.0 / vals.size)
        assert abs(cov) <= 3.0 * se

    def test_planar_gradient_covariance_lln(self):
        spec = _aniso_kernel()
        field = FieldSpec(2, (spec,))
        h = (spec.weights[:, None, None] *
             spec.table[:, :, None] * spec.table[:, None, :]).sum(axis=0)
        n = 20_000
        vals = np.empty(n)
        grads = np.empty((n, 2))
        for i in range(n):
            r = simulate_realization(field, RngStream(888, i))
            vals[i] = r.values([0.0, 0.0])[0, 0]
            grads[i] = r.jacobians([0.0, 0.0])[0, 0]
        emp = grads.T @ grads / n
        for i in range(2):
            for j in range(2):
                se = math.sqrt((h[i, i] * h[j, j] + h[i, j] ** 2) / n)
                assert abs(emp[i, j] - h[i, j]) <= 3.0 * se
        lam0 = spec.weights.sum()
        for j in range(2):
            se = math.sqrt(lam0 * h[j, j] / n)
            assert abs(float(np.mean(vals * grads[:, j]))) <= 3.0 * se

    def test_jacobian_matches_finite_differences(self):
        rng = rng_for(9)
        field = _wave_field(2)
        r = simulate_realization(field, RngStream(11, 3))
        pts = rng.uniform(0.0, 10.0, size=(5, 2))
        jac = r.jacobians(pts)
        h = 1e-6
        for axis in range(2):
            step = np.zeros(2)
            step[axis] = h
            fd = (r.values(pts + step) - r.values(pts - step)) / (2.0 * h)
            assert np.allclose(jac[:, :, axis], fd, rtol=1e-5, atol=1e-6)

    def test_polynomial_jacobian_is_the_derivative(self):
        # X' = sum c_a deg_a x^(deg_a - 1): degree-0 atoms drop out, x = 0
        # included; dyadic inputs make every product and sum exact
        degrees = [0, 1, 0, 2, 5]
        field = FieldSpec(1, (KernelSpec.polynomial([(1.0, d) for d in degrees]),))
        coef = [3.0, -2.0, 0.75, 0.5, 1.25]
        xs = [0.0, 0.5, -1.5, 2.0, -0.25]
        jac = Realization(field, (np.array(coef),)).jacobians(xs)
        assert jac.shape == (5, 1, 1)
        expected = [sum(c * d * x ** (d - 1) for c, d in zip(coef, degrees) if d > 0) for x in xs]
        assert jac[:, 0, 0].tolist() == expected
        drawn = simulate_realization(field, RngStream(12, 0))
        c = drawn.coefficients[0]
        expected = [sum(c[a] * d * x ** (d - 1) for a, d in enumerate(degrees) if d > 0) for x in xs]
        assert drawn.jacobians(xs)[:, 0, 0] == approx(expected, rel=1e-14, abs=1e-14)

    def test_coupled_weight_scaling_scales_amplitude(self):
        # same stream, weights scaled by 4: the field doubles pointwise,
        # so its zero set is untouched realization by realization
        base = simulate_realization(_rice_field(), RngStream(21, 2))
        scaled_field = FieldSpec(1, (_rice_kernel().scaled(4.0),))
        scaled = simulate_realization(scaled_field, RngStream(21, 2))
        assert np.array_equal(scaled.coefficients[0], 2.0 * base.coefficients[0])
        ts = np.linspace(0.0, 10.0, 101)
        assert np.array_equal(scaled.values(ts), 2.0 * base.values(ts))


# == 6. JSON formats ========================================================


class TestFieldJSON:
    def test_round_trip_trig(self):
        field = _wave_field(2)
        back = field_from_json(field_to_json(field))
        assert back.dim == 2 and back.n_components == 2
        assert np.allclose(
            back.components[0].table, field.components[0].table
        )
        assert np.allclose(back.components[0].weights, field.components[0].weights)

    @pytest.mark.parametrize(
        "obj",
        [
            {"dim": 2, "components": [
                {"kind": "trig", "atoms": [{"w": 0.8, "omega": [1.0, 0.3]}, {"w": 1e-3, "omega": [-0.7, 2.5]}]},
                {"kind": "trig", "atoms": [{"w": 1.25, "omega": [0.0, 1.0]}]},
            ]},
            {"dim": 1, "components": [
                {"kind": "polynomial", "atoms": [{"w": 1.0, "degree": 0}, {"w": 0.5, "degree": 3}]},
            ]},
        ],
    )
    def test_json_round_trip_is_exact(self, obj):
        # compared as text, so a degree cannot come back as a float
        assert json.dumps(field_to_json(field_from_json(obj))) == json.dumps(obj)

    def test_round_trip_poly(self):
        back = field_from_json(field_to_json(_kac_field()))
        assert back.components[0].kind == "polynomial"
        assert back.components[0].table.tolist() == [0, 1, 2]

    def test_unknown_kind_rejected(self):
        for kind in ["wavelet", ["trig"], {}, 1, None]:
            with pytest.raises(OutOfRange, match="kind"):
                field_from_json({"dim": 1, "components": [{"kind": kind, "atoms": []}]})

    def test_extra_keys_rejected(self):
        with pytest.raises(OutOfRange):
            field_from_json({"dim": 1, "components": [], "extra": 1})

    def test_malformed_atom_rejected(self):
        with pytest.raises(OutOfRange):
            field_from_json(
                {
                    "dim": 1,
                    "components": [
                        {"kind": "trig", "atoms": [{"w": 1.0, "degree": 2}]}
                    ],
                }
            )

    @pytest.mark.parametrize(
        "atom", [{"w": "heavy", "omega": [1.0]}, {"w": 1.0, "omega": [1.0, "x"]}]
    )
    def test_non_numeric_atom_rejected(self, atom):
        with pytest.raises(OutOfRange):
            field_from_json({"dim": 1, "components": [{"kind": "trig", "atoms": [atom]}]})

    def test_boolean_dim_rejected(self):
        # JSON true is a Python int, so it used to load as a 1-D field
        obj = field_to_json(_rice_field())
        obj["dim"] = True
        with pytest.raises(OutOfRange):
            field_from_json(obj)

    def test_boolean_degree_rejected(self):
        # JSON true used to load as degree 1
        atom = {"w": 1.0, "degree": True}
        with pytest.raises(OutOfRange):
            field_from_json({"dim": 1, "components": [{"kind": "polynomial", "atoms": [atom]}]})
        with pytest.raises(OutOfRange):
            KernelSpec.polynomial([(1.0, True)])

    @pytest.mark.parametrize(
        "atom",
        [{"w": True, "omega": [True]}, {"w": 1.0, "omega": [True]}, {"w": True, "omega": [1.0]}],
    )
    def test_boolean_trig_atom_rejected(self, atom):
        # used to load as TrigAtom(w=1.0, omega=[1.])
        with pytest.raises(OutOfRange, match="boolean"):
            field_from_json({"dim": 1, "components": [{"kind": "trig", "atoms": [atom]}]})

    @pytest.mark.parametrize(
        "atom",
        [{"w": "1.0", "omega": ["3"]}, {"w": 1.0, "omega": ["3"]}, {"w": "1.0", "omega": [3.0]}],
    )
    def test_numeric_string_trig_atom_rejected(self, atom):
        # numpy reads "3" as 3.0, so this used to load as TrigAtom(w=1.0, omega=[3.])
        with pytest.raises(OutOfRange, match="got a string"):
            field_from_json({"dim": 1, "components": [{"kind": "trig", "atoms": [atom]}]})

    @pytest.mark.parametrize(
        "bounds", [{"lower": ["0"], "upper": [1.0]}, {"lower": [0.0, 0.0], "upper": [1.0, "1e0"]}]
    )
    def test_numeric_string_region_rejected(self, bounds):
        with pytest.raises(OutOfRange, match="got a string"):
            region_from_json(bounds)

    def test_non_numeric_region_rejected(self):
        with pytest.raises(OutOfRange):
            region_from_json({"lower": [0.0, "x"], "upper": [1.0, 1.0]})

    def test_load_from_files(self, tmp_path):
        import json

        fpath = tmp_path / "field.json"
        fpath.write_text(json.dumps(field_to_json(_rice_field())))
        assert load_field(fpath).n_components == 1

        rpath = tmp_path / "region.json"
        rpath.write_text(json.dumps({"lower": [0.0], "upper": [100.0]}))
        region = load_region(rpath)
        assert region.volume == approx(100.0)

    def test_region_round_trip(self):
        r = Region([0.0, -2.0], [1.0, 2.0])
        back = region_from_json(region_to_json(r))
        assert np.array_equal(back.lower, r.lower)
        assert np.array_equal(back.upper, r.upper)

    def test_region_extra_keys_rejected(self):
        with pytest.raises(OutOfRange):
            region_from_json({"lower": [0.0], "upper": [1.0], "grid": 4})
