"""Exact deterministic geometry: SPD matrices, ellipsoids, constants.

Core claims:
- make_spd validates symmetry and positive-definiteness and caches a
  Cholesky factor that reproduces the entries to 1e-10 relative.
- Frozen values (SPD entries, region bounds, point clouds, kernel tables)
  hold a private read-only copy; the caller's array stays writable.
- unit_ball_volume and falling_factorial hit their closed-form values,
  including the recursion kappa_n = kappa_{n-2} * 2 pi / n.
- transform_ellipsoid / project_ellipsoid / support_function satisfy the
  composition, nesting, and covariance identities of the matrix calculus
  A -> L A L^T, A -> C A C^T, h(u) = sqrt(u^T A u).
- The JSON format round-trips and rejects malformed input with the
  module's error names.
"""

import json

import numpy as np
import pytest
from pytest import approx

from mixvol import (
    DimensionMismatch,
    Ellipsoid,
    KernelSpec,
    NonOrthonormalBasis,
    NotPositiveDefinite,
    NotSymmetric,
    NotUnitVector,
    OutOfRange,
    PointCloud,
    Region,
    SingularTransform,
    ball,
    ellipsoid_from_axes,
    ellipsoid_from_json,
    ellipsoid_to_json,
    falling_factorial,
    load_ellipsoids,
    make_spd,
    project_ellipsoid,
    support_function,
    transform_ellipsoid,
    unit_ball,
    unit_ball_volume,
)

from support import SEEDS, random_ellipsoid, random_orthogonal, rng_for


# -- Helpers ----------------------------------------------------------------


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


# == 1. SPDMatrix construction and validation ===============================


class TestMakeSPD:
    def test_identity_factor(self):
        m = make_spd(np.eye(3))
        assert m.dim == 3
        assert np.allclose(m.factor, np.eye(3), atol=1e-14)

    def test_diagonal_factor_is_sqrt(self):
        m = make_spd([[4.0, 0.0], [0.0, 1.0]])
        assert np.allclose(m.factor, [[2.0, 0.0], [0.0, 1.0]], atol=1e-14)

    def test_indefinite_rejected(self):
        # eigenvalues 3 and -1
        with pytest.raises(NotPositiveDefinite):
            make_spd([[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            make_spd([[1.0, 0.5], [0.2, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            make_spd(np.ones((2, 3)))

    def test_dimension_cap(self):
        make_spd(np.eye(16))  # the largest supported dimension
        with pytest.raises(OutOfRange):
            make_spd(np.eye(17))

    def test_empty_rejected(self):
        with pytest.raises(OutOfRange):
            make_spd(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(OutOfRange):
            make_spd([[bad]])
        with pytest.raises(OutOfRange):
            make_spd([[1.0, bad], [bad, 1.0]])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_factor_reproduces_entries(self, seed):
        rng = rng_for(seed)
        for d in (1, 2, 3, 5, 8):
            e = random_ellipsoid(rng, d)
            m = e.sigma
            resid = np.abs(m.factor @ m.factor.T - m.entries)
            scale = max(1.0, np.abs(m.entries).max())
            assert resid.max() <= 1e-10 * scale

    def test_det_and_condition(self):
        m = make_spd(np.diag([9.0, 1.0]))
        assert m.det() == approx(9.0, rel=1e-12)
        assert m.condition_number() == approx(9.0, rel=1e-8)

    def test_entries_are_frozen(self):
        m = make_spd(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    @pytest.mark.parametrize(
        "build, array, stored",
        [
            (make_spd, np.eye(2), lambda m: m.entries),
            (lambda a: Region(a, a + 1.0), np.zeros(2), lambda r: r.lower),
            (PointCloud, np.ones((3, 2)), lambda c: c.points),
            (lambda a: KernelSpec("trig", [1.0], a), np.ones((1, 2)), lambda k: k.table),
        ],
    )
    def test_freezing_keeps_the_callers_array_writable(self, build, array, stored):
        # freeze used to mark the caller's own contiguous float array read-only
        value = build(array)
        before = stored(value).copy()
        array.flat[0] = 5.0
        assert array.flat[0] == 5.0
        assert np.array_equal(stored(value), before)
        assert not stored(value).flags.writeable


# == 2. Constants: ball volumes and falling factorials ======================


class TestConstants:
    def test_ball_volume_values(self):
        assert unit_ball_volume(0) == approx(1.0)
        assert unit_ball_volume(1) == approx(2.0)
        assert unit_ball_volume(2) == approx(np.pi, rel=1e-15)
        assert unit_ball_volume(3) == approx(4.0 * np.pi / 3.0, rel=1e-15)

    def test_ball_volume_recursion(self):
        # kappa_n = kappa_{n-2} * 2 pi / n
        for n in range(2, 17):
            lhs = unit_ball_volume(n)
            rhs = unit_ball_volume(n - 2) * 2.0 * np.pi / n
            assert lhs == approx(rhs, rel=1e-14)

    def test_ball_volume_negative_rejected(self):
        with pytest.raises(OutOfRange):
            unit_ball_volume(-1)

    def test_falling_factorial_values(self):
        assert falling_factorial(5, 2) == 20
        assert falling_factorial(3, 3) == 6
        assert falling_factorial(7, 0) == 1

    def test_falling_factorial_full_is_factorial(self):
        import math

        for d in range(1, 10):
            assert falling_factorial(d, d) == math.factorial(d)

    def test_falling_factorial_range_checks(self):
        with pytest.raises(OutOfRange):
            falling_factorial(3, 4)
        with pytest.raises(OutOfRange):
            falling_factorial(3, -1)


# == 3. Ellipsoid constructors ==============================================


class TestEllipsoidConstructors:
    def test_unit_ball(self):
        e = unit_ball(3)
        assert e.dim == 3
        assert np.allclose(e.sigma.entries, np.eye(3))

    def test_ball_radius(self):
        e = ball(2, 3.0)
        assert np.allclose(e.sigma.entries, 9.0 * np.eye(2))

    def test_from_axes(self):
        e = ellipsoid_from_axes([2.0, 1.0])
        assert np.allclose(e.sigma.entries, np.diag([4.0, 1.0]))

    def test_degenerate_axes_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            ellipsoid_from_axes([1.0, 0.0])


# == 4. Transforms ==========================================================


class TestTransformEllipsoid:
    def test_scaling(self):
        e = transform_ellipsoid(unit_ball(2), 2.0 * np.eye(2))
        assert np.allclose(e.sigma.entries, 4.0 * np.eye(2), atol=1e-12)

    def test_quarter_turn_swaps_axes(self):
        e = Ellipsoid(make_spd(np.diag([1.0, 4.0])))
        out = transform_ellipsoid(e, _rotation(np.pi / 2.0))
        assert np.allclose(out.sigma.entries, np.diag([4.0, 1.0]), atol=1e-12)

    def test_identity(self):
        e = transform_ellipsoid(unit_ball(2), np.eye(2))
        assert np.allclose(e.sigma.entries, np.eye(2))

    def test_singular_rejected(self):
        with pytest.raises(SingularTransform):
            transform_ellipsoid(unit_ball(2), [[1.0, 0.0], [1.0, 0.0]])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_composition(self, seed):
        # transforming by L then M equals transforming by M L
        rng = rng_for(seed)
        for d in (2, 3, 4):
            e = random_ellipsoid(rng, d)
            L = rng.normal(size=(d, d)) + 2.0 * np.eye(d)
            M = rng.normal(size=(d, d)) + 2.0 * np.eye(d)
            two_step = transform_ellipsoid(transform_ellipsoid(e, L), M)
            one_step = transform_ellipsoid(e, M @ L)
            scale = max(1.0, np.abs(one_step.sigma.entries).max())
            gap = np.abs(two_step.sigma.entries - one_step.sigma.entries).max()
            assert gap <= 1e-10 * scale


class TestProjectEllipsoid:
    def test_ball_to_disk(self):
        basis = np.eye(3)[:2]
        e = project_ellipsoid(unit_ball(3), basis)
        assert e.dim == 2
        assert np.allclose(e.sigma.entries, np.eye(2))

    def test_coordinate_projection(self):
        e = Ellipsoid(make_spd(np.diag([1.0, 4.0, 9.0])))
        basis = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        out = project_ellipsoid(e, basis)
        assert np.allclose(out.sigma.entries, np.diag([1.0, 9.0]), atol=1e-12)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_full_orthonormal_preserves_det(self, seed):
        rng = rng_for(seed)
        e = random_ellipsoid(rng, 4)
        q = random_orthogonal(rng, 4)
        out = project_ellipsoid(e, q)
        assert out.sigma.det() == approx(e.sigma.det(), rel=1e-9)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_nested_projection_composes(self, seed):
        # project to 3 coords then to 2 equals projecting once by the product
        rng = rng_for(seed)
        e = random_ellipsoid(rng, 5)
        q = random_orthogonal(rng, 5)
        b1 = q[:3]               # 3 x 5, orthonormal rows
        b2 = np.eye(3)[:2]       # 2 x 3
        two_step = project_ellipsoid(project_ellipsoid(e, b1), b2)
        one_step = project_ellipsoid(e, b2 @ b1)
        assert np.allclose(
            two_step.sigma.entries, one_step.sigma.entries, atol=1e-10
        )

    def test_non_orthonormal_rejected(self):
        with pytest.raises(NonOrthonormalBasis):
            project_ellipsoid(unit_ball(3), np.array([[1.0, 1.0, 0.0]]))


# == 5. Support function ====================================================


class TestSupportFunction:
    def test_unit_ball_is_one(self):
        for u in (np.array([1.0, 0.0]), np.array([0.6, 0.8])):
            assert support_function(unit_ball(2), u) == approx(1.0, rel=1e-12)

    def test_semi_axis(self):
        e = Ellipsoid(make_spd(np.diag([4.0, 1.0])))
        assert support_function(e, [1.0, 0.0]) == approx(2.0, rel=1e-12)

    def test_diagonal_direction(self):
        e = Ellipsoid(make_spd(np.diag([4.0, 1.0])))
        u = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert support_function(e, u) == approx(np.sqrt(2.5), rel=1e-12)

    def test_non_unit_rejected(self):
        with pytest.raises(NotUnitVector):
            support_function(unit_ball(2), [1.0, 1.0])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_transform_covariance(self, seed):
        # h_{L E}(u) = ||L^T u|| * h_E(L^T u / ||L^T u||)
        rng = rng_for(seed)
        for d in (2, 3):
            e = random_ellipsoid(rng, d)
            L = rng.normal(size=(d, d)) + 2.0 * np.eye(d)
            u = rng.normal(size=d)
            u /= np.linalg.norm(u)
            v = L.T @ u
            nv = np.linalg.norm(v)
            lhs = support_function(transform_ellipsoid(e, L), u)
            rhs = nv * support_function(e, v / nv)
            assert lhs == approx(rhs, abs=1e-10 * max(1.0, rhs))


# == 6. JSON round trip =====================================================


class TestEllipsoidJSON:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_round_trip(self, seed):
        rng = rng_for(seed)
        e = random_ellipsoid(rng, 3)
        back = ellipsoid_from_json(json.loads(json.dumps(ellipsoid_to_json(e))))
        assert np.allclose(back.sigma.entries, e.sigma.entries, rtol=1e-15)

    def test_missing_fields_rejected(self):
        with pytest.raises(DimensionMismatch):
            ellipsoid_from_json({"sigma": [[1.0]]})

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            ellipsoid_from_json({"dim": 3, "sigma": [[1.0, 0.0], [0.0, 1.0]]})

    def test_boolean_dim_rejected(self):
        # JSON true is a Python int equal to 1, so it used to load as a 1-D ellipsoid
        with pytest.raises(DimensionMismatch):
            ellipsoid_from_json({"dim": True, "sigma": [[1.0]]})

    def test_float_dim_rejected(self):
        # (2.0, 2.0) == (2, 2), so a float "dim" used to pass the shape check
        with pytest.raises(DimensionMismatch, match="integer"):
            ellipsoid_from_json({"dim": 2.0, "sigma": [[1.0, 0.0], [0.0, 1.0]]})

    @pytest.mark.parametrize(
        "sigma", [[[True, False], [False, True]], [[1.0, 0.0], [0.0, True]]]
    )
    def test_boolean_sigma_rejected(self, sigma):
        # numpy reads true as 1.0, so this used to load as the identity
        with pytest.raises(OutOfRange, match="boolean"):
            ellipsoid_from_json({"dim": 2, "sigma": sigma})

    @pytest.mark.parametrize(
        "sigma", [[["4", "0"], ["0", "1e0"]], [[4.0, 0.0], [0.0, "1"]]]
    )
    def test_numeric_string_sigma_rejected(self, sigma):
        # numpy reads "4" as 4.0, so this used to load as diag(4, 1)
        with pytest.raises(OutOfRange, match="got a string"):
            ellipsoid_from_json({"dim": 2, "sigma": sigma})

    def test_non_numeric_string_keeps_conversion_message(self):
        with pytest.raises(OutOfRange, match="rectangular array of numbers"):
            ellipsoid_from_json({"dim": 2, "sigma": [[4.0, "x"], [0.0, 1.0]]})

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            ellipsoid_from_json({"dim": 2, "sigma": [[1.0, 0.3], [0.1, 1.0]]})

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            ellipsoid_from_json({"dim": 2, "sigma": [[1.0, 2.0], [2.0, 1.0]]})

    def test_load_single_and_array(self, tmp_path):
        single = tmp_path / "one.json"
        single.write_text(json.dumps({"dim": 2, "sigma": [[1.0, 0.0], [0.0, 1.0]]}))
        assert len(load_ellipsoids(single)) == 1

        pair = tmp_path / "two.json"
        pair.write_text(
            json.dumps(
                [
                    {"dim": 2, "sigma": [[4.0, 0.0], [0.0, 1.0]]},
                    {"dim": 2, "sigma": [[1.0, 0.0], [0.0, 1.0]]},
                ]
            )
        )
        es = load_ellipsoids(pair)
        assert [e.dim for e in es] == [2, 2]
        assert es[0].sigma.entries[0, 0] == 4.0

    def test_load_empty_rejected(self, tmp_path):
        bad = tmp_path / "empty.json"
        bad.write_text("[]")
        with pytest.raises(DimensionMismatch):
            load_ellipsoids(bad)
