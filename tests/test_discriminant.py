"""Exact mixed discriminants and Barvinok's two-sided mixed-volume bound.

Core claims:
- The subset-sum polarization reproduces hand values exactly (the d=2 pair
  diag(1,2), diag(3,4) gives 5 with no round-off) and matches a central
  finite-difference evaluation of the derivative definition to 1e-6.
- The discriminant is symmetric in its arguments and multilinear in each.
- A discriminant that overflows a double raises OutOfRange, without a numpy
  warning, and so do the Barvinok bounds built on it.
- mixed_discriminant is expected_gram_determinant at k = d divided by
  2, ..., d, bit for bit (d = 1..8, definite and indefinite): one
  inclusion-exclusion.  Both are exact under power-of-two scaling of their
  inputs up to the top and the bottom of the normal doubles, where the
  subset-sum determinants of the unscaled inputs overflowed or underflowed.
  batch_det carries its product of pivots with its own binary exponent, so
  diag(2^-1000, 2^-1000, 2^1000, 2^1000) gives D = 1 in either order.
- barvinok_bounds sandwiches the Monte Carlo mixed volume for random PD
  tuples in dimensions 2..5.
- expected_gram_determinant, E det(M M^T) for independent Gaussian rows, is
  within its own error bound of exact rational arithmetic for d <= 5 at
  eigenvalue spreads 1, 1e6 and 1e12; at k = d it is d! D_d and at k = 1
  the trace.  At d = 3 and spread 1e12 the mixed discriminants of 20
  shared-eigenbasis triples are positive and within that bound of exact
  arithmetic.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from pytest import approx

import mixvol.discriminant
from mixvol.geometry import batch_det
from mixvol import (
    DimensionMismatch,
    Ellipsoid,
    NegativeDiscriminant,
    NotSymmetric,
    OutOfRange,
    SymmetricTuple,
    barvinok_bounds,
    expected_gram_determinant,
    make_spd,
    mixed_discriminant,
    mixed_volume_full,
    unit_ball,
    unit_ball_volume,
)

from support import (
    SEEDS,
    fd_mixed_discriminant,
    random_ellipsoid,
    random_spd_entries,
    random_symmetric,
    pow2_extremes,
    reference_batch_det,
    rng_for,
    spread_covariances,
)


# == 1. Hand values =========================================================


class TestHandValues:
    def test_equal_arguments_two_dim(self):
        a = np.diag([1.0, 2.0])
        assert mixed_discriminant([a, a]) == 2.0

    def test_pair_of_diagonals_is_exactly_five(self):
        # (det(A+B) - det A - det B) / 2 = (24 - 2 - 12) / 2
        a, b = np.diag([1.0, 2.0]), np.diag([3.0, 4.0])
        assert mixed_discriminant([a, b]) == 5.0

    def test_all_identity_three_dim(self):
        assert mixed_discriminant([np.eye(3)] * 3) == 1.0

    def test_accepts_symmetric_tuple(self):
        t = SymmetricTuple((np.diag([1.0, 2.0]), np.diag([3.0, 4.0])))
        assert mixed_discriminant(t) == 5.0

    def test_off_diagonal_hand_value(self):
        # d=2 closed form: D(A,B) = (a11 b22 + a22 b11 - 2 a12 b12) / 2
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([[1.0, -1.0], [-1.0, 4.0]])
        expected = (2.0 * 4.0 + 3.0 * 1.0 - 2.0 * 1.0 * (-1.0)) / 2.0
        assert mixed_discriminant([a, b]) == approx(expected, rel=1e-14)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_equal_arguments_give_determinant(self, seed):
        rng = rng_for(seed)
        a = random_symmetric(rng, 3)
        assert mixed_discriminant([a, a, a]) == approx(
            np.linalg.det(a), rel=1e-10, abs=1e-12
        )


# == 2. Validation ==========================================================


class TestValidation:
    def test_wrong_matrix_count(self):
        with pytest.raises(DimensionMismatch):
            mixed_discriminant([np.eye(3)] * 2)

    def test_unequal_dims(self):
        with pytest.raises(DimensionMismatch):
            mixed_discriminant([np.eye(2), np.eye(3)])

    def test_asymmetric_rejected(self):
        bad = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(NotSymmetric):
            mixed_discriminant([bad, np.eye(2)])

    def test_dimension_cap(self):
        with pytest.raises(OutOfRange):
            SymmetricTuple(tuple(np.eye(17) for _ in range(17)))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(OutOfRange):
            mixed_discriminant([np.diag([bad, 1.0]), np.eye(2)])

    # D = 1.5e320 at d = 2: the report was inf, and the CLI exited 1 after
    # numpy overflow warnings
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "mats",
        [[np.diag([1e160, 1e160]), np.diag([2e160, 1e160])], [np.eye(3) * 1e103] * 3],
        ids=["d2", "d3"],
    )
    def test_overflowing_value_rejected(self, mats):
        with pytest.raises(OutOfRange, match="mixed discriminant"):
            mixed_discriminant(mats)
        with pytest.raises(OutOfRange, match="mixed discriminant"):
            barvinok_bounds([Ellipsoid(make_spd(m)) for m in mats])
        assert mixed_discriminant([m * 1e-10 for m in mats]) < math.inf

    def test_matrices_are_frozen(self):
        t = SymmetricTuple((np.eye(2), np.eye(2)))
        with pytest.raises(ValueError):
            t.matrices[0][0, 0] = 5.0


# == 3. Algebraic properties ================================================


class TestAlgebraicProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_permutation_symmetry(self, seed):
        rng = rng_for(seed)
        mats = [random_symmetric(rng, 3) for _ in range(3)]
        base = mixed_discriminant(mats)
        scale = max(1.0, abs(base))
        for perm in itertools.permutations(range(3)):
            val = mixed_discriminant([mats[i] for i in perm])
            assert abs(val - base) <= 1e-10 * scale

    @pytest.mark.parametrize("seed", SEEDS)
    def test_multilinearity(self, seed):
        rng = rng_for(seed)
        a, a2 = random_symmetric(rng, 3), random_symmetric(rng, 3)
        rest = [random_symmetric(rng, 3) for _ in range(2)]
        alpha, beta = 1.3, -0.7
        lhs = mixed_discriminant([alpha * a + beta * a2] + rest)
        rhs = alpha * mixed_discriminant([a] + rest) + beta * mixed_discriminant(
            [a2] + rest
        )
        assert lhs == approx(rhs, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_derivative_definition(self, seed):
        # central differences of det(sum lambda_i A_i), step 1e-3
        rng = rng_for(seed)
        mats = [random_symmetric(rng, 3) + 1.5 * np.eye(3) for _ in range(3)]
        exact = mixed_discriminant(mats)
        fd = fd_mixed_discriminant(mats, h=1e-3)
        assert fd == approx(exact, rel=1e-6)


# == 4. Barvinok bounds =====================================================


class TestBarvinokBounds:
    def test_two_unit_balls(self):
        lo, hi = barvinok_bounds([unit_ball(2)] * 2)
        assert lo == approx(math.pi / math.sqrt(3.0), rel=1e-12)
        assert hi == approx(math.pi, rel=1e-12)

    def test_three_unit_balls(self):
        lo, hi = barvinok_bounds([unit_ball(3)] * 3)
        assert lo == approx(4.0 * math.pi / 9.0, rel=1e-12)
        assert hi == approx(4.0 * math.pi / 3.0, rel=1e-12)

    def test_ellipse_and_disk(self):
        e = Ellipsoid(make_spd(np.diag([4.0, 1.0])))
        lo, hi = barvinok_bounds([e, unit_ball(2)])
        root = math.sqrt(2.5)  # D = (4 + 1) / 2
        assert hi == approx(math.pi * root, rel=1e-12)
        assert lo == approx(math.pi * root / math.sqrt(3.0), rel=1e-12)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lower_below_upper(self, seed):
        rng = rng_for(seed)
        for d in (2, 3, 4, 5):
            es = [random_ellipsoid(rng, d) for _ in range(d)]
            lo, hi = barvinok_bounds(es)
            assert 0.0 < lo <= hi

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("d", [2, 3])
    def test_sandwich_contains_mc_estimate(self, seed, d):
        rng = rng_for(seed * 31 + d)
        es = [random_ellipsoid(rng, d) for _ in range(d)]
        lo, hi = barvinok_bounds(es)
        est = mixed_volume_full(es, 50_000, seed=seed)
        assert est.mean + 3.0 * est.std_error >= lo
        assert est.mean - 3.0 * est.std_error <= hi

    def test_wrong_count_rejected(self):
        with pytest.raises(DimensionMismatch):
            barvinok_bounds([unit_ball(3)] * 2)

    def test_negative_discriminant_guard(self, monkeypatch):
        # unreachable through validated PD inputs; the guard must still fire
        monkeypatch.setattr(
            mixvol.discriminant, "mixed_discriminant", lambda t: -1.0
        )
        with pytest.raises(NegativeDiscriminant):
            barvinok_bounds([unit_ball(2)] * 2)

    def test_ball_values_scale_with_dimension(self):
        for d in (2, 3, 4, 5):
            lo, hi = barvinok_bounds([unit_ball(d)] * d)
            kd = unit_ball_volume(d)
            assert hi == approx(kd, rel=1e-12)
            assert lo == approx(kd * 3.0 ** (-(d - 1) / 2.0), rel=1e-12)


# == 5. Exact second moment of the Gram statistic ===========================


def _exact_gram_second_moment(mats):
    """E det(M M^T) in exact arithmetic, by Cauchy-Binet and the permutation
    expansion E det(M_J)^2 = sum over sigma, tau of sgn(sigma) sgn(tau)
    prod_i S_i[J_sigma(i), J_tau(i)]; independent of inclusion-exclusion."""
    k, d = len(mats), mats[0].shape[0]
    # every double is an integer over a power of two: scale to integers
    fracs = [[[Fraction(float(x)) for x in row] for row in m] for m in mats]
    den = max(f.denominator for m in fracs for row in m for f in row)
    ints = [[[int(f * den) for f in row] for row in m] for m in fracs]

    def sign(p):
        return (-1) ** sum(p[i] > p[j] for i in range(k) for j in range(i + 1, k))

    perms = [(p, sign(p)) for p in itertools.permutations(range(k))]
    total = 0
    for cols in itertools.combinations(range(d), k):
        for p, sp in perms:
            for q, sq in perms:
                term = sp * sq
                for i in range(k):
                    term *= ints[i][cols[p[i]]][cols[q[i]]]
                total += term
    return Fraction(total, den**k)


class TestExpectedGramDeterminant:
    @pytest.mark.parametrize("shared", [False, True], ids=["bases", "shared"])
    @pytest.mark.parametrize("spread", [1.0, 1e6, 1e12])
    def test_within_bound_of_exact_arithmetic(self, spread, shared):
        rng = rng_for(int(math.log10(spread)) + 40 * shared)
        for d in range(1, 6):
            for k in range(1, d + 1):
                mats = spread_covariances(rng, d, k, spread, shared)
                value, bound = expected_gram_determinant(mats)
                exact = _exact_gram_second_moment(mats)
                assert abs(Fraction(value) - exact) <= Fraction(bound), (d, k)
                if spread == 1.0:  # the bound is no blanket
                    assert bound <= 1e-12 * value, (d, k)

    def test_shared_basis_triples_at_spread_1e12(self):
        # the 3 x 3 cofactor formula gave 6 of these 20 a negative value;
        # elimination keeps each within expected_gram_determinant's bound
        for s in range(20):
            mats = spread_covariances(rng_for(900 + s), 3, 3, 1e12, True)
            disc = mixed_discriminant(mats)
            exact = _exact_gram_second_moment(mats) / 6
            _, bound = expected_gram_determinant(mats)
            assert disc > 0.0, s
            assert abs(Fraction(disc) - exact) <= Fraction(bound) / 6, s

    @pytest.mark.parametrize("d", range(1, 7))
    def test_full_rank_is_d_factorial_times_discriminant(self, d):
        rng = rng_for(70 + d)
        mats = [random_spd_entries(rng, d) for _ in range(d)]
        value, _ = expected_gram_determinant(mats)
        assert value == approx(math.factorial(d) * mixed_discriminant(mats), rel=1e-13)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_one_row_is_the_trace(self, d):
        s = random_spd_entries(rng_for(80 + d), d)
        assert expected_gram_determinant([s])[0] == np.trace(s)

    def test_singular_minor_has_no_finite_bound(self):
        value, bound = expected_gram_determinant([np.diag([1.0, 0.0])] * 2)
        assert value == 0.0 and bound == math.inf

    @pytest.mark.parametrize(
        "mats",
        [[], [np.eye(2)] * 3, [np.eye(2), np.eye(3)]],
        ids=["empty", "k_above_d", "mixed_dims"],
    )
    def test_bad_shapes_rejected(self, mats):
        with pytest.raises(DimensionMismatch):
            expected_gram_determinant(mats)

    @pytest.mark.parametrize("definite", [True, False], ids=["spd", "indefinite"])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_discriminant_is_the_gram_kernel_over_d_factorial(self, d, definite):
        rng = rng_for(120 + d)
        draw = random_spd_entries if definite else random_symmetric
        mats = [draw(rng, d) for _ in range(d)]
        total = expected_gram_determinant(mats)[0]
        for i in range(2, d + 1):
            total /= i
        assert mixed_discriminant(mats) == total


# == 6. One power-of-two scale ==============================================


class TestPowerOfTwoScale:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_mixed_discriminant(self, d):
        rng = rng_for(130 + d)
        mats = [random_spd_entries(rng, d) for _ in range(d)]
        base = mixed_discriminant(mats)
        for j in pow2_extremes(base, d):
            assert mixed_discriminant([np.ldexp(m, j) for m in mats]) == math.ldexp(base, d * j)

    @pytest.mark.parametrize("d, k", [(1, 1), (3, 2), (4, 4), (8, 3)])
    def test_expected_gram_determinant(self, d, k):
        rng = rng_for(140 + d)
        mats = [random_spd_entries(rng, d) for _ in range(k)]
        value, bound = expected_gram_determinant(mats)
        for j in pow2_extremes(value, k):
            scaled = expected_gram_determinant([np.ldexp(m, j) for m in mats])
            assert scaled == (math.ldexp(value, k * j), math.ldexp(bound, k * j))

    def test_top_of_the_doubles(self):
        # det(2A) = 4e308 overflowed before the inclusion-exclusion cancelled
        a = np.diag([1e154, 1e154])
        assert mixed_discriminant([a, a]) == 1e308
        assert barvinok_bounds([Ellipsoid(make_spd(a))] * 2)[1] == approx(math.pi * 1e154, rel=1e-15)
        assert expected_gram_determinant([np.diag([9e153, 9e153])] * 2)[0] == approx(1.62e308, rel=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_small_entries_keep_their_bits(self):
        # a scale from the largest entry alone would send 1e-200 to 0 and
        # the 8 x 8 determinant to 2^-1170; the scale of the minors keeps
        # det A = 1 and det B = 1e50
        a = np.diag([1e200, 1e-200])
        assert mixed_discriminant([a, a]) == approx(1.0, rel=1e-15)
        assert expected_gram_determinant([a, a])[0] == approx(2.0, rel=1e-15)
        b = np.diag([1e50] + [1.0] * 7)
        assert mixed_discriminant([b] * 8) == approx(1e50, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("order", [1, -1], ids=["small-first", "large-first"])
    def test_pivot_product_keeps_its_exponent(self, order):
        # D = 1, but a running product of the pivots passes 2^-2000 (was
        # 0.0) or 2^2000 (was OutOfRange) before the other pivots arrive
        a = np.diag([2.0**-1000, 2.0**-1000, 2.0**1000, 2.0**1000][::order])
        assert mixed_discriminant([a] * 4) == 1.0
        assert batch_det(np.stack([a, 3.0 * a])).tolist() == [1.0, 81.0]

    @pytest.mark.parametrize("d", [3, 4, 6, 8])
    def test_pivot_product_keeps_the_running_products_bits(self, d):
        # where every partial product of the pivots is a normal double
        rng = rng_for(150 + d)
        stack = rng.standard_normal((400, d, d)) * np.exp(rng.uniform(-20.0, 20.0, size=(400, 1, 1)))
        stack[:100] = stack[:100] + np.swapaxes(stack[:100], 1, 2)
        assert batch_det(stack).tobytes() == reference_batch_det(stack).tobytes()

    def test_entries_past_one_scale_rejected(self):
        # a subnormal entry keeps its bits at e <= 0, which holds 1e300 but
        # not 1e305 below 2^1000
        tiny = np.diag([1e300, 5e-324])
        assert mixed_discriminant([tiny] * 2) == approx(1e300 * 5e-324, rel=1e-15)
        with pytest.raises(OutOfRange, match="span"):
            mixed_discriminant([np.diag([1e305, 5e-324])] * 2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "mats, what",
        [
            ([np.diag([1e200, 1e200])] * 2, "overflows"),
            ([np.diag([1e308, 1e308])], "overflows"),
            ([np.diag([1e-170, 1e-170])] * 2, "underflows"),
            ([np.diag([1e-160, 1e-160])] * 2, "underflows"),
        ],
        ids=["1e200", "1e308", "1e-170", "subnormal"],
    )
    def test_value_outside_the_normal_doubles_rejected(self, mats, what):
        # were (nan, inf), (inf, inf) and (0.0, 0.0), and D = 0.0 silently
        with pytest.raises(OutOfRange, match=what):
            expected_gram_determinant(mats)
        if len(mats) == mats[0].shape[0]:
            with pytest.raises(OutOfRange, match=f"mixed discriminant.*{what}"):
                mixed_discriminant(mats)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bound_past_the_doubles_is_infinite(self):
        # kappa = 1e300: the value is finite, its error bound is not (and
        # overflowed with a numpy warning)
        value, bound = expected_gram_determinant([np.diag([1e200, 1e-100])] * 2)
        assert value == approx(2e100, rel=1e-15) and bound == math.inf
