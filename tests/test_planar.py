"""Planar support-function oracle: areas, mixed areas, Minkowski quadratic.

Core claims:
- Trapezoidal quadrature of (h^2 - h'^2)/2 over the angle grid is spectrally
  accurate: disks are exact to 1e-12 and ellipses to 1e-8 at 4096 nodes.
- mixed_area_oracle agrees with two independent classical computations of
  the half-perimeter of the (2,1)-ellipse: the complete elliptic integral
  and adaptive quadrature of the arclength integrand.
- The fitted Minkowski quadratic has c11/2 equal to the polarization value,
  nonnegative coefficients, and residuals at round-off level.
- Non-convex support inputs are rejected, and an area that overflows a
  double raises OutOfRange without a numpy warning; the area is summed at
  one power-of-two scale, so scaling a body by 2^j scales its area by
  2^(2 j) exactly, up to the edges of the normal doubles.
- Sampling each body once gives bit for bit the values of the composed
  support functions k.add(l) and k.scale(s).add(l.scale(t)), and the same
  NonConvexBody from the same body first.  planar_report gives the mixed
  area, the fit and both areas of those calls and area_from_support from
  one sampling, with the same rejections.
"""

import math

import numpy as np
import pytest
from pytest import approx
from scipy.integrate import quad
from scipy.special import ellipe

from mixvol import (
    DimensionMismatch,
    NonConvexBody,
    OutOfRange,
    SupportBody2D,
    area_from_support,
    ellipsoid_from_axes,
    minkowski_poly_check,
    mixed_area_oracle,
    mixed_volume_full,
    planar_report,
    unit_ball,
)
from mixvol.planar import DEFAULT_SCALES

from support import (
    SEEDS,
    random_ellipsoid,
    reference_minkowski_fit,
    reference_mixed_area,
    pow2_extremes,
    rng_for,
)

HALF_PERIMETER_21 = 4.844224110273838  # ellipse with semi-axes 2, 1


# -- Helpers ----------------------------------------------------------------


def _ellipse_body(a, b):
    return SupportBody2D.from_ellipsoid(ellipsoid_from_axes([a, b]))


def _random_pair(rng):
    return random_ellipsoid(rng, 2), random_ellipsoid(rng, 2)


def _wobbly_body(depth):
    # h = 1 + depth cos(4 theta) has h + h'' = 1 - 15 depth cos(4 theta),
    # convex for depth <= 1/15 and not beyond
    return SupportBody2D(
        h=lambda t: 1.0 + depth * np.cos(4.0 * t),
        h_prime=lambda t: -4.0 * depth * np.sin(4.0 * t),
    )


# == 1. area_from_support ===================================================


class TestAreaFromSupport:
    def test_unit_disk_exact(self):
        assert area_from_support(SupportBody2D.from_disk(1.0)) == approx(
            math.pi, abs=1e-12
        )

    def test_ellipse(self):
        body = _ellipse_body(2.0, 1.0)
        assert area_from_support(body, 4096) == approx(2.0 * math.pi, abs=1e-8)

    def test_radius_three_disk(self):
        assert area_from_support(SupportBody2D.from_disk(3.0)) == approx(
            9.0 * math.pi, abs=1e-12
        )

    def test_minkowski_sum_of_disks(self):
        body = SupportBody2D.from_disk(1.0).add(SupportBody2D.from_disk(2.0))
        assert area_from_support(body) == approx(9.0 * math.pi, abs=1e-10)

    def test_scale_operator(self):
        body = SupportBody2D.from_disk(1.0).scale(2.5)
        assert area_from_support(body) == approx(6.25 * math.pi, abs=1e-10)

    def test_node_count_validation(self):
        body = SupportBody2D.from_disk(1.0)
        with pytest.raises(OutOfRange):
            area_from_support(body, 32)
        with pytest.raises(OutOfRange):
            area_from_support(body, 129)

    def test_nonconvex_rejected(self):
        # h = 1 + 0.5 cos(3 theta) has h + h'' = 1 - 4 cos(3 theta) < 0
        body = SupportBody2D(
            h=lambda t: 1.0 + 0.5 * np.cos(3.0 * t),
            h_prime=lambda t: -1.5 * np.sin(3.0 * t),
        )
        with pytest.raises(NonConvexBody):
            area_from_support(body)

    # h^2 near 1e308 summed over the grid: the report was inf, and the CLI
    # exited 1 after numpy overflow warnings.  The area 9.42e307 of semi-axes
    # 1e154 and 3e153 is finite and returned; ten times those axes overflow.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_area_rejected(self):
        big = _ellipse_body(1e154, 3e153)
        with pytest.raises(OutOfRange, match="area"):
            area_from_support(big.scale(10.0))
        with pytest.raises(OutOfRange, match="area"):
            planar_report(big, big)
        assert area_from_support(big) == approx(math.pi * 1e154 * 3e153, rel=1e-12)
        assert area_from_support(big.scale(1e-10)) < math.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n_theta", [64, 512])
    def test_power_of_two_scale_is_exact(self, n_theta):
        # up to the top and the bottom of the normal doubles, where h^2 of
        # the unscaled samples overflowed or underflowed
        body = _ellipse_body(2.0, 0.75)
        area = area_from_support(body, n_theta)
        for j in pow2_extremes(area, 2):
            assert area_from_support(body.scale(2.0**j), n_theta) == math.ldexp(area, 2 * j)

    def test_three_dim_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            SupportBody2D.from_ellipsoid(unit_ball(3))


# == 2. mixed_area_oracle ===================================================


class TestMixedAreaOracle:
    def test_two_disks(self):
        disk = SupportBody2D.from_disk(1.0)
        assert mixed_area_oracle(disk, disk, 4096) == approx(math.pi, abs=1e-8)

    def test_homogeneity_in_radii(self):
        a = SupportBody2D.from_disk(1.5)
        b = SupportBody2D.from_disk(2.5)
        assert mixed_area_oracle(a, b, 4096) == approx(
            math.pi * 1.5 * 2.5, abs=1e-8
        )

    def test_ellipse_vs_complete_elliptic_integral(self):
        # half-perimeter of the (2,1)-ellipse: 4 a E(e^2), e^2 = 1 - b^2/a^2
        target = 4.0 * 2.0 * ellipe(0.75) / 2.0
        assert target == approx(HALF_PERIMETER_21, abs=1e-12)
        val = mixed_area_oracle(
            _ellipse_body(2.0, 1.0), SupportBody2D.from_disk(1.0), 4096
        )
        assert val == approx(target, abs=1e-6)

    def test_ellipse_vs_arclength_quadrature(self):
        # second independent oracle: adaptive quadrature of the arclength
        arc, err = quad(
            lambda t: math.hypot(2.0 * math.sin(t), math.cos(t)),
            0.0,
            2.0 * math.pi,
            limit=200,
        )
        assert err < 1e-8
        val = mixed_area_oracle(
            _ellipse_body(2.0, 1.0), SupportBody2D.from_disk(1.0), 4096
        )
        assert val == approx(arc / 2.0, abs=1e-6)

    def test_symmetry(self):
        a, b = _ellipse_body(2.0, 1.0), _ellipse_body(1.0, 3.0)
        assert mixed_area_oracle(a, b, 2048) == approx(
            mixed_area_oracle(b, a, 2048), abs=1e-12
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_node_doubling_is_converged(self, seed):
        rng = rng_for(seed)
        e1, e2 = _random_pair(rng)
        a = SupportBody2D.from_ellipsoid(e1)
        b = SupportBody2D.from_ellipsoid(e2)
        coarse = mixed_area_oracle(a, b, 2048)
        fine = mixed_area_oracle(a, b, 4096)
        assert abs(fine - coarse) < 1e-9


# == 3. minkowski_poly_check ================================================


class TestMinkowskiPolyCheck:
    def test_two_disks_coefficients(self):
        disk = SupportBody2D.from_disk(1.0)
        fit = minkowski_poly_check(disk, disk)
        assert fit.c20 == approx(math.pi, abs=1e-8)
        assert fit.c11 == approx(2.0 * math.pi, abs=1e-8)
        assert fit.c02 == approx(math.pi, abs=1e-8)
        assert fit.max_residual < 1e-8

    def test_ellipse_disk_coefficients(self):
        fit = minkowski_poly_check(
            _ellipse_body(2.0, 1.0), SupportBody2D.from_disk(1.0), n_theta=4096
        )
        assert fit.c20 == approx(2.0 * math.pi, abs=1e-6)
        assert fit.c02 == approx(math.pi, abs=1e-6)
        assert fit.mixed_area == approx(HALF_PERIMETER_21, abs=1e-6)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fit_agrees_with_polarization(self, seed):
        rng = rng_for(seed)
        e1, e2 = _random_pair(rng)
        a = SupportBody2D.from_ellipsoid(e1)
        b = SupportBody2D.from_ellipsoid(e2)
        fit = minkowski_poly_check(a, b, n_theta=2048)
        assert fit.mixed_area == approx(
            mixed_area_oracle(a, b, 2048), abs=1e-6
        )
        assert fit.c20 >= 0.0 and fit.c11 >= 0.0 and fit.c02 >= 0.0
        assert fit.max_residual < 1e-8



# == 4. oracle vs Monte Carlo ===============================================


class TestOracleVsMonteCarlo:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mc_matches_oracle(self, seed):
        # two pairs per seed; at most one 3-sigma miss tolerated per seed
        rng = rng_for(seed)
        misses = 0
        for _ in range(2):
            e1, e2 = _random_pair(rng)
            oracle = mixed_area_oracle(
                SupportBody2D.from_ellipsoid(e1),
                SupportBody2D.from_ellipsoid(e2),
                4096,
            )
            est = mixed_volume_full([e1, e2], 100_000, seed=seed)
            misses += abs(est.mean - oracle) > 3.0 * est.std_error
        assert misses <= 1


# == 5. one sampling per body ================================================


def _pairs():
    rng = rng_for(2012)
    e1, e2 = _random_pair(rng)
    ellipse, disk = _ellipse_body(2.0, 1.0), SupportBody2D.from_disk(1.5)
    return {
        "ellipse-ellipse": (SupportBody2D.from_ellipsoid(e1), SupportBody2D.from_ellipsoid(e2)),
        "ellipse-disk": (ellipse, disk),
        "disk-ellipse": (disk, ellipse),
    }


class TestSampledOnce:
    @pytest.mark.parametrize("n_theta", [512, 8192])
    @pytest.mark.parametrize("pair", ["ellipse-ellipse", "ellipse-disk", "disk-ellipse"])
    def test_bit_identical_to_composed_bodies(self, pair, n_theta):
        k, l = _pairs()[pair]
        assert mixed_area_oracle(k, l, n_theta) == reference_mixed_area(k, l, n_theta)
        fit = minkowski_poly_check(k, l, n_theta=n_theta)
        assert fit == reference_minkowski_fit(k, l, DEFAULT_SCALES, n_theta)

    @pytest.mark.parametrize("n_theta", [512, 8192])
    @pytest.mark.parametrize("pair", ["ellipse-ellipse", "ellipse-disk", "disk-ellipse"])
    def test_report_is_the_separate_calls(self, pair, n_theta):
        k, l = _pairs()[pair]
        rep = planar_report(k, l, n_theta)
        assert rep.mixed_area == reference_mixed_area(k, l, n_theta)
        assert rep.fit == reference_minkowski_fit(k, l, DEFAULT_SCALES, n_theta)
        assert rep.area_first == area_from_support(k, n_theta)
        assert rep.area_second == area_from_support(l, n_theta)

    @pytest.mark.parametrize(
        "k, l",
        [
            # K + L, K and the first scale pair all fail; K + L is tested first
            (_wobbly_body(0.5), SupportBody2D.from_disk(1.0)),
            # K + L passes and K fails; three scale pairs pass, the fourth fails
            (_wobbly_body(0.5), SupportBody2D.from_disk(8.0)),
            # K + L and K pass, L fails; the second scale pair fails
            (SupportBody2D.from_disk(8.0), _wobbly_body(0.5)),
        ],
        ids=["sum-first", "first-body", "second-body"],
    )
    def test_same_nonconvex_rejection(self, k, l):
        # the message carries the minimum of h + h'', so it names the body
        with pytest.raises(NonConvexBody) as want:
            reference_mixed_area(k, l, 512)
        with pytest.raises(NonConvexBody) as got:
            mixed_area_oracle(k, l, 512)
        assert str(got.value) == str(want.value)
        with pytest.raises(NonConvexBody) as want:
            reference_minkowski_fit(k, l, DEFAULT_SCALES, 512)
        with pytest.raises(NonConvexBody) as got:
            minkowski_poly_check(k, l, n_theta=512)
        assert str(got.value) == str(want.value)
        # the report tests K + L, K and L before any scale pair
        with pytest.raises(NonConvexBody) as want:
            reference_mixed_area(k, l, 512)
        with pytest.raises(NonConvexBody) as got:
            planar_report(k, l, 512)
        assert str(got.value) == str(want.value)
