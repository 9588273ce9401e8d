"""Mixed volumes, intrinsic volumes, mean width, expected norm, Sudakov width.

Core claims:
- The Gram-determinant estimators reproduce the closed-form targets: ball
  mixed volumes kappa_d, ellipse areas, chi means, segment and circle widths.
- Permutation symmetry, affine equivariance, homogeneity, and the planar
  projection-integral identity hold within combined Monte Carlo error.
- expected_norm's two independent routes (direct averaging vs V_1/sqrt(2 pi))
  agree, and intrinsic volumes do not depend on the ambient dimension.
- Ill-conditioned ellipsoids are rejected rather than estimated; bodies
  whose mixed volume leaves the double range raise OutOfRange instead of a
  NaN standard error or 0 +- 0.
- sudakov_width's cache-sized blocks give the estimate of one unblocked
  product.
"""

import math

import numpy as np
import pytest
from pytest import approx

from mixvol import (
    CHUNK,
    DimensionMismatch,
    Ellipsoid,
    IllConditionedEllipsoid,
    MixedVolumeQuery,
    OutOfRange,
    PointCloud,
    ball,
    chunked_mc_mean,
    ellipsoid_from_axes,
    expected_norm,
    intrinsic_volume,
    make_spd,
    mean_width,
    mixed_area_oracle,
    mixed_volume_full,
    mixed_volume_with_balls,
    project_ellipsoid,
    sudakov_width,
    support_function,
    SupportBody2D,
    transform_ellipsoid,
    unit_ball,
    unit_ball_volume,
)

from support import SEEDS, random_ellipsoid, rng_for

N = 100_000  # module-level sample size; acceptance reruns the headline cases at 10^6


# -- Helpers ----------------------------------------------------------------


def _within(est, target, k=3.0):
    return abs(est.mean - target) <= k * est.std_error


def _chi_mean(d):
    return math.sqrt(2.0) * math.gamma((d + 1) / 2.0) / math.gamma(d / 2.0)


# == 1. mixed_volume_with_balls =============================================


class TestMixedVolumeWithBalls:
    def test_two_unit_balls(self):
        est = mixed_volume_with_balls([unit_ball(2), unit_ball(2)], N, seed=1)
        assert _within(est, math.pi)

    def test_radii_multiply(self):
        est = mixed_volume_with_balls([ball(2, 2.0), ball(2, 3.0)], N, seed=2)
        assert _within(est, 6.0 * math.pi)

    def test_ellipse_against_planar_oracle(self):
        e = ellipsoid_from_axes([2.0, 1.0])
        est = mixed_volume_with_balls([e, unit_ball(2)], N, seed=3)
        oracle = mixed_area_oracle(
            SupportBody2D.from_ellipsoid(e), SupportBody2D.from_disk(1.0), 4096
        )
        assert oracle == approx(4.844224110273838, abs=1e-9)
        assert _within(est, oracle)

    def test_single_ellipsoid_slot_in_r3(self):
        est = mixed_volume_with_balls([unit_ball(3)], N, seed=4)
        assert _within(est, unit_ball_volume(3))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            mixed_volume_with_balls([unit_ball(2), unit_ball(3)], 100, seed=0)

    def test_too_many_bodies_rejected(self):
        with pytest.raises(DimensionMismatch):
            MixedVolumeQuery((unit_ball(2),) * 3)

    def test_ill_conditioned_rejected(self):
        thin = Ellipsoid(make_spd(np.diag([1.0, 1e-14])))
        with pytest.raises(IllConditionedEllipsoid):
            mixed_volume_with_balls([thin, unit_ball(2)], 100, seed=0)


# == 2. mixed_volume_full ===================================================


class TestMixedVolumeFull:
    def test_disk_area(self):
        est = mixed_volume_full([unit_ball(2)] * 2, N, seed=5)
        assert _within(est, math.pi)

    def test_equal_arguments_give_volume(self):
        e = ellipsoid_from_axes([2.0, 1.0])
        est = mixed_volume_full([e, e], N, seed=6)
        assert _within(est, 2.0 * math.pi)

    def test_ball_volume_r3(self):
        est = mixed_volume_full([unit_ball(3)] * 3, N, seed=7)
        assert _within(est, 4.0 * math.pi / 3.0)

    def test_wrong_count_rejected(self):
        with pytest.raises(DimensionMismatch):
            mixed_volume_full([unit_ball(3)] * 2, 100, seed=0)

    def test_huge_balls_have_finite_std_error(self):
        # the squared statistic (~1e360) used to overflow into a NaN std_error
        est = mixed_volume_full([ball(3, 1e60)] * 3, N, seed=31)
        assert math.isfinite(est.std_error) and est.std_error > 0.0
        assert _within(est, 1e180 * unit_ball_volume(3))

    def test_tiny_balls_raise_instead_of_zero(self):
        # the true value ~4e-360 underflows a double; it used to read 0 +- 0
        with pytest.raises(OutOfRange):
            mixed_volume_full([ball(3, 1e-120)] * 3, N, seed=32)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_permutation_symmetry(self, seed):
        rng = rng_for(seed)
        a, b = random_ellipsoid(rng, 2), random_ellipsoid(rng, 2)
        ab = mixed_volume_full([a, b], N, seed=seed)
        ba = mixed_volume_full([b, a], N, seed=seed)
        lo_ab, hi_ab = ab.mean - 3 * ab.std_error, ab.mean + 3 * ab.std_error
        lo_ba, hi_ba = ba.mean - 3 * ba.std_error, ba.mean + 3 * ba.std_error
        assert max(lo_ab, lo_ba) <= min(hi_ab, hi_ba)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_affine_equivariance(self, seed):
        # V(L E_1, .., L E_d) = |det L| V(E_1, .., E_d)
        rng = rng_for(seed)
        d = 2 + seed % 3  # dims 3, 4, 2, 3, 4 across the seed sweep
        es = [random_ellipsoid(rng, d) for _ in range(d)]
        L = rng.normal(size=(d, d)) + 1.5 * np.eye(d)
        det = abs(np.linalg.det(L))
        L *= (rng.uniform(0.5, 2.0) / det) ** (1.0 / d)
        det = abs(np.linalg.det(L))
        base = mixed_volume_full(es, N, seed=seed)
        moved = mixed_volume_full(
            [transform_ellipsoid(e, L) for e in es], N, seed=seed
        )
        ratio = moved.mean / (det * base.mean)
        rel_se = math.hypot(
            moved.std_error / moved.mean, base.std_error / base.mean
        )
        assert abs(ratio - 1.0) <= 3.0 * rel_se

    @pytest.mark.parametrize("seed", SEEDS)
    def test_homogeneity(self, seed):
        # scaling one body by c scales the mixed volume by c
        rng = rng_for(seed)
        a, b = random_ellipsoid(rng, 2), random_ellipsoid(rng, 2)
        c = 1.7
        scaled = mixed_volume_full(
            [transform_ellipsoid(a, c * np.eye(2)), b], N, seed=seed
        )
        base = mixed_volume_full([a, b], N, seed=seed)
        gap = abs(scaled.mean - c * base.mean)
        assert gap <= 3.0 * math.hypot(scaled.std_error, c * base.std_error)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_projection_integral_identity(self, seed):
        # average over unit directions of Vol_1(P_u E) = 2 h(u_perp)
        # equals (kappa_1/kappa_2) * V_2(E, B)
        rng = rng_for(seed)
        e = random_ellipsoid(rng, 2)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=100_000)
        perp = np.stack([-np.sin(theta), np.cos(theta)], axis=1)
        s = e.sigma.entries
        h = np.sqrt(np.einsum("ni,ij,nj->n", perp, s, perp))
        lhs = float(2.0 * h.mean())
        v2 = mixed_volume_with_balls([e], 200_000, seed=seed)
        rhs = (unit_ball_volume(1) / unit_ball_volume(2)) * v2.mean
        assert lhs == approx(rhs, rel=0.01)


# == 3. intrinsic_volume and mean_width =====================================


class TestIntrinsicVolume:
    def test_disk_v1(self):
        est = intrinsic_volume(unit_ball(2), 1, N, seed=8)
        assert _within(est, math.pi)

    def test_top_order_is_volume(self):
        est = intrinsic_volume(unit_ball(3), 3, N, seed=9)
        assert _within(est, unit_ball_volume(3))

    def test_ellipse_v2(self):
        est = intrinsic_volume(ellipsoid_from_axes([2.0, 1.0]), 2, N, seed=10)
        assert _within(est, 2.0 * math.pi)

    def test_order_out_of_range(self):
        with pytest.raises(OutOfRange):
            intrinsic_volume(unit_ball(2), 0, 100, seed=0)
        with pytest.raises(OutOfRange):
            intrinsic_volume(unit_ball(2), 3, 100, seed=0)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ambient_dimension_independence(self, seed):
        # V_1 of a planar ellipse must not change when the ellipse is
        # embedded in R^3 with a near-degenerate third axis
        rng = rng_for(seed)
        a, b = rng.uniform(0.5, 2.0, size=2)
        flat = intrinsic_volume(ellipsoid_from_axes([a, b]), 1, 200_000, seed=seed)
        embedded = intrinsic_volume(
            ellipsoid_from_axes([a, b, 1e-4]), 1, 200_000, seed=seed + 100
        )
        assert embedded.mean == approx(flat.mean, rel=0.01)


class TestMeanWidth:
    def test_disk(self):
        est = mean_width(unit_ball(2), N, seed=11)
        assert _within(est, 2.0)

    def test_ball_r3(self):
        est = mean_width(unit_ball(3), N, seed=12)
        assert _within(est, 2.0)

    def test_thin_ellipse_approaches_segment(self):
        # a segment of length 2 in the plane has mean width (2/pi)*2
        est = mean_width(ellipsoid_from_axes([1.0, 1e-3]), 200_000, seed=13)
        assert est.mean == approx(4.0 / math.pi, rel=0.01)


# == 4. expected_norm =======================================================


class TestExpectedNorm:
    @pytest.mark.parametrize(
        "d,seed", [(1, 14), (2, 15), (3, 16)]
    )
    def test_standard_gaussian_norm(self, d, seed):
        cmp = expected_norm(unit_ball(d), N, seed=seed)
        assert _within(cmp.direct, _chi_mean(d))

    def test_chi3_value(self):
        # sqrt(2) Gamma(2) / Gamma(3/2) = 2 sqrt(2/pi)
        assert _chi_mean(3) == approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-12)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_width_identity_consistency(self, seed):
        # direct E||xi|| vs V_1(E)/sqrt(2 pi) from an independent substream
        rng = rng_for(seed)
        d = 2 + seed % 4  # dims 3, 4, 5, 2, 3
        cmp = expected_norm(random_ellipsoid(rng, d), N, seed=seed)
        assert abs(cmp.z_score()) <= 3.0


# == 5. sudakov_width =======================================================


class TestSudakovWidth:
    def test_segment(self):
        cloud = PointCloud(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        out = sudakov_width(cloud, N, seed=17)
        assert _within(out.gaussian_mean, math.sqrt(2.0 / math.pi))
        assert out.implied_v1.mean == approx(
            math.sqrt(2.0 * math.pi) * out.gaussian_mean.mean, rel=1e-12
        )
        assert out.implied_v1.mean == approx(2.0, abs=4 * out.implied_v1.std_error)

    def test_singleton_is_exactly_zero(self):
        out = sudakov_width(PointCloud(np.zeros((1, 3))), 10_000, seed=18)
        assert out.gaussian_mean.mean == 0.0
        assert out.gaussian_mean.std_error == 0.0

    def test_circle(self):
        theta = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        cloud = PointCloud(np.stack([np.cos(theta), np.sin(theta)], axis=1))
        out = sudakov_width(cloud, 200_000, seed=19)
        assert out.gaussian_mean.mean == approx(math.sqrt(math.pi / 2.0), rel=0.01)

    def test_empty_cloud_rejected(self):
        with pytest.raises(DimensionMismatch):
            PointCloud(np.zeros((0, 2)))

    @pytest.mark.parametrize("n_points, dim", [(4096, 2), (5, 3)])
    def test_blocked_statistic_matches_unblocked(self, n_points, dim):
        # the max over z @ pts.T runs in cache-sized blocks of rows; one
        # product over the whole chunk must give the same estimate
        pts = rng_for(33).normal(size=(n_points, dim))
        n = CHUNK + 3000
        out = sudakov_width(PointCloud(pts), n, seed=34).gaussian_mean
        ref = chunked_mc_mean(lambda z: (z @ pts.T).max(axis=1), (dim,), n, seed=34)
        assert out.mean == approx(ref.mean, rel=1e-15)
        assert out.std_error == approx(ref.std_error, rel=1e-15)


# == 6. cross-module consistency ============================================


class TestProjectionSupportConsistency:
    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_projected_v1_from_support(self, seed):
        # Vol_1 of the projection onto span{u} is 2 h(u)
        rng = rng_for(seed)
        e = random_ellipsoid(rng, 3)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        proj = project_ellipsoid(e, u[None, :])
        half = math.sqrt(proj.sigma.entries[0, 0])
        assert half == approx(support_function(e, u), rel=1e-10)
