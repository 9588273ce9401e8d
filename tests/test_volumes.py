"""Mixed volumes, intrinsic volumes, mean width, expected norm, Sudakov width.

Core claims:
- The Gram-determinant estimators reproduce the closed-form targets: ball
  mixed volumes kappa_d, ellipse areas, chi means, segment and circle widths.
- Permutation symmetry, affine equivariance, homogeneity, and the planar
  projection-integral identity hold within combined Monte Carlo error.
- expected_norm's two independent routes (direct averaging vs V_1/sqrt(2 pi))
  agree, and intrinsic volumes do not depend on the ambient dimension; with
  both standard errors 0 the comparison has no z-score (None).
- Ill-conditioned ellipsoids are rejected rather than estimated; bodies
  whose mixed volume leaves the double range raise OutOfRange instead of a
  NaN standard error or 0 +- 0.
- sudakov_width's cache-sized blocks give the estimate of one unblocked
  product; a point cloud with a non-finite entry, or that is not an (N, d)
  array, is rejected.
- In the plane the statistic is the support function of the convex hull:
  per sample it equals the max over every point to within 8 eps ||z||
  max||x|| on regular, anisotropic, collinear, repeated, tiny, huge and
  grid clouds, and at directions on and beside every cone edge it is the
  max of the same float products over all points, bit for bit.  Its
  estimates are bit-identical across thread counts, and over two or more
  chunks ||z||^2 controls them, cutting the 4096-gon's variance ~10x.
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
    MCEstimate,
    NormComparison,
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
from mixvol.volumes import _planar_hull, _planar_support

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
        # the body count is checked before conditioning: an ill-conditioned
        # first body does not mask the DimensionMismatch
        thin = Ellipsoid(make_spd(np.diag([1.0, 1e-14])))
        with pytest.raises(DimensionMismatch):
            mixed_volume_with_balls([thin] + [unit_ball(2)] * 2, 100, seed=0)

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

    def test_zero_standard_errors_give_no_z_score(self):
        # 1.0 +- 0 against 2.0 +- 0 used to read 0.0, as if they agreed
        one, two = (MCEstimate.exact(v, seed=0, ci_level=0.99) for v in (1.0, 2.0))
        assert NormComparison(direct=one, via_intrinsic=two).z_score() is None
        assert NormComparison(direct=one, via_intrinsic=one).z_score() is None


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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_point_rejected(self, bad):
        # raised DimensionMismatch, unlike every other non-finite input
        with pytest.raises(OutOfRange, match="finite"):
            PointCloud([[bad, 0.0], [0.0, 1.0]])

    def test_huge_cloud_is_rescaled(self):
        # the squared maxima (~1e310) would leave the double range; the
        # points are scaled by a power of two, so the width is an ordinary
        # double, 1e155 times the unit cloud's at the same seed
        unit = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        huge = sudakov_width(PointCloud(1e155 * unit), 10_000, seed=20).gaussian_mean
        ref = sudakov_width(PointCloud(unit), 10_000, seed=20).gaussian_mean
        assert math.isfinite(huge.mean) and math.isfinite(huge.std_error)
        assert huge.mean == approx(1e155 * ref.mean, rel=1e-12)
        assert huge.std_error == approx(1e155 * ref.std_error, rel=1e-12)

    @pytest.mark.parametrize("n_points, dim", [(4096, 2), (5, 3), (4096, 3)])
    def test_blocked_statistic_matches_unblocked(self, n_points, dim):
        # the max over z @ pts.T runs in cache-sized blocks of rows; one
        # product over the whole chunk must give the same estimate
        # (in the plane with ||z||^2 as the control, as the library runs it)
        pts = rng_for(33).normal(size=(n_points, dim))
        n = CHUNK + 3000
        out = sudakov_width(PointCloud(pts), n, seed=34).gaussian_mean
        if dim == 2:
            stat = lambda z: ((z @ pts.T).max(axis=1), np.einsum("ij,ij->i", z, z))
            ref = chunked_mc_mean(stat, (dim,), n, seed=34, control=(2.0, 0.0))
        else:
            ref = chunked_mc_mean(lambda z: (z @ pts.T).max(axis=1), (dim,), n, seed=34)
        assert out.mean == approx(ref.mean, rel=1e-15)
        assert out.std_error == approx(ref.std_error, rel=1e-15)

    @pytest.mark.parametrize("points", [[1.0, -2.0, 3.0], [[[1.0, 2.0]], [[3.0, 4.0]]]])
    def test_cloud_must_be_a_matrix(self, points):
        # a flat list was read as one point in R^3, whose width is 0
        with pytest.raises(DimensionMismatch, match="(N, d)"):
            PointCloud(points)


def _gon(m):
    theta = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


def _planar_clouds():
    rng = rng_for(41)
    gauss = rng.normal(size=(4096, 2)) @ np.array([[3.0, 1.0], [0.0, 0.2]])
    t = rng.normal(size=64)
    grid = np.stack(np.meshgrid(np.arange(10.0), np.arange(10.0)), axis=-1).reshape(-1, 2)
    return {
        "gon4096": _gon(4096),
        "gauss": gauss,
        "collinear": np.stack([t, -2.0 * t], axis=1),
        "repeated": rng.permutation(np.repeat(rng.normal(size=(9, 2)), 7, axis=0)),
        "one": np.array([[0.25, -3.0]]),
        "two": np.array([[1.0, 2.0], [-3.0, 0.5]]),
        "grid": grid,
        "gauss_1e155": 1e155 * gauss,
        "gauss_1e-150": 1e-150 * gauss,
    }


PLANAR = _planar_clouds()


def _scaled_support(pts):
    """sudakov_width's planar statistic in the units of pts: the points
    divided by 2^e, the values multiplied back."""
    e = math.frexp(float(np.max(np.abs(pts))))[1]
    stat = _planar_support(np.ldexp(pts, -e))
    return lambda z: np.ldexp(stat(z), e)


class TestPlanarSupport:
    @pytest.mark.parametrize("name", PLANAR)
    def test_equals_max_over_every_point(self, name):
        pts = PLANAR[name]
        z = rng_for(42).normal(size=(CHUNK, 2))
        got = _scaled_support(pts)(z)
        ref = (z @ pts.T).max(axis=1)
        # hypot: the squared norms of the 1e155 cloud overflow
        radius = np.max(np.hypot(pts[:, 0], pts[:, 1]))
        tol = 8.0 * np.finfo(float).eps * np.hypot(z[:, 0], z[:, 1]) * radius
        assert np.isfinite(radius) and np.all(np.abs(got - ref) <= tol)

    @pytest.mark.parametrize("name", ["gon4096", "gauss", "grid"])
    def test_cone_edges_give_the_float_max(self, name):
        # z on and a few ulps beside each edge normal, where two vertices
        # tie to rounding: the value is the larger of their float products
        pts = PLANAR[name]
        v = _planar_hull(pts)
        d = np.roll(v, -1, axis=0) - v
        normal = np.stack([d[:, 1], -d[:, 0]], axis=1)
        turn = np.stack([-normal[:, 1], normal[:, 0]], axis=1)
        z = np.concatenate([normal + t * turn for t in (0.0, 1e-16, -1e-16, 4e-16, -4e-16, 1e-15, -1e-15)])
        x, y = pts[:, 0], pts[:, 1]
        ref = (z[:, :1] * x + z[:, 1:] * y).max(axis=1)
        np.testing.assert_array_equal(_planar_support(pts)(z), ref)

    def test_hull_vertices(self):
        assert len(_planar_hull(PLANAR["gon4096"])) == 4096
        assert len(_planar_hull(PLANAR["repeated"])) <= 9
        t = PLANAR["collinear"][:, 0]
        np.testing.assert_array_equal(_planar_hull(PLANAR["collinear"]), [[t.min(), -2.0 * t.min()], [t.max(), -2.0 * t.max()]])
        np.testing.assert_array_equal(_planar_hull(PLANAR["one"]), PLANAR["one"])
        # the grid's edges hold 8 more points each; counter-clockwise from (0, 0)
        np.testing.assert_array_equal(_planar_hull(PLANAR["grid"]), [[0, 0], [9, 0], [9, 9], [0, 9]])

    def test_norm_control_cuts_the_variance(self):
        # over two or more chunks ||z||^2, of mean 2, controls the planar
        # width: the 4096-gon's relative variance per sample falls from 0.27
        # to about 0.02, around its exact width sqrt(pi/2) (m/pi) sin(pi/m)
        m = 4096
        est = sudakov_width(PointCloud(_gon(m)), 4 * CHUNK, seed=44).gaussian_mean
        exact = math.sqrt(math.pi / 2.0) * m / math.pi * math.sin(math.pi / m)
        assert abs(est.mean - exact) <= 4.0 * est.std_error
        assert est.std_error**2 * est.n_samples / exact**2 < 0.05

    def test_thread_count_does_not_change_bits(self):
        cloud = PointCloud(_gon(4096))
        n = 3 * CHUNK + 5
        runs = [sudakov_width(cloud, n, seed=43, threads=t).gaussian_mean for t in (1, 2, 3)]
        assert len({(r.mean.hex(), r.std_error.hex()) for r in runs}) == 1


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
