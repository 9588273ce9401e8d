"""Shared helpers for the mixvol test suite.

Random SPD/ellipsoid factories keep condition numbers modest so Monte Carlo
variances stay small; the fixed SEEDS tuple is reused by every property test
that the suite promises to run under five independent seeds.
"""

import math

import numpy as np
from scipy.special import ellipe

from mixvol import (
    CHUNK,
    Ellipsoid,
    MinkowskiFit,
    area_from_support,
    chunked_mc_mean,
    expected_gram_determinant,
    make_spd,
)
from mixvol.sampling import CONTROL_DETERMINANTS

SEEDS = (1, 2, 3, 4, 5)


def rng_for(seed):
    return np.random.default_rng(seed)


def random_spd_entries(rng, d, scale=1.0):
    """Well-conditioned random SPD entries: G G^T plus a ridge."""
    g = rng.normal(size=(d, d)) * scale
    return g @ g.T + (0.5 * d * scale * scale) * np.eye(d)


def random_spd(rng, d, scale=1.0):
    return make_spd(random_spd_entries(rng, d, scale))


def random_ellipsoid(rng, d, scale=1.0):
    return Ellipsoid(random_spd(rng, d, scale))


def random_symmetric(rng, d, scale=1.0):
    """Random symmetric (not necessarily definite) entries."""
    g = rng.normal(size=(d, d)) * scale
    return 0.5 * (g + g.T)


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def spread_covariances(rng, d, k, spread, shared):
    """k SPD matrices with eigenvalues from 1 to about spread; shared puts
    every one in the same eigenbasis, where inclusion-exclusion cancels most."""
    q = random_orthogonal(rng, d)
    mats = []
    for _ in range(k):
        if not shared:
            q = random_orthogonal(rng, d)
        ev = np.logspace(0.0, math.log10(spread), d) * rng.uniform(0.5, 2.0, size=d)
        m = (q * ev) @ q.T
        mats.append(0.5 * (m + m.T))
    return mats


def random_unit_vector(rng, d):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def fd_mixed_discriminant(mats, h=1e-3):
    """Mixed discriminant via central differences of the derivative definition.

    Tensor-product central differences of det(sum lambda_i A_i) at 0 pick out
    exactly the lambda_1...lambda_d coefficient (all-odd monomial), i.e.
    d! * D_d, so the step error vanishes and only round-off remains.
    """
    import itertools
    import math

    d = len(mats)
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=d):
        m = sum(s * h * a for s, a in zip(signs, mats))
        total += np.prod(signs) * np.linalg.det(m)
    return total / (2.0 * h) ** d / math.factorial(d)


def quadratic_root_count_oracle(n, seed, lo=-5.0, hi=5.0):
    """Mean count of real roots of c0 + c1 t + c2 t^2 in [lo, hi), with the
    c_j independent standard normals.  Returns (mean, std_error)."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(n, 3))
    disc = c[:, 1] ** 2 - 4.0 * c[:, 2] * c[:, 0]
    counts = np.zeros(n)
    ok = disc > 0.0
    sq = np.sqrt(disc[ok])
    denom = 2.0 * c[ok, 2]
    r1 = (-c[ok, 1] - sq) / denom
    r2 = (-c[ok, 1] + sq) / denom
    counts[ok] = ((r1 >= lo) & (r1 < hi)).astype(float) + (
        (r2 >= lo) & (r2 < hi)
    ).astype(float)
    return float(counts.mean()), float(counts.std(ddof=1) / np.sqrt(n))


# -- Reference Gram kernel ---------------------------------------------------
#
# The batched Householder QR that the structure-of-arrays Gram kernel
# replaced.  Tests require the library kernel to agree with it to rounding.


def reference_gram_volumes(m):
    """Gram volumes of a stack of row matrices, shape (n, k, d) -> (n,):
    the product of |R_ii| from the QR factorization of each M^T."""
    r = np.linalg.qr(np.swapaxes(m, -1, -2), mode="r")
    return np.prod(np.abs(np.diagonal(r, axis1=-2, axis2=-1)), axis=-1)


def reference_complement_ellipses(rows, f):
    """(lambda_1, lambda_2) per sample, largest first, of A = P f f^T P,
    with P the projection onto the complement of the rows (n, j, d): Q from
    numpy's Householder QR of the rows, B = P f formed explicitly, and the
    two largest eigenvalues of B B^T from eigvalsh."""
    q, _ = np.linalg.qr(np.swapaxes(rows, -1, -2))  # (n, d, j)
    b = f - q @ (np.swapaxes(q, -1, -2) @ f)
    lam = np.linalg.eigvalsh(b @ np.swapaxes(b, -1, -2))[:, ::-1][:, :2]
    return np.maximum(lam, 0.0)


def reference_ellipse_perimeter(lam):
    """Perimeter of the ellipses with squared semi-axes lam (n, 2), largest
    first, as 4 a E(1 - b^2 / a^2) with scipy's complete elliptic integral."""
    a = np.sqrt(lam[:, 0])
    return 4.0 * a * ellipe(1.0 - lam[:, 1] / lam[:, 0])


def reference_expected_gram_volume(ensemble, n, seed, condition=True, control=True):
    """expected_gram_volume through the QR kernel: same draws, same reduction,
    factors applied as they are (no power-of-two scaling).

    For k = d >= 2 the last row L_d xi_d is conditioned out, as the library
    does: the (n, d-1, d) draws give sqrt(2/pi) |det L_d| times the
    (d-1)-volume of the rows L_d^-1 L_i xi_i.  Where m = d - 1 >= 2 rows
    are then left, the last of them is conditioned out too: the
    (n, m-1, d) draws give vol_{m-1} Per(A) / (2 sqrt(2 pi)), with A from
    reference_complement_ellipses and Per from reference_ellipse_perimeter.
    condition=False averages the plain |det M| over (n, d, d) draws
    instead.  For n > CHUNK the library's controls go to chunked_mc_mean
    with their exact means: the prefix volumes P_j^2 = prod_{i <= j} R_ii^2
    of the q drawn rows, then P_q^2 tr A where the last row is in closed
    form, then ||r_i||^2 for i = 2..q; control=False leaves them out.
    """
    factors = [s.covariance.factor for s in ensemble.specs]
    scale = 1.0
    if condition and len(factors) == ensemble.dim > 1:
        last = factors.pop()
        scale = math.sqrt(2.0 / math.pi) * abs(np.linalg.det(last))
        factors = [np.linalg.solve(last, f) for f in factors]
    k, d = len(factors), ensemble.dim
    tail = condition and k == d - 1 >= 2
    drawn = k - 1 if tail else k
    moments = None
    if control and n > CHUNK and math.comb(d, k) * ((1 << k) - 1) <= CONTROL_DETERMINANTS:
        covs = [f @ f.T for f in factors]
        moments = [expected_gram_determinant(covs[:j]) for j in range(1, k + 1)]
        moments += [expected_gram_determinant([s]) for s in covs[1:drawn]]
        moments = tuple(np.array(v) for v in zip(*moments))

    def stat(z):
        m = np.empty_like(z)
        for i, f in enumerate(factors[:drawn]):
            m[:, i, :] = z[:, i, :] @ f.T
        r = np.linalg.qr(np.swapaxes(m, -1, -2), mode="r")
        diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))  # (n, q)
        vol = np.prod(diag, axis=-1)
        prefix = np.cumprod(diag * diag, axis=-1).T
        norms = np.sum(m[:, 1:, :] ** 2, axis=-1).T
        if tail:
            lam = reference_complement_ellipses(m, factors[-1])
            y = vol * reference_ellipse_perimeter(lam) / (2.0 * math.sqrt(2.0 * math.pi))
            c = np.vstack([prefix, prefix[-1] * lam.sum(axis=1), norms])
        else:
            y, c = vol, np.vstack([prefix, norms])
        return y if moments is None else (y, c)

    return chunked_mc_mean(stat, (drawn, d), n, seed, control=moments).scaled(scale)


# -- Reference counting kernels ---------------------------------------------
#
# The quadratic deduplication, the all-cells marching squares and the
# concatenating separable grid that the library's kernels replaced.  Tests
# require the library kernels to reproduce these bit for bit.


def reference_dedup(points, radius):
    """Greedy merge checking every earlier survivor: O(n^2)."""
    kept = []
    for p in points:
        if all(np.max(np.abs(p - q)) > radius for q in kept):
            kept.append(p)
    return np.array(kept) if kept else np.empty((0, points.shape[1]))


def grid_points(xs, ys):
    """The nodes of the tensor grid xs x ys as rows, row-major in (x, y): the
    points where realizations are evaluated directly as the reference for
    separable grids."""
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def reference_trig_grid(spec, xs, ys, coef):
    """(nx, ny, R) values of a 2-D trig component on the grid xs x ys, from
    (A, 2, R) coefficients: the right GEMM factor built by concatenation."""
    om = spec.table
    u = np.multiply.outer(xs, om[:, 0])
    left = np.concatenate([np.cos(u), np.sin(u)], axis=1)
    v = np.multiply.outer(om[:, 1], ys)[:, :, None]
    cos_v, sin_v = np.cos(v), np.sin(v)
    a, b = coef[:, None, 0, :], coef[:, None, 1, :]
    right = np.concatenate([a * cos_v + b * sin_v, b * cos_v - a * sin_v])
    return (left @ right.reshape(left.shape[1], -1)).reshape(xs.shape[0], ys.shape[0], -1)


# case -> crossing edges (0 bottom, 1 right, 2 top, 3 left) of the corner-sign
# pattern a + 2b + 4c + 8d, a=(i,j), b=(i+1,j), c=(i+1,j+1), d=(i,j+1)
_MS_EDGES = {
    1: (0, 3), 2: (0, 1), 3: (3, 1), 4: (1, 2), 6: (0, 2), 7: (2, 3),
    8: (2, 3), 9: (0, 2), 11: (1, 2), 12: (3, 1), 13: (0, 1), 14: (0, 3),
}


def reference_segment_lengths(values, xs, ys, center_value):
    """Marching squares interpolating all four edges of every cell."""
    a = values[:-1, :-1]
    b = values[1:, :-1]
    c = values[1:, 1:]
    d = values[:-1, 1:]
    sa, sb, sc, sd = (v > 0.0 for v in (a, b, c, d))
    config = (
        sa.astype(np.int8)
        + 2 * sb.astype(np.int8)
        + 4 * sc.astype(np.int8)
        + 8 * sd.astype(np.int8)
    )
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    zero = np.zeros_like(a)
    x0 = xs[:-1][:, None] + zero
    y0 = ys[:-1][None, :] + zero

    def guard(num, den):
        return num / np.where(den == 0.0, 1.0, den)

    ex = np.stack([x0 + hx * guard(a, a - b), x0 + hx, x0 + hx * guard(d, d - c), x0])
    ey = np.stack([y0, y0 + hy * guard(b, b - c), y0 + hy, y0 + hy * guard(a, a - d)])
    total = 0.0
    for case, (e1, e2) in _MS_EDGES.items():
        mask = config == case
        if not np.any(mask):
            continue
        dx = ex[e1][mask] - ex[e2][mask]
        dy = ey[e1][mask] - ey[e2][mask]
        total += float(np.sum(np.hypot(dx, dy)))
    for case in (5, 10):
        mask = config == case
        if not np.any(mask):
            continue
        ci, cj = np.nonzero(mask)
        centers = np.column_stack([xs[ci] + 0.5 * hx, ys[cj] + 0.5 * hy])
        pos = center_value(centers) > 0.0
        if case == 5:
            pairs = ((0, np.where(pos, 1, 3)), (np.where(pos, 2, 1), np.where(pos, 3, 2)))
        else:
            pairs = ((0, np.where(pos, 3, 1)), (np.where(pos, 1, 2), np.where(pos, 2, 3)))
        for e1, e2 in pairs:
            dx = ex[e1, ci, cj] - ex[e2, ci, cj]
            dy = ey[e1, ci, cj] - ey[e2, ci, cj]
            total += float(np.sum(np.hypot(dx, dy)))
    return total


# -- Reference planar oracle -------------------------------------------------
#
# The composed support functions that mixed_area_oracle and
# minkowski_poly_check evaluated before they sampled each body once.  Tests
# require the library to reproduce these bit for bit, and to raise the same
# NonConvexBody from the same body first.


def reference_mixed_area(k, l, n_theta):
    total = area_from_support(k.add(l), n_theta)
    return 0.5 * (total - area_from_support(k, n_theta) - area_from_support(l, n_theta))


def reference_minkowski_fit(k, l, scales, n_theta):
    pairs = [(float(s), float(t)) for s, t in scales]
    design = np.array([[s * s, s * t, t * t] for s, t in pairs])
    areas = np.array(
        [area_from_support(k.scale(s).add(l.scale(t)), n_theta) for s, t in pairs]
    )
    coef, *_ = np.linalg.lstsq(design, areas, rcond=None)
    resid = float(np.max(np.abs(design @ coef - areas)))
    return MinkowskiFit(
        c20=float(coef[0]), c11=float(coef[1]), c02=float(coef[2]), max_residual=resid
    )
