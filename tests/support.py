"""Shared helpers for the mixvol test suite.

Random SPD/ellipsoid factories keep condition numbers modest so Monte Carlo
variances stay small; the fixed SEEDS tuple is reused by every property test
that the suite promises to run under five independent seeds.
"""

import numpy as np

from mixvol import Ellipsoid, chunked_mc_mean, make_spd

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


def reference_expected_gram_volume(ensemble, n, seed):
    """expected_gram_volume through the QR kernel: same draws, same reduction,
    factors applied as they are (no power-of-two scaling)."""
    factors = [s.covariance.factor for s in ensemble.specs]

    def stat(z):
        m = np.empty_like(z)
        for i, f in enumerate(factors):
            m[:, i, :] = z[:, i, :] @ f.T
        return reference_gram_volumes(m)

    return chunked_mc_mean(stat, (ensemble.n_rows, ensemble.dim), n, seed)


# -- Reference counting kernels ---------------------------------------------
#
# The quadratic deduplication and the all-cells marching squares that the
# library's linear-cost kernels replaced.  Tests require the library kernels
# to reproduce these bit for bit.


def reference_dedup(points, radius):
    """Greedy merge checking every earlier survivor: O(n^2)."""
    kept = []
    for p in points:
        if all(np.max(np.abs(p - q)) > radius for q in kept):
            kept.append(p)
    return np.array(kept) if kept else np.empty((0, points.shape[1]))


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
