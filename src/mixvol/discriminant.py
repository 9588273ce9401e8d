"""Mixed discriminants and the two-sided mixed-volume bound.

The mixed discriminant of d symmetric d x d matrices is the coefficient
extracted by d-fold polarization of the determinant polynomial:

    D_d(A_1, ..., A_d)
        = (1/d!) sum over nonempty S of [d] of (-1)^(d-|S|) det(sum_{i in S} A_i),

the inclusion-exclusion realization of the mixed partial derivative of
det(lambda_1 A_1 + ... + lambda_d A_d).  For ellipsoids with representing
matrices A_i, the mixed volume is sandwiched between
kappa_d 3^{-(d-1)/2} sqrt(D_d) and kappa_d sqrt(D_d).

The same polarization gives the exact second moment of a Gaussian Gram
statistic: for a k x d matrix M with independent rows N(0, S_i),
E det(M_J)^2 = k! D_k(S_1[J, J], ..., S_k[J, J]) for every k x k column minor,
and Cauchy-Binet sums these over the k-subsets J.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NegativeDiscriminant, OutOfRange
from .geometry import MAX_DIM, Ellipsoid, batch_det, symmetric_matrix, unit_ball_volume


@dataclass(frozen=True)
class SymmetricTuple:
    """d symmetric d x d matrices (positive definiteness not required)."""

    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = [symmetric_matrix(m, f"matrix {idx}") for idx, m in enumerate(self.matrices)]
        if not mats:
            raise DimensionMismatch("tuple must be nonempty")
        d = mats[0].shape[0]
        if any(m.shape[0] != d for m in mats):
            raise DimensionMismatch("all matrices must share one dimension")
        if len(mats) != d:
            raise DimensionMismatch(f"need exactly d={d} matrices, got {len(mats)}")
        if d > MAX_DIM:
            raise OutOfRange(f"dimension {d} exceeds supported maximum {MAX_DIM}")
        object.__setattr__(self, "matrices", tuple(mats))

    @property
    def dim(self) -> int:
        return len(self.matrices)


def _subset_sums(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 2^k - 1 nonempty subset sums of a (k, d, d) stack, and the
    inclusion-exclusion sign (-1)^(k - |S|) of each."""
    k = stack.shape[0]
    # membership[s, i] == 1 when matrix i belongs to subset s+1
    membership = (np.arange(1, 1 << k)[:, None] >> np.arange(k)) & 1
    sums = np.tensordot(membership.astype(float), stack, axes=(1, 0))
    return sums, np.where((k - membership.sum(axis=1)) % 2, -1.0, 1.0)


def mixed_discriminant(t: SymmetricTuple | Sequence) -> float:
    """Exact D_d by inclusion-exclusion over the 2^d - 1 nonempty subsets.

    OutOfRange where the value, or a subset sum's determinant, overflows a
    double.
    """
    if not isinstance(t, SymmetricTuple):
        t = SymmetricTuple(tuple(t))
    d = t.dim
    with np.errstate(over="ignore", invalid="ignore"):
        sums, signs = _subset_sums(np.stack(t.matrices))
        total = float(np.sum(signs * batch_det(sums)))
    if not math.isfinite(total):
        raise OutOfRange(f"mixed discriminant of {d} matrices overflows a double")
    for i in range(2, d + 1):
        total /= i
    return total


def expected_gram_determinant(covariances: Sequence) -> tuple[float, float]:
    """E det(M M^T) for a k x d matrix M with independent rows N(0, S_i),
    and a bound on the rounding error of the value returned.

    The value is the sum over k-subsets J of the d coordinates of
    k! D_k(S_1[J, J], ..., S_k[J, J]), from one inclusion-exclusion over the
    2^k - 1 subset sums batched over every J: C(d, k) (2^k - 1)
    determinants.  Every term of the outer sum is nonnegative, and for k = 1
    the value is tr S_1.  The bound is eps * sum |det| * (k kappa + 2^k)
    over those determinants, kappa the spectral condition number of each
    subset-sum minor; it is infinite where a minor is not positive definite
    in doubles.
    """
    mats = [symmetric_matrix(s, f"covariance {i}") for i, s in enumerate(covariances)]
    if not mats:
        raise DimensionMismatch("need at least one covariance")
    k, d = len(mats), mats[0].shape[0]
    if any(m.shape[0] != d for m in mats):
        raise DimensionMismatch("all covariances must share one dimension")
    if k > d:
        raise DimensionMismatch(f"number of rows {k} exceeds dimension {d}")
    sums, signs = _subset_sums(np.stack(mats))
    cols = np.array(list(itertools.combinations(range(d), k)))  # (C(d, k), k)
    minors = sums[:, cols[:, :, None], cols[:, None, :]].reshape(-1, k, k)
    dets = batch_det(minors).reshape(signs.shape[0], cols.shape[0])
    value = float(np.sum(np.sum(signs[:, None] * dets, axis=0)))
    eig = np.linalg.eigvalsh(minors)
    if not np.all(eig[:, 0] > 0.0):
        return value, math.inf
    kappa = eig[:, -1] / eig[:, 0]
    bound = np.finfo(float).eps * float(np.sum(np.abs(dets).ravel() * (k * kappa + (1 << k))))
    return value, bound


def barvinok_bounds(ellipsoids: Sequence[Ellipsoid]) -> tuple[float, float]:
    """Two-sided bound on V_d(E_1, ..., E_d) from the mixed discriminant.

    Returns (kappa_d 3^{-(d-1)/2} sqrt(D), kappa_d sqrt(D)) with D the mixed
    discriminant of the representing matrices.
    """
    ellipsoids = tuple(ellipsoids)
    if not ellipsoids:
        raise DimensionMismatch("need d ellipsoids, got none")
    d = ellipsoids[0].dim
    if any(e.dim != d for e in ellipsoids) or len(ellipsoids) != d:
        raise DimensionMismatch(f"need exactly d={d} ellipsoids of dimension {d}")
    disc = mixed_discriminant(tuple(e.sigma.entries for e in ellipsoids))
    if disc < 0.0:
        raise NegativeDiscriminant(
            f"mixed discriminant {disc:.3e} < 0 for positive-definite input"
        )
    root = float(np.sqrt(disc))
    kappa = unit_ball_volume(d)
    return (kappa * 3.0 ** (-(d - 1) / 2.0) * root, kappa * root)
