"""Mixed discriminants, the two-sided mixed-volume bound and the exact
second moment of a Gaussian Gram statistic, from one inclusion-exclusion.

The mixed discriminant of d symmetric d x d matrices is the coefficient
extracted by d-fold polarization of the determinant polynomial:

    D_d(A_1, ..., A_d)
        = (1/d!) sum over nonempty S of [d] of (-1)^(d-|S|) det(sum_{i in S} A_i).

For ellipsoids with representing matrices A_i, the mixed volume is
sandwiched between kappa_d 3^{-(d-1)/2} sqrt(D_d) and kappa_d sqrt(D_d).
D_d is also a second moment, the twin of E|det M| = d!/(2 pi)^{d/2} V_d:
for a k x d matrix M with independent rows N(0, S_i),
E det(M_J)^2 = k! D_k(S_1[J, J], ..., S_k[J, J]) for every k x k column
minor, which Cauchy-Binet sums over the k-subsets J; at k = d,
E det(M)^2 = d! D_d(S_1, ..., S_d).  So one kernel, _second_moment, serves
mixed_discriminant and expected_gram_determinant, at one power-of-two scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NegativeDiscriminant, OutOfRange
from .geometry import MAX_DIM, Ellipsoid, batch_det, rescale_pow2, symmetric_matrix, unit_ball_volume


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


def _split_minors(stack: np.ndarray) -> tuple[np.ndarray, int]:
    """(stack / 2^e, e) for k matrices, e the mean binary exponent of the k
    largest row maxima: by Hadamard's bound the k x k minors of their sums
    are then at most about 1 over 2^(k e), and small minors keep their bits.
    e is clamped so that every scaled entry is below 2^1000 and no nonzero one
    loses a bit: it stays normal, or e <= 0 where it was subnormal already."""
    mag = np.abs(stack)
    top = float(mag.max())
    if top == 0.0:
        return stack, 0
    rows = sorted(math.frexp(r)[1] for r in mag.max(axis=(0, 2)).tolist())[-len(stack):]
    lo, hi = math.frexp(top)[1] - 1000, max(math.frexp(float(mag[mag > 0.0].min()))[1] + 1021, 0)
    if lo > hi:
        raise OutOfRange("matrix entries span more than one power-of-two scale holds")
    e = min(max(-(-sum(rows) // len(rows)), lo), hi)
    return np.ldexp(stack, -e), e


def _second_moment(mats: Sequence[np.ndarray]) -> tuple[float, int, np.ndarray, np.ndarray]:
    """expected_gram_determinant's value for mats divided by 2^(k e), e from
    _split_minors, the shift k e that rescales it, and the subset-sum minors
    and determinants it sums."""
    stack, e = _split_minors(np.stack(mats))
    k, d = stack.shape[:2]
    # membership[s, i] == 1 when matrix i belongs to subset s+1, whose
    # inclusion-exclusion sign is (-1)^(k - |S|)
    membership = (np.arange(1, 1 << k)[:, None] >> np.arange(k)) & 1
    sums = np.tensordot(membership.astype(float), stack, axes=(1, 0))
    signs = np.where((k - membership.sum(axis=1)) % 2, -1.0, 1.0)
    cols = np.array(list(itertools.combinations(range(d), k)))  # (C(d, k), k)
    minors = sums[:, cols[:, :, None], cols[:, None, :]].reshape(-1, k, k)
    dets = batch_det(minors).reshape(signs.shape[0], cols.shape[0])
    return float(np.sum(np.sum(signs[:, None] * dets, axis=0))), k * e, minors, dets


def mixed_discriminant(t: SymmetricTuple | Sequence) -> float:
    """Exact D_d: _second_moment's value at k = d, divided by 2, ..., d;
    OutOfRange where D_d leaves the normal doubles."""
    if not isinstance(t, SymmetricTuple):
        t = SymmetricTuple(tuple(t))
    total, shift, _, _ = _second_moment(t.matrices)
    for i in range(2, t.dim + 1):
        total /= i
    return rescale_pow2(total, shift, f"mixed discriminant of {t.dim} matrices")


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
    in doubles.  OutOfRange where the value leaves the normal doubles.
    """
    mats = [symmetric_matrix(s, f"covariance {i}") for i, s in enumerate(covariances)]
    if not mats:
        raise DimensionMismatch("need at least one covariance")
    k, d = len(mats), mats[0].shape[0]
    if any(m.shape[0] != d for m in mats):
        raise DimensionMismatch("all covariances must share one dimension")
    if k > d:
        raise DimensionMismatch(f"number of rows {k} exceeds dimension {d}")
    value, shift, minors, dets = _second_moment(mats)
    value = rescale_pow2(value, shift, f"E det(M M^T) of {k} rows")
    eig = np.linalg.eigvalsh(minors)
    if not np.all(eig[:, 0] > 0.0):
        return value, math.inf
    # a bound past the doubles is no bound: infinite, as for a singular minor;
    # one below them still bounds, so it is not rescale_pow2's OutOfRange
    with np.errstate(over="ignore"):
        kappa = eig[:, -1] / eig[:, 0]
        bound = np.finfo(float).eps * np.sum(np.abs(dets).ravel() * (k * kappa + (1 << k)))
        return value, float(np.ldexp(bound, shift))


def barvinok_bounds(ellipsoids: Sequence[Ellipsoid]) -> tuple[float, float]:
    """Two-sided bound on V_d(E_1, ..., E_d) from the mixed discriminant.

    Returns (kappa_d 3^{-(d-1)/2} sqrt(D), kappa_d sqrt(D)) with D the mixed
    discriminant of the representing matrices.
    """
    mats = tuple(e.sigma.entries for e in ellipsoids)
    disc = mixed_discriminant(mats)
    if disc < 0.0:
        raise NegativeDiscriminant(
            f"mixed discriminant {disc:.3e} < 0 for positive-definite input"
        )
    root = float(np.sqrt(disc))
    kappa = unit_ball_volume(len(mats))
    return (kappa * 3.0 ** (-(len(mats) - 1) / 2.0) * root, kappa * root)
