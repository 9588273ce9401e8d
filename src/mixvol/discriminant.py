"""Mixed discriminants and the two-sided mixed-volume bound.

The mixed discriminant of d symmetric d x d matrices is the coefficient
extracted by d-fold polarization of the determinant polynomial:

    D_d(A_1, ..., A_d)
        = (1/d!) sum over nonempty S of [d] of (-1)^(d-|S|) det(sum_{i in S} A_i),

the inclusion-exclusion realization of the mixed partial derivative of
det(lambda_1 A_1 + ... + lambda_d A_d).  For ellipsoids with representing
matrices A_i, the mixed volume is sandwiched between
kappa_d 3^{-(d-1)/2} sqrt(D_d) and kappa_d sqrt(D_d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NegativeDiscriminant, OutOfRange
from .geometry import MAX_DIM, Ellipsoid, symmetric_matrix, unit_ball_volume


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


def _batch_det(ms: np.ndarray) -> np.ndarray:
    """Determinants of a (m, d, d) stack.

    Cofactor formulas for d <= 3: they are exact for exactly representable
    entries, where the LAPACK LU route already rounds (det(diag(4, 6))
    comes back as 24 - 7e-15 from np.linalg.det).
    """
    d = ms.shape[-1]
    if d == 1:
        return ms[:, 0, 0].copy()
    if d == 2:
        return ms[:, 0, 0] * ms[:, 1, 1] - ms[:, 0, 1] * ms[:, 1, 0]
    if d == 3:
        return (
            ms[:, 0, 0] * (ms[:, 1, 1] * ms[:, 2, 2] - ms[:, 1, 2] * ms[:, 2, 1])
            - ms[:, 0, 1] * (ms[:, 1, 0] * ms[:, 2, 2] - ms[:, 1, 2] * ms[:, 2, 0])
            + ms[:, 0, 2] * (ms[:, 1, 0] * ms[:, 2, 1] - ms[:, 1, 1] * ms[:, 2, 0])
        )
    return np.linalg.det(ms)


def mixed_discriminant(t: SymmetricTuple | Sequence) -> float:
    """Exact D_d by inclusion-exclusion over the 2^d - 1 nonempty subsets."""
    if not isinstance(t, SymmetricTuple):
        t = SymmetricTuple(tuple(t))
    d = t.dim
    stack = np.stack(t.matrices)  # (d, d, d)
    subsets = np.arange(1, 1 << d)
    # membership[s, i] == True when matrix i belongs to subset s+1
    membership = (subsets[:, None] >> np.arange(d)) & 1
    sums = np.tensordot(membership.astype(float), stack, axes=(1, 0))
    dets = _batch_det(sums)
    signs = np.where((d - membership.sum(axis=1)) % 2, -1.0, 1.0)
    total = float(np.sum(signs * dets))
    for i in range(2, d + 1):
        total /= i
    return total


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
