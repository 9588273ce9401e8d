"""Exact geometry of centered ellipsoids.

An ellipsoid is identified with its symmetric positive-definite representing
matrix S: the body is {x : x^T S^-1 x <= 1}, so the covariance matrix of a
centered Gaussian vector is literally the representing matrix of its
location-dispersion ellipsoid. Linear maps act on representing matrices by
S -> L S L^T, orthogonal projections by S -> C S C^T.

Also hosts the constants of the volume formulas, kappa_n (volume of the
unit n-ball) and (d)_k, and the power-of-two pair split_pow2/rescale_pow2.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NonOrthonormalBasis,
    NotPositiveDefinite,
    NotSymmetric,
    NotUnitVector,
    OutOfRange,
    SingularTransform,
)

MAX_DIM = 16
SYMMETRY_RTOL = 1e-12
BASIS_TOL = 1e-10
UNIT_TOL = 1e-10


def freeze(a) -> np.ndarray:
    """A private contiguous float copy of a that cannot be written to.

    The copy is what keeps the caller's own array writable and keeps later
    writes to it out of the frozen value.
    """
    a = np.array(a, dtype=float, order="C")
    a.flags.writeable = False
    return a


def symmetric_matrix(m, what: str = "matrix") -> np.ndarray:
    """m as a frozen square float array.

    Raises DimensionMismatch unless m is square, OutOfRange on a ragged,
    non-numeric or non-finite entry, and NotSymmetric where
    |a_ij - a_ji| > 1e-12 * max(1, |a_ij|).
    """
    a = float_array(m, what)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{what} is not square: shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise OutOfRange(f"{what} has a non-finite entry")
    gap = np.abs(a - a.T)
    bound = SYMMETRY_RTOL * np.maximum(1.0, np.abs(a))
    if np.any(gap > bound):
        i, j = np.unravel_index(np.argmax(gap - bound), a.shape)
        raise NotSymmetric(
            f"{what}: entries ({i},{j}) and ({j},{i}) differ by {gap[i, j]:.3e}"
        )
    return freeze(a)


@dataclass(frozen=True)
class SPDMatrix:
    """Symmetric positive-definite matrix with a cached Cholesky factor.

    Construction validates finite entries and symmetry (symmetric_matrix)
    and positive definiteness (all Cholesky pivots > 0).  `factor` is the
    lower-triangular L with L L^T = entries.
    """

    entries: np.ndarray
    factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = symmetric_matrix(self.entries)
        d = a.shape[0]
        if not 1 <= d <= MAX_DIM:
            raise OutOfRange(f"dimension {d} outside supported range [1, {MAX_DIM}]")
        try:
            fac = np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite(
                "Cholesky factorization failed (non-positive pivot); "
                "the matrix does not define a non-degenerate Gaussian vector"
            ) from exc
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "factor", freeze(fac))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def condition_number(self) -> float:
        """Ratio of extreme eigenvalues (2-norm condition number)."""
        ev = np.linalg.eigvalsh(self.entries)
        return float(ev[-1] / ev[0])

    def det(self) -> float:
        return float(np.prod(np.diagonal(self.factor)) ** 2)


def make_spd(entries) -> SPDMatrix:
    """Validate a square matrix as SPD and cache its Cholesky factor."""
    return SPDMatrix(entries)


@dataclass(frozen=True)
class Ellipsoid:
    """Centered non-degenerate ellipsoid {x : x^T sigma^-1 x <= 1}."""

    sigma: SPDMatrix

    @property
    def dim(self) -> int:
        return self.sigma.dim


def unit_ball(dim: int) -> Ellipsoid:
    return Ellipsoid(make_spd(np.eye(dim)))


def ball(dim: int, radius: float) -> Ellipsoid:
    """Ball of the given radius (representing matrix radius^2 * I)."""
    return Ellipsoid(make_spd(radius * radius * np.eye(dim)))


def ellipsoid_from_axes(semi_axes) -> Ellipsoid:
    """Axis-aligned ellipsoid with the given semi-axis lengths."""
    s = np.asarray(semi_axes, dtype=float)
    return Ellipsoid(make_spd(np.diag(s * s)))


def unit_ball_volume(n: int) -> float:
    """kappa_n = pi^(n/2) / Gamma(1 + n/2), the volume of the unit n-ball."""
    if n < 0:
        raise OutOfRange(f"ball dimension must be >= 0, got {n}")
    return math.pi ** (n / 2.0) / math.gamma(1.0 + n / 2.0)


def falling_factorial(d: int, k: int) -> int:
    """(d)_k = d (d-1) ... (d-k+1); equals 1 for k = 0 and d! for k = d."""
    if not 0 <= k <= d:
        raise OutOfRange(f"need 0 <= k <= d, got k={k}, d={d}")
    out = 1
    for i in range(k):
        out *= d - i
    return out


def batch_det(ms) -> np.ndarray:
    """Determinants of a (m, d, d) stack: the package's one determinant.

    The cofactor formula for d <= 2, and for d >= 3 Gaussian elimination
    with partial pivoting, the signed product of the pivots.  Both are
    exact where every product is exactly representable (diagonal and scaled
    identity stacks), which np.linalg.det is not: it goes through log space
    and returns det(2 I_3) = 8 - 2e-15.  Elimination is backward stable, so
    its error grows like kappa, where the 3 x 3 cofactor formula on
    inclusion-exclusion sums lost kappa^2 and could change the sign.  The
    pivots are multiplied as mantissas in [1/2, 1), whose product of fewer
    than 1022 factors stays normal, and their binary exponents are summed:
    no partial product leaves the doubles where the determinant is a normal
    double, and where every partial product of the pivots is normal, the
    bits are those of their plain running product.
    """
    a = np.array(ms, dtype=float)
    d = a.shape[-1]
    if d == 1:
        return a[:, 0, 0]
    if d == 2:
        return a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    pivots, flips = np.empty(a.shape[:2]), np.zeros(a.shape[0], dtype=bool)
    batch = np.arange(a.shape[0])
    for j in range(d):
        p = j + np.argmax(np.abs(a[:, j:, j]), axis=1)
        pivot_rows = a[batch, p]
        a[batch, p] = a[:, j]
        a[:, j] = pivot_rows
        pivot = pivots[:, j] = a[:, j, j]
        flips ^= p != j
        below = a[:, j + 1 :, j] / np.where(pivot == 0.0, 1.0, pivot)[:, None]
        a[:, j + 1 :, j:] -= below[:, :, None] * a[:, None, j, j:]
    mantissas, exponents = np.frexp(pivots)
    det = mantissas[:, 0]
    for j in range(1, d):
        det = det * mantissas[:, j]
    return np.ldexp(np.where(flips, -det, det), exponents.sum(axis=1))


def split_pow2(a) -> tuple[np.ndarray, int]:
    """(a / 2^e, e), e the binary exponent of the largest |entry| of a, so
    the largest scaled entry lies in [1/2, 1): exact in binary where no
    entry falls below the normal doubles."""
    e = math.frexp(float(np.max(np.abs(a))))[1]
    return np.ldexp(a, -e), e


def rescale_pow2(x: float, e: int, what: str) -> float:
    """x * 2^e, exact in binary; OutOfRange, naming what, where a nonzero x
    lands outside the normal doubles (an infinite or NaN x overflows)."""
    try:
        y = math.ldexp(x, e)
    except OverflowError:
        y = math.inf
    if not math.isfinite(y):
        raise OutOfRange(f"{what} overflows a double")
    if x != 0.0 and abs(y) < sys.float_info.min:
        raise OutOfRange(f"{what} underflows a double")
    return y


def transform_ellipsoid(e: Ellipsoid, L) -> Ellipsoid:
    """Image of the ellipsoid under x -> Lx; representing matrix L sigma L^T."""
    L = np.asarray(L, dtype=float)
    d = e.dim
    if L.shape != (d, d):
        raise DimensionMismatch(f"transform shape {L.shape} does not match dim {d}")
    # Hadamard bound (product of row norms) sets the scale for the det test.
    scale = float(np.prod(np.linalg.norm(L, axis=1)))
    if abs(batch_det(L[None])[0]) <= 1e-12 * max(scale, np.finfo(float).tiny):
        raise SingularTransform("transform matrix is singular to working precision")
    s = L @ e.sigma.entries @ L.T
    return Ellipsoid(make_spd((s + s.T) / 2.0))


def project_ellipsoid(e: Ellipsoid, basis) -> Ellipsoid:
    """Orthogonal projection onto the span of the (orthonormal) basis rows.

    Returns the k-dimensional ellipsoid expressed in that basis; its
    representing matrix is C sigma C^T for the k x d basis matrix C.
    """
    C = np.atleast_2d(np.asarray(basis, dtype=float))
    k, d = C.shape
    if d != e.dim:
        raise DimensionMismatch(f"basis is in R^{d}, ellipsoid in R^{e.dim}")
    gram = C @ C.T
    if np.max(np.abs(gram - np.eye(k))) > BASIS_TOL:
        raise NonOrthonormalBasis("basis rows are not orthonormal within 1e-10")
    s = C @ e.sigma.entries @ C.T
    return Ellipsoid(make_spd((s + s.T) / 2.0))


def support_function(e: Ellipsoid, u) -> float:
    """h(u) = sqrt(u^T sigma u) for a unit direction u."""
    u = np.asarray(u, dtype=float)
    if u.shape != (e.dim,):
        raise DimensionMismatch(f"direction shape {u.shape} does not match dim {e.dim}")
    if abs(np.linalg.norm(u) - 1.0) > UNIT_TOL:
        raise NotUnitVector(f"direction norm {np.linalg.norm(u):.12f} is not 1")
    return float(math.sqrt(u @ e.sigma.entries @ u))


# -- JSON interchange --------------------------------------------------------
#
# Ellipsoid files hold either one object {"dim": d, "sigma": [[...], ...]}
# (row-major entries) or an array of such objects.


def load_json(path):
    """Parse one JSON input file; text that is not JSON raises OutOfRange."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise OutOfRange(f"invalid JSON in {path}: {exc}") from exc


def float_array(obj, what: str) -> np.ndarray:
    """obj as a float array; ragged, non-numeric, boolean or string entries
    raise OutOfRange (numpy alone reads a boolean, even nested, as 1.0 or 0.0,
    and a numeric string such as "4" or "1e0" as its number)."""
    try:
        a = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise OutOfRange(f"{what} must be a rectangular array of numbers: {exc}") from exc
    if isinstance(obj, np.ndarray) and obj.dtype != object:
        kinds = {obj.dtype.type}
    else:
        kinds = set(map(type, np.asarray(obj, dtype=object).flat))
    if kinds & {bool, np.bool_}:
        raise OutOfRange(f"{what} must be numbers, got a boolean")
    if kinds & {str, np.str_}:
        raise OutOfRange(f"{what} must be numbers, got a string")
    return a


def ellipsoid_to_json(e: Ellipsoid) -> dict:
    return {"dim": e.dim, "sigma": e.sigma.entries.tolist()}


def ellipsoid_from_json(obj) -> Ellipsoid:
    if not isinstance(obj, dict) or "dim" not in obj or "sigma" not in obj:
        raise DimensionMismatch(
            'ellipsoid JSON must be an object with "dim" and "sigma" fields'
        )
    if isinstance(obj["dim"], bool) or not isinstance(obj["dim"], (int, np.integer)):
        raise DimensionMismatch(f'"dim" must be an integer, got {obj["dim"]!r}')
    sigma = float_array(obj["sigma"], '"sigma"')
    if sigma.ndim != 2 or sigma.shape != (obj["dim"], obj["dim"]):
        raise DimensionMismatch(
            f'"sigma" shape {sigma.shape} does not match "dim" {obj["dim"]}'
        )
    # make_spd raises NotSymmetric / NotPositiveDefinite with the error name
    # carried by the exception class.
    return Ellipsoid(make_spd(sigma))


def load_ellipsoids(path) -> list[Ellipsoid]:
    """Read one ellipsoid object or an array of them from a JSON file."""
    data = load_json(path)
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list) or not data:
        raise DimensionMismatch("ellipsoid file must hold an object or nonempty array")
    return [ellipsoid_from_json(item) for item in data]
