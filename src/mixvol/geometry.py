"""Exact geometry of centered ellipsoids.

An ellipsoid is identified with its symmetric positive-definite representing
matrix S: the body is {x : x^T S^-1 x <= 1}, so the covariance matrix of a
centered Gaussian vector is literally the representing matrix of its
location-dispersion ellipsoid. Linear maps act on representing matrices by
S -> L S L^T, orthogonal projections by S -> C S C^T.

Also hosts the combinatorial constants used by the volume formulas:
kappa_n (volume of the unit n-ball) and the falling factorial (d)_k.
"""

from __future__ import annotations

import json
import math
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


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SPDMatrix:
    """Symmetric positive-definite matrix with a cached Cholesky factor.

    Construction validates symmetry (|a_ij - a_ji| <= 1e-12 * max(1, |a_ij|))
    and positive definiteness (all Cholesky pivots > 0).  `factor` is the
    lower-triangular L with L L^T = entries.
    """

    entries: np.ndarray
    factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        d = a.shape[0]
        if not 1 <= d <= MAX_DIM:
            raise OutOfRange(f"dimension {d} outside supported range [1, {MAX_DIM}]")
        gap = np.abs(a - a.T)
        bound = SYMMETRY_RTOL * np.maximum(1.0, np.abs(a))
        if np.any(gap > bound):
            i, j = np.unravel_index(np.argmax(gap - bound), a.shape)
            raise NotSymmetric(
                f"entries ({i},{j}) and ({j},{i}) differ by {gap[i, j]:.3e}"
            )
        try:
            fac = np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite(
                "Cholesky factorization failed (non-positive pivot); "
                "the matrix does not define a non-degenerate Gaussian vector"
            ) from exc
        object.__setattr__(self, "entries", _freeze(a))
        object.__setattr__(self, "factor", _freeze(fac))

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
    return SPDMatrix(np.asarray(entries, dtype=float))


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


def transform_ellipsoid(e: Ellipsoid, L) -> Ellipsoid:
    """Image of the ellipsoid under x -> Lx; representing matrix L sigma L^T."""
    L = np.asarray(L, dtype=float)
    d = e.dim
    if L.shape != (d, d):
        raise DimensionMismatch(f"transform shape {L.shape} does not match dim {d}")
    # Hadamard bound (product of row norms) sets the scale for the det test.
    scale = float(np.prod(np.linalg.norm(L, axis=1)))
    if abs(np.linalg.det(L)) <= 1e-12 * max(scale, np.finfo(float).tiny):
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
    """obj as a float array; ragged or non-numeric entries raise OutOfRange."""
    try:
        return np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise OutOfRange(f"{what} must be a rectangular array of numbers: {exc}") from exc


def ellipsoid_to_json(e: Ellipsoid) -> dict:
    return {"dim": e.dim, "sigma": e.sigma.entries.tolist()}


def ellipsoid_from_json(obj) -> Ellipsoid:
    if not isinstance(obj, dict) or "dim" not in obj or "sigma" not in obj:
        raise DimensionMismatch(
            'ellipsoid JSON must be an object with "dim" and "sigma" fields'
        )
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
