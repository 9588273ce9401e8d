"""Gaussian random fields with closed-form kernels and their zero sets.

A field has k independent centered Gaussian components on R^d, each built
from a finite atom sum with an exactly known covariance kernel:

    trig atoms (any d):       r(s, t) = sum_a w_a cos<omega_a, s - t>
    polynomial atoms (d = 1): r(s, t) = sum_a w_a (s t)^{degree_a}

A component (KernelSpec) is read-only weights (A,) and a table, trig
frequencies (A, d) or polynomial degrees (A,), read through _KINDS.

Both families are C^1, exactly simulable (two standard normals per trig
atom, one per polynomial atom), and have analytic derivatives, so the
covariance C(t) of the normalized gradient grad[X/sqrt(Var X)](t) comes
out in closed form:

    C(t) = H(t)/sigma^2(t) - g(t) g(t)^T / sigma^4(t),

with sigma^2 = r(t,t), g = grad_s r(s,t)|_{s=t}, H = d_s d_t r(s,t)|_{s=t}.
The expected (d-k)-measure of the zero set X^{-1}(0) inside a box F is

    (d)_k / ((2 pi)^k kappa_{d-k}) * integral_F V_d(E_1(t), .., E_k(t), B, .., B) dt

where E_i(t) is the location-dispersion ellipsoid with representing matrix
C_i(t).  Stationary (trig) kernels make the integrand constant; the
polynomial family exercises the genuinely t-dependent case.  Empirical
counterparts (sign-change counting, 2-D Newton root finding, marching
squares) validate the formula realization by realization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateGradient,
    DegenerateVariance,
    DimensionMismatch,
    GridTooCoarse,
    NotPositiveDefinite,
    NotSymmetric,
    OutOfRange,
)
from .geometry import (
    MAX_DIM,
    Ellipsoid,
    SPDMatrix,
    falling_factorial,
    float_array,
    freeze,
    load_json,
    unit_ball_volume,
)
from .sampling import MCEstimate, Moments, RngStream, map_chunks, normal_quantile, rekey
from .volumes import mixed_volume_with_balls

TRIG = "trig"
POLYNOMIAL = "polynomial"

# Variance floor, relative to the largest atom weight, below which the
# normalized field X/sqrt(Var X) is undefined.
VARIANCE_FLOOR = 1e-12

NEWTON_MAX_ITER = 60
NEWTON_STEP_TOL = 1e-10
DEDUP_RADIUS = 1e-6
# t is a root of X_i where |X_i(t)| < ROOT_TOL * sigma_i(t): a test on X_i/sigma_i,
# which a constant factor on a component does not change
ROOT_TOL = 1e-9


# ---------------------------------------------------------------------------
# specs


def _spec_eq(a, b) -> bool:
    """== of two specs of one class: fields in order, arrays by np.array_equal."""
    pairs = ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in pairs
    )


def _frequency_matrix(omegas) -> np.ndarray:
    """(A, d) read-only frequencies from one vector, or number, per atom."""
    try:
        om = float_array(omegas, "frequency")
    except OutOfRange:
        # ragged: a fault inside one atom raises here, unequal lengths below
        rows = [np.atleast_1d(float_array(o, "frequency")) for o in omegas]
        shapes = sorted({r.shape for r in rows})
        if len(shapes) > 1:
            raise DimensionMismatch(f"trig atoms disagree on frequency shape: {shapes}")
        om = np.stack(rows)
    if om.ndim == 1:
        om = om[:, None]
    if om.ndim != 2:
        raise DimensionMismatch(f"each frequency must be a vector, got shape {om.shape[1:]}")
    if not np.all(np.isfinite(om)):
        raise OutOfRange("frequency entries must be finite")
    return freeze(om)


def _degree_vector(degrees) -> np.ndarray:
    """(A,) read-only integer degrees; booleans, floats and negatives raise."""
    float_array(degrees, "degree")  # ragged, boolean or string entries raise
    deg = np.array(degrees)
    if deg.ndim != 1 or deg.dtype.kind not in "iu" or np.any(deg < 0):
        raise OutOfRange(f"degrees must be nonnegative 64-bit integers, got {degrees!r}")
    deg.flags.writeable = False
    return deg


def _trig_moments(spec: "KernelSpec", ts: np.ndarray):
    """sigma^2 = sum w, g = 0 and H = sum w omega omega^T at each of m points."""
    om, w = spec.table, spec.weights
    h = (om * w[:, None]).T @ om
    return np.full(len(ts), np.sum(w)), np.zeros(ts.shape), np.broadcast_to(h, ts.shape[:1] + h.shape)


def _poly_moments(spec: "KernelSpec", ts: np.ndarray):
    """sigma^2 (m,), g (m, 1) and H (m, 1, 1) at the m points ts (m, 1)."""
    w, deg = spec.weights, spec.table
    sigma2 = np.sum(w * ts ** (2.0 * deg), axis=1)
    # derivative conventions: x**negative never evaluated, degree-0 terms drop
    pos = deg > 0
    g = np.sum(w[pos] * deg[pos] * ts ** (2.0 * deg[pos] - 1.0), axis=1)
    h = np.sum(w[pos] * deg[pos] ** 2.0 * ts ** (2.0 * deg[pos] - 2.0), axis=1)
    return sigma2, g[:, None], h[:, None, None]


def _trig_eval(om: np.ndarray, coef: np.ndarray, pts: np.ndarray, gradients: bool = False):
    """sum_a c_a cos<om_a, p> + s_a sin<om_a, p> at m points p, shape (m,).

    coef holds the (c_a, s_a) pairs: one (A, 2) block shared by all points,
    or an (m, A, 2) stack with one block per point, which evaluates the
    points of many realizations at once.  With gradients on, returns
    (values, (m, d) gradients), both from one phase matrix.  Phases and
    outputs are elementwise sums, not BLAS products, so a point's result
    does not depend on the other points evaluated with it.
    """
    phase = pts[:, :1] * om[:, 0]
    for j in range(1, om.shape[1]):
        phase += pts[:, j : j + 1] * om[:, j]
    cos, sin = np.cos(phase), np.sin(phase)
    c, s = coef[..., 0], coef[..., 1]
    values = np.sum(cos * c + sin * s, axis=1)
    if not gradients:
        return values
    radial = cos * s - sin * c
    return values, np.stack([np.sum(radial * w, axis=1) for w in om.T], axis=1)


def _poly_eval(deg: np.ndarray, coef: np.ndarray, pts: np.ndarray, gradients: bool = False):
    """sum_a c_a x^deg_a at m points x, shape (m,), from one (A,) block shared
    by all points; with gradients on, returns (values, (m, 1) derivatives)."""
    x = pts[:, :1]
    values = x**deg @ coef
    if not gradients:
        return values
    pos = deg > 0
    return values, ((deg[pos] * x ** (deg[pos] - 1.0)) @ coef[pos])[:, None]


def _trig_grid(om: np.ndarray, axes: Sequence[np.ndarray], coef: np.ndarray) -> np.ndarray:
    """(n_1, .., R) values of one trig component on the tensor grid of one
    or two axes for R realizations with (R, A, 2) coefficients.

    One axis takes two GEMMs, by the cosine and by the sine coefficients.
    On two, with u = omega_1 x and v = omega_2 y,
        a cos(u + v) + b sin(u + v) = cos u (a cos v + b sin v) + sin u (b cos v - a sin v),
    so the grid is one GEMM of [cos u, sin u], (nx, 2A), by (2A, ny R): its
    cost is O(nx ny R A) multiply-adds and O((nx + ny) A) cos/sin, and no
    (nx ny, A) table of cos and sin is built.
    """
    u = np.multiply.outer(axes[0], om[:, 0])
    cos_u, sin_u = np.cos(u), np.sin(u)
    if len(axes) == 1:
        return cos_u @ coef[:, :, 0].T + sin_u @ coef[:, :, 1].T
    left = np.concatenate([cos_u, sin_u], axis=1)
    v = np.multiply.outer(om[:, 1], axes[1])[:, :, None]  # (A, ny, 1)
    cos_v, sin_v = np.cos(v), np.sin(v)
    a, b = coef[:, :, 0].T[:, None, :], coef[:, :, 1].T[:, None, :]  # (A, 1, R)
    # the (2A, ny, R) right factor, written in place half by half
    right = np.empty((2, om.shape[0], axes[1].shape[0], coef.shape[0]))
    np.multiply(a, cos_v, out=right[0])
    right[0] += b * sin_v
    np.multiply(b, cos_v, out=right[1])
    right[1] -= a * sin_v
    return (left @ right.reshape(left.shape[1], -1)).reshape(u.shape[0], axes[1].shape[0], -1)


class _Kind(NamedTuple):
    """Everything that depends on a kernel kind, as one row of _KINDS."""

    key: str  # JSON key of an atom's table entry
    stationary: bool
    shape: tuple[int, ...]  # coefficients drawn per atom
    parse: Callable  # raw table -> validated read-only (A, d) or (A,) array
    kernel: Callable  # (spec, s, t) -> r(s, t)
    moments: Callable  # (spec, (m, d) points) -> sigma^2 (m,), g (m, d), H (m, d, d)
    evaluate: Callable  # (table, coef, (m, d) points, gradients) -> (m,) values[, (m, d)]
    grid: Callable  # (table, one (n_j,) axis per dimension, (R, A, ...) coefficients) -> (n_1, .., R)


_KINDS = {
    TRIG: _Kind(
        "omega", True, (2,), _frequency_matrix,
        lambda spec, s, t: float(np.sum(spec.weights * np.cos(spec.table @ (s - t)))),
        _trig_moments, _trig_eval, _trig_grid,
    ),
    POLYNOMIAL: _Kind(
        "degree", False, (), _degree_vector,
        lambda spec, s, t: float(np.sum(spec.weights * float(s[0] * t[0]) ** spec.table)),
        _poly_moments, _poly_eval,
        lambda deg, axes, coef: (axes[0][:, None] ** deg[None, :]) @ coef.T,
    ),
}


def _kind_row(kind, where: str) -> _Kind:
    """The _KINDS row of kind; OutOfRange for anything else, unhashable included."""
    if not isinstance(kind, str) or kind not in _KINDS:
        raise OutOfRange(f"{where}: unknown kind {kind!r}, expected {' or '.join(map(repr, _KINDS))}")
    return _KINDS[kind]


@dataclass(frozen=True)
class KernelSpec:
    """One field component of A atoms: the kind, (A,) positive weights and
    the kind's table, (A, d) trig frequencies or (A,) polynomial degrees,
    each validated once and stored as a read-only copy."""

    kind: str
    weights: np.ndarray
    table: np.ndarray
    __eq__ = _spec_eq

    def __post_init__(self):
        row = _kind_row(self.kind, "kernel")
        w = float_array(self.weights, "atom weight")
        if w.ndim != 1 or w.size == 0:
            raise OutOfRange(f"atom weights must be a nonempty vector of numbers, got shape {w.shape}")
        if not np.all((w > 0.0) & (w < math.inf)):
            raise OutOfRange(f"atom weights must be positive and finite, got {w.tolist()}")
        table = row.parse(self.table)
        if table.shape[0] != w.shape[0]:
            raise DimensionMismatch(f"{w.shape[0]} weights for {table.shape[0]} atoms")
        object.__setattr__(self, "weights", freeze(w))
        object.__setattr__(self, "table", table)

    @staticmethod
    def trig(atoms: Sequence[tuple[float, Sequence[float]]]) -> "KernelSpec":
        return KernelSpec(TRIG, [w for w, _ in atoms], [om for _, om in atoms])

    @staticmethod
    def polynomial(atoms: Sequence[tuple[float, int]]) -> "KernelSpec":
        return KernelSpec(POLYNOMIAL, [w for w, _ in atoms], [d for _, d in atoms])

    @property
    def dim(self) -> int:
        return self.table.shape[1] if self.table.ndim == 2 else 1

    @property
    def stationary(self) -> bool:
        return _KINDS[self.kind].stationary

    def scaled(self, c: float) -> "KernelSpec":
        """Same kernel with every atom weight multiplied by c > 0."""
        return replace(self, weights=c * self.weights)


def covariance(spec: KernelSpec, s, t) -> float:
    """Exact kernel value r(s, t)."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if s.shape != (spec.dim,) or t.shape != (spec.dim,):
        raise DimensionMismatch(f"points must have shape ({spec.dim},)")
    return _KINDS[spec.kind].kernel(spec, s, t)


@dataclass(frozen=True)
class FieldSpec:
    """k independent components on R^d, k <= d."""

    dim: int
    components: tuple[KernelSpec, ...]
    __eq__ = _spec_eq

    def __post_init__(self):
        d = int(self.dim)
        if d < 1 or d > MAX_DIM:
            raise OutOfRange(f"dimension must be in [1, {MAX_DIM}], got {d}")
        comps = tuple(self.components)
        if not comps:
            raise OutOfRange("field needs at least one component")
        if len(comps) > d:
            raise DimensionMismatch(f"{len(comps)} components exceed dimension {d}")
        for idx, c in enumerate(comps):
            if c.dim != d:
                raise DimensionMismatch(f"component {idx} lives in dimension {c.dim}, field in {d}")
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "components", comps)

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def stationary(self) -> bool:
        return all(c.stationary for c in self.components)


@dataclass(frozen=True)
class Region:
    """Axis-aligned box [lower_1, upper_1] x ... x [lower_d, upper_d]."""

    lower: np.ndarray
    upper: np.ndarray
    __eq__ = _spec_eq

    def __post_init__(self):
        lo = np.atleast_1d(float_array(self.lower, "region bound"))
        hi = np.atleast_1d(float_array(self.upper, "region bound"))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DimensionMismatch(f"bounds disagree: {lo.shape} vs {hi.shape}")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise OutOfRange("region bounds must be finite")
        if not np.all(lo < hi):
            raise OutOfRange("region needs lower < upper componentwise")
        object.__setattr__(self, "lower", freeze(lo))
        object.__setattr__(self, "upper", freeze(hi))

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Half-open membership lower <= x < upper, vectorized over rows."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.all((pts >= self.lower) & (pts < self.upper), axis=1)


# ---------------------------------------------------------------------------
# normalized-gradient covariance


def _moments(spec: KernelSpec, ts: np.ndarray):
    """sigma^2 (m,), g (m, d) and H (m, d, d) at m points ts (m, d), up to a
    common weight scale; DegenerateVariance at the first point where
    sigma^2 <= VARIANCE_FLOOR * the largest weight, a test no common weight
    scale changes."""
    moments, scale = _KINDS[spec.kind].moments, np.max(spec.weights)
    with np.errstate(over="ignore", invalid="ignore"):
        sigma2, g, h = moments(spec, ts)
    if not all(np.isfinite(m).all() for m in (sigma2, g, h)):
        # C(t) does not change with a common weight scale: where the
        # moments overflowed, redo them at largest weight 1 (a division,
        # since 1 / w is subnormal for w > 2^1022)
        sigma2, g, h = moments(replace(spec, weights=spec.weights / scale), ts)
        scale = 1.0
    low = np.flatnonzero(sigma2 <= VARIANCE_FLOOR * scale)
    if low.size:
        raise DegenerateVariance(f"field variance {sigma2[low[0]]:.3e} at t={ts[low[0]].tolist()}")
    return sigma2, g, h


def _check_variance(field: FieldSpec, region: Region) -> None:
    """_moments at the region's point nearest 0, where each component's
    sigma^2 is least: a polynomial one grows with |t|, a trig one is constant."""
    for spec in field.components:
        _moments(spec, np.clip(0.0, region.lower, region.upper)[None])


def _gradient_covariances(spec: KernelSpec, ts: np.ndarray) -> np.ndarray:
    """C(t) = H/sigma^2 - q q^T, q = g/sigma^2, at m points ts (m, d), shape (m, d, d)."""
    sigma2, g, h = _moments(spec, ts)
    q = g / sigma2[:, None]
    return h / sigma2[:, None, None] - q[:, :, None] * q[:, None, :]


def gradient_covariance(spec: KernelSpec, t) -> SPDMatrix:
    """Covariance of grad[X/sqrt(Var X)](t), as an SPD matrix.

    Raises DegenerateVariance when r(t,t) <= 1e-12 times the largest atom
    weight, a test no common weight scale changes, and DegenerateGradient
    when the resulting matrix is not positive definite (the field's gradient
    is concentrated on a proper subspace, so the zero set is not a clean
    (d-k)-manifold there).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape != (spec.dim,):
        raise DimensionMismatch(f"point must have shape ({spec.dim},), got {t.shape}")
    c = _gradient_covariances(spec, t[None])[0]
    c = 0.5 * (c + c.T)
    try:
        return SPDMatrix(c)
    except (NotPositiveDefinite, NotSymmetric) as exc:
        raise DegenerateGradient(
            f"normalized-gradient covariance is not positive definite at t={t.tolist()}"
        ) from exc


def gradient_ellipsoids(field: FieldSpec, t) -> tuple[Ellipsoid, ...]:
    """Location-dispersion ellipsoids E_i(t) of the normalized gradients."""
    return tuple(Ellipsoid(gradient_covariance(c, t)) for c in field.components)


# ---------------------------------------------------------------------------
# intensity and expected measure


def _chi_mean(d: int) -> float:
    """E ||z|| for z standard normal in R^d."""
    return math.sqrt(2.0) * math.gamma((d + 1) / 2.0) / math.gamma(d / 2.0)


def _isotropy_scale(c: SPDMatrix) -> float | None:
    """c^2 with C = c^2 I, or None when C is visibly anisotropic."""
    m = c.entries
    level = float(np.trace(m)) / c.dim
    if np.max(np.abs(m - level * np.eye(c.dim))) <= 1e-10 * level:
        return level
    return None


def zero_intensity(
    field: FieldSpec,
    t,
    n: int = 1_000_000,
    seed: int = 0,
    *,
    ci_level: float = 0.99,
    threads: int = 1,
    exact: bool | None = None,
) -> MCEstimate:
    """Intensity of the (d-k)-measure of the zero set at the point t.

    Computes (d)_k / ((2 pi)^k kappa_{d-k}) * V_d(E_1(t), .., E_k(t), B, .., B)
    with the mixed volume from the Gram-determinant estimator.  For a single
    component with isotropic gradient covariance c^2 I the chain collapses to
    the exact chi-mean value c * E||z|| / sqrt(2 pi); `exact=None` takes that
    path automatically when available, `exact=False` forces Monte Carlo, and
    `exact=True` insists on it (OutOfRange when the covariance is anisotropic).
    """
    d, k = field.dim, field.n_components
    ellipsoids = gradient_ellipsoids(field, t)
    if k == 1:
        scale = _isotropy_scale(ellipsoids[0].sigma)
        if exact is True and scale is None:
            raise OutOfRange("exact intensity needs an isotropic gradient covariance")
        if scale is not None and exact is not False:
            value = math.sqrt(scale) * _chi_mean(d) / math.sqrt(2.0 * math.pi)
            return MCEstimate.exact(value, seed, ci_level)
    elif exact is True:
        raise OutOfRange("exact intensity is available for single-component fields only")
    volume = mixed_volume_with_balls(
        ellipsoids, n, seed, ci_level=ci_level, threads=threads
    )
    factor = falling_factorial(d, k) / ((2.0 * math.pi) ** k * unit_ball_volume(d - k))
    return volume.scaled(factor)


@lru_cache(maxsize=16)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once
    per order: leggauss costs milliseconds at the orders measure uses."""
    x, w = np.polynomial.legendre.leggauss(order)
    return freeze(x), freeze(w)


def _gauss_legendre(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, order: int) -> float:
    x, w = _legendre_rule(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.sum(w * f(mid + half * x)))


def expected_zero_measure(
    field: FieldSpec,
    region: Region,
    n: int = 1_000_000,
    seed: int = 0,
    *,
    ci_level: float = 0.99,
    threads: int = 1,
    quadrature_order: int = 32,
) -> MCEstimate:
    """Expected (d-k)-measure of the zero set inside the region.

    Stationary kernels make the intensity constant, so the result is
    intensity * Vol_d(F) with the intensity's error budget scaled along.
    Non-stationary kernels exist only for d = k = 1 (polynomial atoms),
    where the intensity sqrt(C(t))/pi is exact; it is integrated by
    Gauss-Legendre at the given order, and std_error carries the
    order-doubling delta |I_{2q} - I_q| instead of a sampling error.
    """
    if region.dim != field.dim:
        raise DimensionMismatch(f"region dimension {region.dim} != field dimension {field.dim}")
    if field.stationary:
        at = zero_intensity(
            field, region.midpoint, n, seed, ci_level=ci_level, threads=threads
        )
        return at.scaled(region.volume)
    if quadrature_order < 1:
        raise OutOfRange(f"quadrature order must be positive, got {quadrature_order}")
    # non-stationary implies d = 1, hence a single polynomial component
    spec = field.components[0]

    def f(ts: np.ndarray) -> np.ndarray:
        # the exact d = 1 intensity sqrt(C(t)) / pi
        c = _gradient_covariances(spec, ts[:, None])[:, 0, 0]
        if np.min(c) < -1e-9:
            raise DegenerateGradient("normalized-gradient variance is negative in the region")
        return np.sqrt(np.maximum(c, 0.0)) / math.pi

    # tested at its least on the region, where no quadrature node need fall
    _check_variance(field, region)
    a, b = float(region.lower[0]), float(region.upper[0])
    coarse = _gauss_legendre(f, a, b, quadrature_order)
    fine = _gauss_legendre(f, a, b, 2 * quadrature_order)
    return MCEstimate.exact(fine, seed, ci_level, std_error=abs(fine - coarse))


# ---------------------------------------------------------------------------
# realizations


@dataclass(frozen=True)
class Realization:
    """One draw of the field: per-component coefficients, already sqrt(w)-scaled.

    Trig components carry an (n_atoms, 2) array (cosine and sine coefficients),
    polynomial components an (n_atoms,) array.  Evaluation is exact.
    """

    field: FieldSpec
    coefficients: tuple[np.ndarray, ...]

    def __post_init__(self):
        comps = self.field.components
        if len(self.coefficients) != len(comps):
            raise DimensionMismatch(
                f"{len(self.coefficients)} coefficient blocks for {len(comps)} components"
            )
        frozen = []
        for spec, block in zip(comps, self.coefficients):
            arr = np.asarray(block, dtype=float)
            want = spec.weights.shape + _KINDS[spec.kind].shape
            if arr.shape != want:
                raise DimensionMismatch(
                    f"coefficient block shape {arr.shape}, expected {want}"
                )
            frozen.append(freeze(arr))
        object.__setattr__(self, "coefficients", tuple(frozen))

    def _points(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 0:
            pts = pts.reshape(1, 1)
        elif pts.ndim == 1:
            pts = pts[:, None] if self.field.dim == 1 else pts[None, :]
        if pts.ndim != 2 or pts.shape[1] != self.field.dim:
            raise DimensionMismatch(f"points must be (m, {self.field.dim}), got {pts.shape}")
        return pts

    def component_values(self, index: int, points) -> np.ndarray:
        """X_index at m points, shape (m,)."""
        spec = self.field.components[index]
        return _KINDS[spec.kind].evaluate(spec.table, self.coefficients[index], self._points(points))

    def values(self, points) -> np.ndarray:
        """X at m points, shape (m, k)."""
        return _evaluate(self.field, self.coefficients, self._points(points))

    def jacobians(self, points) -> np.ndarray:
        """X' at m points, shape (m, k, d)."""
        return _evaluate(self.field, self.coefficients, self._points(points), gradients=True)[1]


def _evaluate(field: FieldSpec, coefs: Sequence[np.ndarray], pts: np.ndarray, gradients: bool = False):
    """X (m, k), and with gradients on X' (m, k, d), at m points from one block per
    component shared by all points or, for trig, one (m, A, 2) block per point."""
    per = [
        _KINDS[spec.kind].evaluate(spec.table, coef, pts, gradients)
        for spec, coef in zip(field.components, coefs)
    ]
    if not gradients:
        return np.stack(per, axis=1)
    return tuple(np.stack(part, axis=1) for part in zip(*per))


def _coefficient_blocks(field: FieldSpec, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Per component, (A,) + the kind's shape standard normals, atom a's times sqrt(w_a)."""
    blocks = []
    for spec in field.components:
        shape = _KINDS[spec.kind].shape
        scale = np.sqrt(spec.weights).reshape((-1,) + (1,) * len(shape))
        blocks.append(rng.standard_normal(spec.weights.shape + shape) * scale)
    return tuple(blocks)


def simulate_realization(field: FieldSpec, stream: RngStream) -> Realization:
    """Draw the Gaussian coefficients for one realization, deterministically."""
    return Realization(field, _coefficient_blocks(field, stream.generator()))


# ---------------------------------------------------------------------------
# zero-set measures: shapes and checks

# zero-set measure -> (d, k) of the fields it applies to, minimum grid_n
_ZERO_SETS = {"count-1d": (1, 1, 256), "count-2d": (2, 2, 128), "length-2d": (2, 1, 256)}


def zero_set_kind(field: FieldSpec) -> str:
    """The zero-set measure of the field's realizations: 'count-1d', 'count-2d'
    or 'length-2d'; OutOfRange for any (d, k) other than (1, 1), (2, 2), (2, 1)."""
    shape = (field.dim, field.n_components)
    for kind, (d, k, _) in _ZERO_SETS.items():
        if (d, k) == shape:
            return kind
    raise OutOfRange(
        f"empirical zero sets support (d, k) in (1,1), (2,2), (2,1); field has {shape}"
    )


def _check_zero_set(kind: str, field: FieldSpec, region: Region, grid_n: int) -> None:
    d, k, min_grid = _ZERO_SETS[kind]
    shape = (field.dim, field.n_components)
    if shape != (d, k):
        raise DimensionMismatch(f"{kind} needs a field with (d, k) = {(d, k)}, got {shape}")
    if region.dim != d:
        raise DimensionMismatch(f"region dimension {region.dim} != {d}")
    if grid_n < min_grid:
        raise OutOfRange(f"grid_n must be at least {min_grid}, got {grid_n}")
    _check_variance(field, region)


def _check_doubling(what: str, coarse: float, fine: float, grid_n: int, rel: float = 0.0) -> None:
    """GridTooCoarse if doubling grid_n moved a measure by more than rel, relatively."""
    if abs(fine - coarse) > rel * max(abs(fine), 1e-12):
        raise GridTooCoarse(
            f"{what} changed from {coarse:.6g} to {fine:.6g} when doubling grid_n={grid_n}"
        )


def _grid_axes(region: Region, grid_n: int) -> list[np.ndarray]:
    """The grid_n + 1 equispaced nodes of each axis of the box."""
    bounds = zip(region.lower.tolist(), region.upper.tolist())
    return [np.linspace(lo, hi, grid_n + 1) for lo, hi in bounds]


# ---------------------------------------------------------------------------
# counting: d = 1


def _sign_change_count(values: np.ndarray):
    """Crossings along axis 0, half-open in the last node.

    A 1-D array gives one count; an (m, R) array of R realizations sampled
    at m nodes gives R counts.
    """
    crossings = np.count_nonzero(values[:-1] * values[1:] < 0.0, axis=0)
    # exact zeros at nodes count once; the final node belongs to the next tile
    return crossings + np.count_nonzero(values[:-1] == 0.0, axis=0)


def _chunk_line_1d(field: FieldSpec, coefs: list[np.ndarray], region: Region, grid_n: int):
    """The 2 grid_n + 1 nodes and the (2 grid_n + 1, R) values there of each
    realization of a chunk, from one grid evaluation; the even nodes are the
    grid_n + 1 nodes bit for bit, as linspace halves its step exactly."""
    (nodes,) = _grid_axes(region, 2 * grid_n)
    spec = field.components[0]
    return nodes, _KINDS[spec.kind].grid(spec.table, [nodes], coefs[0])


def _sigmas(field: FieldSpec, pts: np.ndarray) -> np.ndarray:
    """sigma_i = sqrt(r_i(t, t)) at m points (m, d), shape (m, k)."""
    return np.stack([np.sqrt(_KINDS[c.kind].moments(c, pts)[0]) for c in field.components], axis=1)


def _is_root(values: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """|X_i| < ROOT_TOL * sigma_i; sigma_i > 0 wherever _check_variance passed."""
    return np.abs(values) < ROOT_TOL * sigmas


def _bisect_roots(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Vectorized bisection on bracketing intervals until each midpoint is a
    root by _is_root, against one sigma per bracket."""
    flo = f(lo)
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        fmid = f(mid)
        if np.all(_is_root(fmid, sigma)):
            break
        left = flo * fmid < 0.0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fmid)
        mid = 0.5 * (lo + hi)
    return mid


def _zeros_1d(r: Realization, region: Region, grid_n: int, self_check: bool = False) -> np.ndarray:
    """Zeros of one realization, the 1-D kernel on a chunk of one: the
    brackets come from the even nodes of one evaluation at 2 grid_n + 1
    nodes, and with self_check on, all its nodes give the doubled count."""
    fine_nodes, fine = _chunk_line_1d(r.field, [c[None] for c in r.coefficients], region, grid_n)
    nodes, values = fine_nodes[::2], fine[::2, 0]
    f = lambda x: r.component_values(0, x)
    bracket = values[:-1] * values[1:] < 0.0
    lo, hi = nodes[:-1][bracket], nodes[1:][bracket]
    # sigma at the bracket's point nearest 0 is its least on the bracket: a
    # polynomial sigma grows with |t|, and a trig one is constant
    sigma = _sigmas(r.field, np.clip(0.0, lo, hi)[:, None])[:, 0]
    roots = _bisect_roots(f, lo, hi, sigma)
    exact = nodes[:-1][values[:-1] == 0.0]
    roots = np.sort(np.concatenate([roots, exact]))
    roots = roots[(roots >= region.lower[0]) & (roots < region.upper[0])]
    if self_check:
        _check_doubling("count", roots.shape[0], _sign_change_count(fine[:, 0]), grid_n)
    return roots


def zeros_1d(
    r: Realization, region: Region, grid_n: int = 512, *, self_check: bool = True
) -> np.ndarray:
    """Sorted zeros of the single component on [lower, upper).

    Each sign change on the grid is bisected until |X| < ROOT_TOL * sigma,
    sigma = sqrt(r(t, t)); exact zeros at nodes are kept.  With self_check
    on, the number of sign changes is recomputed at double resolution, from
    the same evaluation, and a mismatch raises GridTooCoarse.
    """
    _check_zero_set("count-1d", r.field, region, grid_n)
    return _zeros_1d(r, region, grid_n, self_check)


def count_zeros_1d(
    r: Realization, region: Region, grid_n: int = 512, *, self_check: bool = True
) -> int:
    """Number of zeros of the single component on [lower, upper): len(zeros_1d)."""
    return zeros_1d(r, region, grid_n, self_check=self_check).shape[0]


# ---------------------------------------------------------------------------
# counting: d = 2


def _cell_has_change(values: np.ndarray) -> np.ndarray:
    """(g, g, ...) mask of cells whose four corner values are not of one sign,
    from (g + 1, g + 1, ...) node values."""
    s = values > 0.0
    a, b = s[:-1, :-1], s[1:, :-1]
    c, d = s[1:, 1:], s[:-1, 1:]
    return ~((a & b & c & d) | ~(a | b | c | d))


def _dedup(points: np.ndarray, radius: float) -> np.ndarray:
    """Greedy, order-preserving merge of the rows of points.

    A point survives unless an earlier survivor lies within Chebyshev
    distance radius; survivors keep their input order.  Candidate pairs come
    from a window of width 2 radius on the sorted first coordinate, which
    holds every pair whose computed distance is at most radius, rounding
    included; the exact test then keeps the close pairs.  The greedy rule is
    one pass over the close pairs (earlier, later) in the order of their
    later point: a later point is dropped if its earlier one is kept, and
    each earlier point is settled before any pair reads it.
    """
    n = points.shape[0]
    order = np.argsort(points[:, 0], kind="stable")
    xs = points[order, 0]
    ends = np.searchsorted(xs, xs + 2.0 * radius, side="right")
    # sorted position a pairs with positions a + 1 .. ends[a] - 1
    counts = ends - np.arange(1, n + 1)
    first = np.repeat(np.arange(n), counts)
    offsets = np.arange(first.size) - np.repeat(np.cumsum(counts) - counts, counts)
    second = first + 1 + offsets
    a, b = order[first], order[second]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    close = np.max(np.abs(points[hi] - points[lo]), axis=1) <= radius
    lo, hi = lo[close], hi[close]
    by_later = np.argsort(hi, kind="stable")
    kept = [True] * n
    for i, j in zip(lo[by_later].tolist(), hi[by_later].tolist()):
        if kept[i]:
            kept[j] = False
    return points[np.array(kept, dtype=bool)]


def _newton_roots_2d(
    field: FieldSpec,
    coefs: list[np.ndarray],
    seeds: np.ndarray,
    owner: np.ndarray,
    region: Region,
) -> list[np.ndarray]:
    """Converged, deduplicated roots of (X1, X2) for each realization of a chunk.

    Seed m starts in realization owner[m] of the per-component (R, A, 2)
    coefficient stacks coefs; owner is nondecreasing, and each realization's
    seeds come in the order its converged roots are deduplicated in.  All
    seeds of the chunk iterate together.  Returns R arrays of shape (n, 2).
    """
    x = seeds.copy()
    active = np.ones(x.shape[0], dtype=bool)
    converged = np.zeros(x.shape[0], dtype=bool)
    span = np.max(region.upper - region.lower)
    for _ in range(NEWTON_MAX_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        pts = x[idx]
        vals, jac = _evaluate(field, [c[owner[idx]] for c in coefs], pts, gradients=True)
        sigmas = _sigmas(field, pts)
        # Newton on X_i / sigma_i: the same step, and a determinant guard
        # that does not depend on the scale of the weights
        nv, nj = vals / sigmas, jac / sigmas[:, :, None]
        det = nj[:, 0, 0] * nj[:, 1, 1] - nj[:, 0, 1] * nj[:, 1, 0]
        ok = np.abs(det) > 1e-300
        step = np.empty_like(vals)
        safe = np.where(ok, det, 1.0)
        step[:, 0] = (nj[:, 1, 1] * nv[:, 0] - nj[:, 0, 1] * nv[:, 1]) / safe
        step[:, 1] = (nj[:, 0, 0] * nv[:, 1] - nj[:, 1, 0] * nv[:, 0]) / safe
        new = pts - step
        # a wandering iterate left its basin; drop the seed, no error
        inside = (
            ok
            & np.all(new > region.lower - span, axis=1)
            & np.all(new < region.upper + span, axis=1)
        )
        done = (
            inside
            & np.all(_is_root(vals, sigmas), axis=1)
            & (np.max(np.abs(step), axis=1) < NEWTON_STEP_TOL)
        )
        x[idx] = np.where(inside[:, None], new, pts)
        converged[idx[done]] = True
        active[idx[done | ~inside]] = False
    bounds = np.searchsorted(owner[converged], np.arange(1, coefs[0].shape[0]))
    kept = [_dedup(roots, DEDUP_RADIUS) for roots in np.split(x[converged], bounds)]
    return [roots[region.contains(roots)] for roots in kept]


def _chunk_roots_2d(
    field: FieldSpec,
    coefs: list[np.ndarray],
    region: Region,
    grid_n: int,
    threads: int = 1,
) -> list[np.ndarray]:
    """Roots of each realization of a chunk, from (R, A, 2) coefficient stacks.

    Cells where both components change sign seed Newton, realization by
    realization and in row-major cell order within each.  Up to threads
    workers share the chunk: the two component grids run at once, then
    Newton and deduplication run on contiguous groups of realizations.
    Every realization's roots are the same whatever the number of threads.
    """
    xs, ys = _grid_axes(region, grid_n)

    def changes(i: int, _) -> np.ndarray:
        spec = field.components[i]
        return _cell_has_change(_KINDS[spec.kind].grid(spec.table, [xs, ys], coefs[i]))

    first, second = map_chunks(changes, 2, 1, threads)
    candidates = np.moveaxis(first & second, 2, 0)
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]

    def group(start: int, size: int) -> list[np.ndarray]:
        owner, ci, cj = np.nonzero(candidates[start : start + size])
        seeds = np.column_stack([xs[ci] + 0.5 * hx, ys[cj] + 0.5 * hy])
        mine = [c[start : start + size] for c in coefs]
        return _newton_roots_2d(field, mine, seeds, owner, region)

    n = coefs[0].shape[0]
    parts = map_chunks(group, n, -(-n // threads), threads)
    return [roots for part in parts for roots in part]


def _roots_2d(r: Realization, region: Region, grid_n: int) -> np.ndarray:
    """Roots of one realization: a chunk of one."""
    return _chunk_roots_2d(r.field, [c[None] for c in r.coefficients], region, grid_n)[0]


def zeros_2d(
    r: Realization, region: Region, grid_n: int = 512, *, self_check: bool = True
) -> np.ndarray:
    """Common zeros of (X1, X2) in the half-open box, as an (n, 2) array.

    Node values come from the separable grid evaluation of level_length_2d.
    Cells where both components change sign seed a Newton iteration, in
    row-major cell order; roots are accepted where each |X_i| < ROOT_TOL *
    sigma_i, sigma_i = sqrt(r_i(t, t)), with final step below 1e-10.
    Divergent seeds are discarded.  Converged roots are then merged greedily
    in seed order: a root is kept unless an earlier kept root lies within
    Chebyshev distance 1e-6, so each cluster is represented by its first
    member.  Kept roots outside the half-open box are dropped.  With
    self_check on, a doubled grid must reproduce the count or GridTooCoarse
    is raised.
    """
    _check_zero_set("count-2d", r.field, region, grid_n)
    roots = _roots_2d(r, region, grid_n)
    if self_check:
        refined = _roots_2d(r, region, 2 * grid_n)
        _check_doubling("count", roots.shape[0], refined.shape[0], grid_n)
    return roots


def count_zeros_2d(
    r: Realization, region: Region, grid_n: int = 512, *, self_check: bool = True
) -> int:
    """Number of common zeros of (X1, X2) in the half-open box: len(zeros_2d)."""
    return zeros_2d(r, region, grid_n, self_check=self_check).shape[0]


# ---------------------------------------------------------------------------
# marching squares: d = 2, k = 1

# case -> crossing edges (0 bottom, 1 right, 2 top, 3 left), indexed by the
# corner-sign pattern a + 2b + 4c + 8d with a=(i,j), b=(i+1,j), c=(i+1,j+1),
# d=(i,j+1); cases 5 and 10 are saddles resolved by the true center value
_MS_EDGES = {
    1: (0, 3), 2: (0, 1), 3: (3, 1), 4: (1, 2), 6: (0, 2), 7: (2, 3),
    8: (2, 3), 9: (0, 2), 11: (1, 2), 12: (3, 1), 13: (0, 1), 14: (0, 3),
}


def _segment_lengths(
    values: np.ndarray, xs: np.ndarray, ys: np.ndarray, center_value: Callable[[np.ndarray], np.ndarray]
) -> float:
    """Total marching-squares length of {X = 0} over the grid.

    Only cells whose corners are not all of one sign carry a segment, so
    edge crossings are interpolated at those cells alone.  Per case, the
    segment lengths are summed in row-major cell order.
    """
    s = (values > 0.0).astype(np.int8)
    config = s[:-1, :-1] + 2 * s[1:, :-1] + 4 * s[1:, 1:] + 8 * s[:-1, 1:]
    ci, cj = np.nonzero((config != 0) & (config != 15))
    cfg = config[ci, cj]
    a, b = values[ci, cj], values[ci + 1, cj]
    c, d = values[ci + 1, cj + 1], values[ci, cj + 1]
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    x0, y0 = xs[ci], ys[cj]

    def guard(num, den):
        return num / np.where(den == 0.0, 1.0, den)

    # crossing coordinates per edge, valid only where that edge crosses
    ex = np.stack([x0 + hx * guard(a, a - b), x0 + hx, x0 + hx * guard(d, d - c), x0])
    ey = np.stack([y0, y0 + hy * guard(b, b - c), y0 + hy, y0 + hy * guard(a, a - d)])
    total = 0.0
    for case, (e1, e2) in _MS_EDGES.items():
        mask = cfg == case
        if not np.any(mask):
            continue
        dx = ex[e1][mask] - ex[e2][mask]
        dy = ey[e1][mask] - ey[e2][mask]
        total += float(np.sum(np.hypot(dx, dy)))
    for case in (5, 10):
        cells = np.flatnonzero(cfg == case)
        if cells.size == 0:
            continue
        centers = np.column_stack([x0[cells] + 0.5 * hx, y0[cells] + 0.5 * hy])
        pos = center_value(centers) > 0.0
        # center sign picks the diagonal pairing that separates the odd corners
        if case == 5:
            pairs = ((0, np.where(pos, 1, 3)), (np.where(pos, 2, 1), np.where(pos, 3, 2)))
        else:
            pairs = ((0, np.where(pos, 3, 1)), (np.where(pos, 1, 2), np.where(pos, 2, 3)))
        for e1, e2 in pairs:
            dx = ex[e1, cells] - ex[e2, cells]
            dy = ey[e1, cells] - ey[e2, cells]
            total += float(np.sum(np.hypot(dx, dy)))
    return total


def _chunk_lengths_2d(
    field: FieldSpec, coefs: list[np.ndarray], region: Region, grid_n: int
) -> list[float]:
    """Nodal length of each realization of a chunk, from its (R, A, 2)
    coefficient stack: one separable grid evaluation for the whole chunk."""
    xs, ys = _grid_axes(region, grid_n)
    spec, (coef,) = field.components[0], coefs
    row = _KINDS[spec.kind]
    grid = row.grid(spec.table, [xs, ys], coef)
    return [
        _segment_lengths(grid[:, :, i], xs, ys, partial(row.evaluate, spec.table, coef[i]))
        for i in range(coef.shape[0])
    ]


def level_length_2d(
    r: Realization, region: Region, grid_n: int = 512, *, self_check: bool = True
) -> float:
    """Length of the nodal curve {X = 0} inside the box, by marching squares.

    The (grid_n + 1)^2 node values of an A-atom field are evaluated
    separably: one GEMM of O(grid_n^2 A) multiply-adds, O(grid_n A) cos/sin
    and O(grid_n^2 + grid_n A) memory.  Linear interpolation on cell edges; four-crossing saddle cells are
    disambiguated by evaluating the field at the cell center.  With
    self_check on, doubling the grid must agree within 1% or GridTooCoarse
    is raised.
    """
    _check_zero_set("length-2d", r.field, region, grid_n)
    # one realization is a chunk of one
    measure = lambda n: _chunk_lengths_2d(r.field, [c[None] for c in r.coefficients], region, n)[0]
    length = measure(grid_n)
    if self_check:
        _check_doubling("length", length, measure(2 * grid_n), grid_n, 0.01)
    return length


# ---------------------------------------------------------------------------
# realization experiments

EXPERIMENT_CHUNK = 256


def _chunk_coefficients(field: FieldSpec, seed: int, start: int, size: int) -> list[np.ndarray]:
    """Coefficients of realizations start .. start+size-1, one stack per
    component: (size, A, 2) for trig, (size, A) for polynomial.

    Realization i always draws from stream (seed, i), so experiment results
    do not depend on the chunk size and match simulate_realization
    one-by-one; one generator is re-keyed from stream to stream.
    """
    gen = RngStream(seed, start).generator()
    blocks = [_coefficient_blocks(field, rekey(gen, seed, start + i)) for i in range(size)]
    return [np.stack(component) for component in zip(*blocks)]


def _experiment(
    kind: str, measure: Callable, field: FieldSpec, region: Region,
    n_realizations: int, seed: int, grid_n: int, ci_level: float, threads: int,
) -> MCEstimate:
    """Mean of a zero-set measure over realizations 0 .. n_realizations-1.

    Every input is checked before any work.  measure(coefs, start, threads)
    maps the coefficient stacks of the chunk of realizations from start on
    to their values and the number of them that moved under grid doubling;
    more than 1% of all realizations moving raises GridTooCoarse.  Chunks
    run on up to threads workers, and each chunk may use
    max(1, threads // n_chunks) workers of its own, so at most threads run
    at once; chunk boundaries, and so every result, do not depend on threads.
    """
    _check_zero_set(kind, field, region, grid_n)
    if n_realizations < 2:
        raise OutOfRange(f"need at least 2 realizations, got {n_realizations}")
    normal_quantile(ci_level)

    inner = max(1, threads // -(-n_realizations // EXPERIMENT_CHUNK))

    def work(start: int, size: int) -> tuple[Moments, int]:
        values, moved = measure(_chunk_coefficients(field, seed, start, size), start, inner)
        return Moments.of(values), moved

    parts = map_chunks(work, n_realizations, EXPERIMENT_CHUNK, threads)
    moved = sum(m for _, m in parts)
    if moved > 0.01 * n_realizations:
        raise GridTooCoarse(
            f"{moved} of {n_realizations} realizations changed count under grid doubling"
        )
    return MCEstimate.from_moments([p for p, _ in parts], seed, ci_level)


def zero_count_experiment_1d(
    field: FieldSpec,
    region: Region,
    n_realizations: int,
    seed: int = 0,
    *,
    grid_n: int = 2048,
    ci_level: float = 0.99,
    threads: int = 1,
) -> MCEstimate:
    """Mean zero count of a d=1 field over independent realizations.

    Counts sign changes at 2*grid_n and, as an aggregate self-check, also at
    grid_n from the same evaluations: more than 1% of realizations moving
    under the doubling raises GridTooCoarse.
    """

    def measure(coefs, start, threads):
        _, values = _chunk_line_1d(field, coefs, region, grid_n)
        coarse, fine = _sign_change_count(values[::2]), _sign_change_count(values)
        return fine, int(np.count_nonzero(fine != coarse))

    return _experiment(
        "count-1d", measure, field, region, n_realizations, seed, grid_n, ci_level, threads
    )


def zero_count_experiment_2d(
    field: FieldSpec,
    region: Region,
    n_realizations: int,
    seed: int = 0,
    *,
    grid_n: int = 128,
    ci_level: float = 0.99,
    threads: int = 1,
) -> MCEstimate:
    """Mean number of common zeros of a (d=2, k=2) field over realizations.

    Each realization's count is len(zeros_2d(..., self_check=False)): all
    realizations of a chunk of 256 share one separable grid evaluation per
    component, the two evaluated at once, and the chunk's share of threads
    runs Newton on contiguous groups of its realizations.  Each
    realization's converged roots are deduplicated in its own row-major
    seed order, so counts do not depend on threads.  No grid-doubling check
    runs.
    """

    def measure(coefs, start, threads):
        roots = _chunk_roots_2d(field, coefs, region, grid_n, threads)
        return [r.shape[0] for r in roots], 0

    return _experiment(
        "count-2d", measure, field, region, n_realizations, seed, grid_n, ci_level, threads
    )


def nodal_length_experiment(
    field: FieldSpec,
    region: Region,
    n_realizations: int,
    seed: int = 0,
    *,
    grid_n: int = 256,
    ci_level: float = 0.99,
    threads: int = 1,
) -> MCEstimate:
    """Mean nodal-curve length of a (d=2, k=1) field over realizations.

    Each realization's length is level_length_2d(..., self_check=False),
    from one separable grid evaluation per chunk of 256 realizations.  The
    first realization also runs the doubling self-check of level_length_2d,
    and the rest reuse the validated grid.
    """

    def measure(coefs, start, threads):
        lengths = _chunk_lengths_2d(field, coefs, region, grid_n)
        if start == 0:
            first = _chunk_lengths_2d(field, [c[:1] for c in coefs], region, 2 * grid_n)
            _check_doubling("length", lengths[0], first[0], grid_n, 0.01)
        return lengths, 0

    return _experiment(
        "length-2d", measure, field, region, n_realizations, seed, grid_n, ci_level, threads
    )


# ---------------------------------------------------------------------------
# JSON plumbing


def field_to_json(field: FieldSpec) -> dict:
    comps = []
    for spec in field.components:
        key = _KINDS[spec.kind].key
        atoms = [{"w": w, key: t} for w, t in zip(spec.weights.tolist(), spec.table.tolist())]
        comps.append({"kind": spec.kind, "atoms": atoms})
    return {"dim": field.dim, "components": comps}


def field_from_json(obj) -> FieldSpec:
    if not isinstance(obj, dict) or set(obj) != {"dim", "components"}:
        raise OutOfRange("field JSON must be an object with 'dim' and 'components'")
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise OutOfRange(f"field 'dim' must be an integer, got {dim!r}")
    raw = obj["components"]
    if not isinstance(raw, list) or not raw:
        raise OutOfRange("field 'components' must be a nonempty array")
    comps = []
    for idx, c in enumerate(raw):
        where = f"component {idx}"
        if not isinstance(c, dict) or set(c) != {"kind", "atoms"}:
            raise OutOfRange(f"{where}: must be an object with 'kind' and 'atoms'")
        kind = c["kind"]
        key = _kind_row(kind, where).key
        atoms_raw = c["atoms"]
        if not isinstance(atoms_raw, list) or not atoms_raw:
            raise OutOfRange(f"{where}: 'atoms' must be a nonempty array")
        if any(not isinstance(a, dict) or set(a) != {"w", key} for a in atoms_raw):
            raise OutOfRange(f"{where}: each {kind} atom needs exactly 'w' and '{key}'")
        comps.append(KernelSpec(kind, [a["w"] for a in atoms_raw], [a[key] for a in atoms_raw]))
    return FieldSpec(dim, tuple(comps))


def load_field(path) -> FieldSpec:
    return field_from_json(load_json(path))


def region_to_json(region: Region) -> dict:
    return {"lower": region.lower.tolist(), "upper": region.upper.tolist()}


def region_from_json(obj) -> Region:
    if not isinstance(obj, dict) or set(obj) != {"lower", "upper"}:
        raise OutOfRange("region JSON must be an object with 'lower' and 'upper'")
    return Region(obj["lower"], obj["upper"])


def load_region(path) -> Region:
    return region_from_json(load_json(path))
