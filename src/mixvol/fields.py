"""Gaussian random fields with closed-form kernels and their zero sets.

A field has k independent centered Gaussian components on R^d, each built
from a finite atom sum with an exactly known covariance kernel:

    trig atoms (any d):       r(s, t) = sum_a w_a cos<omega_a, s - t>
    polynomial atoms (d = 1): r(s, t) = sum_a w_a (s t)^{degree_a}

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

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

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
    _freeze,
    falling_factorial,
    float_array,
    load_json,
    unit_ball_volume,
)
from .sampling import MCEstimate, RngStream, normal_quantile
from .volumes import mixed_volume_with_balls

TRIG = "trig"
POLYNOMIAL = "polynomial"

# Variance floor below which the normalized field X/sqrt(Var X) is undefined.
VARIANCE_FLOOR = 1e-12

NEWTON_MAX_ITER = 60
NEWTON_STEP_TOL = 1e-10
DEDUP_RADIUS = 1e-6


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True)
class TrigAtom:
    """Kernel contribution w * cos<omega, s - t>."""

    w: float
    omega: np.ndarray

    def __post_init__(self):
        w = float(float_array(self.w, "atom weight"))
        if not (w > 0.0) or not math.isfinite(w):
            raise OutOfRange(f"atom weight must be positive and finite, got {self.w}")
        omega = np.atleast_1d(float_array(self.omega, "frequency"))
        if omega.ndim != 1:
            raise DimensionMismatch(f"frequency must be a vector, got shape {omega.shape}")
        if not np.all(np.isfinite(omega)):
            raise OutOfRange("frequency entries must be finite")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "omega", _freeze(omega))


@dataclass(frozen=True)
class PolyAtom:
    """Kernel contribution w * (s t)^degree, one dimension only."""

    w: float
    degree: int

    def __post_init__(self):
        w = float(float_array(self.w, "atom weight"))
        if not (w > 0.0) or not math.isfinite(w):
            raise OutOfRange(f"atom weight must be positive and finite, got {self.w}")
        deg = self.degree
        if not isinstance(deg, (int, np.integer)) or deg < 0:
            raise OutOfRange(f"degree must be a nonnegative integer, got {deg!r}")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "degree", int(deg))


@dataclass(frozen=True)
class KernelSpec:
    """One field component: a kind tag plus a nonempty atom list."""

    kind: str
    atoms: tuple

    def __post_init__(self):
        if self.kind not in (TRIG, POLYNOMIAL):
            raise OutOfRange(f"kernel kind must be 'trig' or 'polynomial', got {self.kind!r}")
        atoms = tuple(self.atoms)
        if not atoms:
            raise OutOfRange("kernel needs at least one atom")
        want = TrigAtom if self.kind == TRIG else PolyAtom
        if any(not isinstance(a, want) for a in atoms):
            raise OutOfRange(f"all atoms of a {self.kind} kernel must be {want.__name__}")
        if self.kind == TRIG:
            dims = {a.omega.shape[0] for a in atoms}
            if len(dims) != 1:
                raise DimensionMismatch(f"trig atoms disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "atoms", atoms)

    @staticmethod
    def trig(atoms: Sequence[tuple[float, Sequence[float]]]) -> "KernelSpec":
        return KernelSpec(TRIG, tuple(TrigAtom(w, om) for w, om in atoms))

    @staticmethod
    def polynomial(atoms: Sequence[tuple[float, int]]) -> "KernelSpec":
        return KernelSpec(POLYNOMIAL, tuple(PolyAtom(w, d) for w, d in atoms))

    @property
    def dim(self) -> int:
        if self.kind == TRIG:
            return self.atoms[0].omega.shape[0]
        return 1

    @property
    def stationary(self) -> bool:
        return self.kind == TRIG

    @property
    def weights(self) -> np.ndarray:
        return np.array([a.w for a in self.atoms])

    @property
    def frequencies(self) -> np.ndarray:
        """(n_atoms, d) frequency matrix; trig kernels only."""
        if self.kind != TRIG:
            raise OutOfRange("frequencies are defined for trig kernels only")
        return np.stack([a.omega for a in self.atoms])

    @property
    def degrees(self) -> np.ndarray:
        if self.kind != POLYNOMIAL:
            raise OutOfRange("degrees are defined for polynomial kernels only")
        return np.array([a.degree for a in self.atoms])

    def scaled(self, c: float) -> "KernelSpec":
        """Same kernel with every atom weight multiplied by c > 0."""
        if not (c > 0.0):
            raise OutOfRange(f"weight scale must be positive, got {c}")
        if self.kind == TRIG:
            return KernelSpec(TRIG, tuple(TrigAtom(c * a.w, a.omega) for a in self.atoms))
        return KernelSpec(POLYNOMIAL, tuple(PolyAtom(c * a.w, a.degree) for a in self.atoms))


def covariance(spec: KernelSpec, s, t) -> float:
    """Exact kernel value r(s, t)."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if s.shape != (spec.dim,) or t.shape != (spec.dim,):
        raise DimensionMismatch(f"points must have shape ({spec.dim},)")
    if spec.kind == TRIG:
        return float(np.sum(spec.weights * np.cos(spec.frequencies @ (s - t))))
    st = float(s[0] * t[0])
    return float(np.sum(spec.weights * st ** spec.degrees.astype(float)))


@dataclass(frozen=True)
class FieldSpec:
    """k independent components on R^d, k <= d."""

    dim: int
    components: tuple[KernelSpec, ...]

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
            if c.kind == POLYNOMIAL and d != 1:
                raise DimensionMismatch(
                    f"component {idx}: polynomial kernels are one-dimensional"
                )
            if c.dim != d:
                raise DimensionMismatch(
                    f"component {idx} lives in dimension {c.dim}, field in {d}"
                )
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

    def __post_init__(self):
        lo = np.atleast_1d(float_array(self.lower, "region bound"))
        hi = np.atleast_1d(float_array(self.upper, "region bound"))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DimensionMismatch(f"bounds disagree: {lo.shape} vs {hi.shape}")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise OutOfRange("region bounds must be finite")
        if not np.all(lo < hi):
            raise OutOfRange("region needs lower < upper componentwise")
        object.__setattr__(self, "lower", _freeze(lo))
        object.__setattr__(self, "upper", _freeze(hi))

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


def _kernel_moments(spec: KernelSpec, t: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(sigma^2, g, H) at t: variance, grad_s r|_{s=t}, d_s d_t r|_{s=t}."""
    w = spec.weights
    if spec.kind == TRIG:
        om = spec.frequencies
        sigma2 = float(np.sum(w))
        g = np.zeros(spec.dim)
        h = (om * w[:, None]).T @ om
        return sigma2, g, h
    x = float(t[0])
    deg = spec.degrees.astype(float)
    sigma2 = float(np.sum(w * x ** (2.0 * deg)))
    # derivative conventions: x**negative never evaluated, degree-0 terms drop
    pos = deg > 0
    g1 = float(np.sum(w[pos] * deg[pos] * x ** (2.0 * deg[pos] - 1.0)))
    h1 = float(np.sum(w[pos] * deg[pos] ** 2 * x ** (2.0 * deg[pos] - 2.0)))
    return sigma2, np.array([g1]), np.array([[h1]])


def gradient_covariance(spec: KernelSpec, t) -> SPDMatrix:
    """Covariance of grad[X/sqrt(Var X)](t), as an SPD matrix.

    Raises DegenerateVariance when r(t,t) <= 1e-12 and DegenerateGradient
    when the resulting matrix is not positive definite (the field's gradient
    is concentrated on a proper subspace, so the zero set is not a clean
    (d-k)-manifold there).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape != (spec.dim,):
        raise DimensionMismatch(f"point must have shape ({spec.dim},), got {t.shape}")
    sigma2, g, h = _kernel_moments(spec, t)
    if sigma2 <= VARIANCE_FLOOR:
        raise DegenerateVariance(f"field variance {sigma2:.3e} at t={t.tolist()}")
    c = h / sigma2 - np.outer(g, g) / sigma2**2
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


def _exact_estimate(value: float, seed: int, ci_level: float) -> MCEstimate:
    # closed-form results reuse the estimate record with a zero error budget
    return MCEstimate(
        mean=float(value),
        std_error=0.0,
        n_samples=1,
        seed=seed,
        ci_level=ci_level,
        ci_half_width=0.0,
    )


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
            return _exact_estimate(value, seed, ci_level)
    elif exact is True:
        raise OutOfRange("exact intensity is available for single-component fields only")
    volume = mixed_volume_with_balls(
        ellipsoids, n, seed, ci_level=ci_level, threads=threads
    )
    factor = falling_factorial(d, k) / ((2.0 * math.pi) ** k * unit_ball_volume(d - k))
    return volume.scaled(factor)


def _poly_intensity_values(spec: KernelSpec, ts: np.ndarray) -> np.ndarray:
    """Exact d=1 intensity sqrt(C(t))/pi on an array of points."""
    w = spec.weights
    deg = spec.degrees.astype(float)
    x = ts[:, None]
    sigma2 = np.sum(w * x ** (2.0 * deg), axis=1)
    if np.min(sigma2) <= VARIANCE_FLOOR:
        raise DegenerateVariance("field variance vanishes inside the region")
    pos = deg > 0
    g = np.sum(w[pos] * deg[pos] * x ** (2.0 * deg[pos] - 1.0), axis=1)
    h = np.sum(w[pos] * deg[pos] ** 2 * x ** (2.0 * deg[pos] - 2.0), axis=1)
    c = h / sigma2 - (g / sigma2) ** 2
    if np.min(c) < -1e-9:
        raise DegenerateGradient("normalized-gradient variance is negative in the region")
    return np.sqrt(np.maximum(c, 0.0)) / math.pi


def _gauss_legendre(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, order: int) -> float:
    x, w = np.polynomial.legendre.leggauss(order)
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
    f = lambda ts: _poly_intensity_values(spec, ts)
    a, b = float(region.lower[0]), float(region.upper[0])
    coarse = _gauss_legendre(f, a, b, quadrature_order)
    fine = _gauss_legendre(f, a, b, 2 * quadrature_order)
    delta = abs(fine - coarse)
    z = normal_quantile(ci_level)
    return MCEstimate(
        mean=fine,
        std_error=delta,
        n_samples=1,
        seed=seed,
        ci_level=ci_level,
        ci_half_width=z * delta,
    )


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
            want = (len(spec.atoms), 2) if spec.kind == TRIG else (len(spec.atoms),)
            if arr.shape != want:
                raise DimensionMismatch(
                    f"coefficient block shape {arr.shape}, expected {want}"
                )
            frozen.append(_freeze(arr))
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
        pts = self._points(points)
        spec = self.field.components[index]
        coef = self.coefficients[index]
        if spec.kind == TRIG:
            phase = pts @ spec.frequencies.T
            return np.cos(phase) @ coef[:, 0] + np.sin(phase) @ coef[:, 1]
        powers = pts[:, 0, None] ** spec.degrees.astype(float)[None, :]
        return powers @ coef

    def component_gradients(self, index: int, points) -> np.ndarray:
        """grad X_index at m points, shape (m, d)."""
        pts = self._points(points)
        spec = self.field.components[index]
        coef = self.coefficients[index]
        if spec.kind == TRIG:
            om = spec.frequencies
            phase = pts @ om.T
            radial = -np.sin(phase) * coef[:, 0] + np.cos(phase) * coef[:, 1]
            return radial @ om
        deg = spec.degrees.astype(float)
        pos = deg > 0
        if not np.any(pos):
            return np.zeros((pts.shape[0], 1))
        dpowers = deg[pos] * pts[:, 0, None] ** (deg[pos] - 1.0)
        return (dpowers @ coef[pos])[:, None]

    def values(self, points) -> np.ndarray:
        """X at m points, shape (m, k)."""
        pts = self._points(points)
        return np.stack(
            [self.component_values(i, pts) for i in range(self.field.n_components)], axis=1
        )

    def jacobians(self, points) -> np.ndarray:
        """X' at m points, shape (m, k, d)."""
        pts = self._points(points)
        return np.stack(
            [self.component_gradients(i, pts) for i in range(self.field.n_components)],
            axis=1,
        )


def _coefficient_blocks(field: FieldSpec, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    blocks = []
    for spec in field.components:
        scale = np.sqrt(spec.weights)
        if spec.kind == TRIG:
            blocks.append(rng.standard_normal((len(spec.atoms), 2)) * scale[:, None])
        else:
            blocks.append(rng.standard_normal(len(spec.atoms)) * scale)
    return tuple(blocks)


def simulate_realization(field: FieldSpec, stream: RngStream) -> Realization:
    """Draw the Gaussian coefficients for one realization, deterministically."""
    return Realization(field, _coefficient_blocks(field, stream.generator()))


# ---------------------------------------------------------------------------
# counting: d = 1


def _axis_nodes(region: Region, grid_n: int) -> np.ndarray:
    return np.linspace(float(region.lower[0]), float(region.upper[0]), grid_n + 1)


def _sign_change_count(values: np.ndarray):
    """Crossings along axis 0, half-open in the last node.

    A 1-D array gives one count; an (m, R) array of R realizations sampled
    at m nodes gives R counts.
    """
    crossings = np.count_nonzero(values[:-1] * values[1:] < 0.0, axis=0)
    # exact zeros at nodes count once; the final node belongs to the next tile
    return crossings + np.count_nonzero(values[:-1] == 0.0, axis=0)


def _bisect_roots(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, tol: float) -> np.ndarray:
    """Vectorized bisection on bracketing intervals until |f(mid)| < tol."""
    flo = f(lo)
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        fmid = f(mid)
        done = np.abs(fmid) < tol
        if np.all(done):
            break
        left = flo * fmid < 0.0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fmid)
        mid = 0.5 * (lo + hi)
    return mid


def _zeros_1d(r: Realization, region: Region, grid_n: int, tol: float) -> np.ndarray:
    nodes = _axis_nodes(region, grid_n)
    values = r.component_values(0, nodes)
    f = lambda x: r.component_values(0, x)
    bracket = values[:-1] * values[1:] < 0.0
    roots = _bisect_roots(f, nodes[:-1][bracket], nodes[1:][bracket], tol)
    exact = nodes[:-1][values[:-1] == 0.0]
    roots = np.sort(np.concatenate([roots, exact]))
    return roots[(roots >= region.lower[0]) & (roots < region.upper[0])]


def zeros_1d(
    r: Realization,
    region: Region,
    grid_n: int = 512,
    tol: float = 1e-9,
    *,
    self_check: bool = True,
) -> np.ndarray:
    """Sorted zeros of the single component on [lower, upper).

    Sign changes on the grid, each certified by bisection down to |X| < tol.
    With self_check on, the number of sign changes is recomputed at double
    resolution and a mismatch raises GridTooCoarse.
    """
    if r.field.dim != 1 or r.field.n_components != 1:
        raise DimensionMismatch("zeros_1d needs a scalar field on R^1")
    if region.dim != 1:
        raise DimensionMismatch(f"region dimension {region.dim} != 1")
    if grid_n < 256:
        raise OutOfRange(f"grid_n must be at least 256, got {grid_n}")
    roots = _zeros_1d(r, region, grid_n, tol)
    if self_check:
        count = roots.shape[0]
        refined = _sign_change_count(r.component_values(0, _axis_nodes(region, 2 * grid_n)))
        if refined != count:
            raise GridTooCoarse(
                f"count changed from {count} to {refined} when doubling grid_n={grid_n}"
            )
    return roots


def count_zeros_1d(
    r: Realization,
    region: Region,
    grid_n: int = 512,
    tol: float = 1e-9,
    *,
    self_check: bool = True,
) -> int:
    """Number of zeros of the single component on [lower, upper): len(zeros_1d)."""
    return zeros_1d(r, region, grid_n, tol, self_check=self_check).shape[0]


# ---------------------------------------------------------------------------
# counting: d = 2


def _grid_axes(region: Region, grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    xs = np.linspace(float(region.lower[0]), float(region.upper[0]), grid_n + 1)
    ys = np.linspace(float(region.lower[1]), float(region.upper[1]), grid_n + 1)
    return xs, ys


def _grid_points(region: Region, grid_n: int) -> np.ndarray:
    """The (grid_n + 1)^2 nodes, row-major in (x, y)."""
    gx, gy = np.meshgrid(*_grid_axes(region, grid_n), indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def _cell_has_change(values: np.ndarray) -> np.ndarray:
    """(g, g) mask of cells whose four corner values are not of one sign."""
    s = values > 0.0
    a, b = s[:-1, :-1], s[1:, :-1]
    c, d = s[1:, 1:], s[:-1, 1:]
    return ~((a & b & c & d) | ~(a | b | c | d))


def _dedup(points: np.ndarray, radius: float) -> np.ndarray:
    """Greedy, order-preserving merge of the rows of points.

    A point survives unless an earlier survivor lies within Chebyshev
    distance radius; survivors keep their input order.  Survivors are
    bucketed by floor(p / (2 radius)), so any survivor that close to p sits
    in one of the 3^d buckets around p's own, and the cost is linear in the
    number of points.
    """
    side = 2.0 * radius
    neighbours = list(itertools.product((-1, 0, 1), repeat=points.shape[1]))
    buckets: dict[tuple[int, ...], list[list[float]]] = {}
    kept = []
    for i, p in enumerate(points.tolist()):
        key = tuple(math.floor(v / side) for v in p)
        near = (
            q
            for off in neighbours
            for q in buckets.get(tuple(k + o for k, o in zip(key, off)), ())
        )
        if all(max(abs(a - b) for a, b in zip(p, q)) > radius for q in near):
            buckets.setdefault(key, []).append(p)
            kept.append(i)
    return points[kept]


def _newton_roots_2d(
    r: Realization, seeds: np.ndarray, region: Region, tol: float
) -> np.ndarray:
    """Converged, deduplicated roots of (X1, X2) from the given seed points."""
    if seeds.shape[0] == 0:
        return np.empty((0, 2))
    x = seeds.copy()
    active = np.ones(x.shape[0], dtype=bool)
    converged = np.zeros(x.shape[0], dtype=bool)
    span = np.max(region.upper - region.lower)
    for _ in range(NEWTON_MAX_ITER):
        if not np.any(active):
            break
        pts = x[active]
        vals = r.values(pts)
        jac = r.jacobians(pts)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        ok = np.abs(det) > 1e-300
        step = np.empty_like(vals)
        safe = np.where(ok, det, 1.0)
        step[:, 0] = (jac[:, 1, 1] * vals[:, 0] - jac[:, 0, 1] * vals[:, 1]) / safe
        step[:, 1] = (jac[:, 0, 0] * vals[:, 1] - jac[:, 1, 0] * vals[:, 0]) / safe
        new = pts - step
        # a wandering iterate left its basin; drop the seed, no error
        inside = (
            ok
            & np.all(new > region.lower - span, axis=1)
            & np.all(new < region.upper + span, axis=1)
        )
        done = (
            inside
            & (np.max(np.abs(vals), axis=1) < tol)
            & (np.max(np.abs(step), axis=1) < NEWTON_STEP_TOL)
        )
        idx = np.flatnonzero(active)
        x[idx] = np.where(inside[:, None], new, pts)
        converged[idx[done]] = True
        still = active.copy()
        still[idx[done | ~inside]] = False
        active = still
    roots = _dedup(x[converged], DEDUP_RADIUS)
    if roots.shape[0] == 0:
        return roots
    return roots[region.contains(roots)]


def _roots_2d(
    r: Realization,
    region: Region,
    grid_n: int,
    tol: float,
    values: np.ndarray | None = None,
) -> np.ndarray:
    xs, ys = _grid_axes(region, grid_n)
    if values is None:
        values = r.values(_grid_points(region, grid_n)).reshape(grid_n + 1, grid_n + 1, 2)
    candidates = _cell_has_change(values[:, :, 0]) & _cell_has_change(values[:, :, 1])
    ci, cj = np.nonzero(candidates)
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    seeds = np.column_stack([xs[ci] + 0.5 * hx, ys[cj] + 0.5 * hy])
    return _newton_roots_2d(r, seeds, region, tol)


def zeros_2d(
    r: Realization,
    region: Region,
    grid_n: int = 512,
    tol: float = 1e-9,
    *,
    self_check: bool = True,
) -> np.ndarray:
    """Common zeros of (X1, X2) in the half-open box, as an (n, 2) array.

    Cells where both components change sign seed a Newton iteration, in
    row-major cell order; roots are accepted at ||X|| < tol with final step
    below 1e-10.  Divergent seeds are discarded.  Converged roots are then
    merged greedily in seed order: a root is kept unless an earlier kept
    root lies within Chebyshev distance 1e-6, so each cluster is
    represented by its first member.  Kept roots outside the half-open box
    are dropped.  With self_check on, a doubled grid must reproduce the
    count or GridTooCoarse is raised.
    """
    if r.field.dim != 2 or r.field.n_components != 2:
        raise DimensionMismatch("zeros_2d needs two components on R^2")
    if region.dim != 2:
        raise DimensionMismatch(f"region dimension {region.dim} != 2")
    if grid_n < 128:
        raise OutOfRange(f"grid_n must be at least 128, got {grid_n}")
    roots = _roots_2d(r, region, grid_n, tol)
    if self_check:
        count = roots.shape[0]
        refined = _roots_2d(r, region, 2 * grid_n, tol).shape[0]
        if refined != count:
            raise GridTooCoarse(
                f"count changed from {count} to {refined} when doubling grid_n={grid_n}"
            )
    return roots


def count_zeros_2d(
    r: Realization,
    region: Region,
    grid_n: int = 512,
    tol: float = 1e-9,
    *,
    self_check: bool = True,
) -> int:
    """Number of common zeros of (X1, X2) in the half-open box: len(zeros_2d).

    Converged Newton roots are merged greedily in seed order, a root being
    kept unless an earlier kept root lies within Chebyshev distance 1e-6.
    """
    return zeros_2d(r, region, grid_n, tol, self_check=self_check).shape[0]


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


def _length_2d(
    r: Realization, region: Region, grid_n: int, values: np.ndarray | None = None
) -> float:
    xs, ys = _grid_axes(region, grid_n)
    if values is None:
        values = r.component_values(0, _grid_points(region, grid_n)).reshape(grid_n + 1, grid_n + 1)
    center = lambda p: r.component_values(0, p)
    return _segment_lengths(values, xs, ys, center)


def level_length_2d(
    r: Realization, region: Region, grid_n: int = 512, *, self_check: bool = True
) -> float:
    """Length of the nodal curve {X = 0} inside the box, by marching squares.

    Linear interpolation on cell edges; four-crossing saddle cells are
    disambiguated by evaluating the field at the cell center.  With
    self_check on, doubling the grid must agree within 1% or GridTooCoarse
    is raised.
    """
    if r.field.dim != 2 or r.field.n_components != 1:
        raise DimensionMismatch("level_length_2d needs a scalar field on R^2")
    if region.dim != 2:
        raise DimensionMismatch(f"region dimension {region.dim} != 2")
    if grid_n < 256:
        raise OutOfRange(f"grid_n must be at least 256, got {grid_n}")
    length = _length_2d(r, region, grid_n)
    if self_check:
        refined = _length_2d(r, region, 2 * grid_n)
        if abs(refined - length) > 0.01 * max(abs(refined), 1e-12):
            raise GridTooCoarse(
                f"length moved from {length:.6g} to {refined:.6g} when doubling grid_n"
            )
    return length


# ---------------------------------------------------------------------------
# realization experiments

EXPERIMENT_CHUNK = 256


def _experiment_estimate(
    counts: np.ndarray, seed: int, ci_level: float
) -> MCEstimate:
    n = counts.shape[0]
    mean = float(np.mean(counts))
    se = float(np.std(counts, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MCEstimate(
        mean=mean,
        std_error=se,
        n_samples=n,
        seed=seed,
        ci_level=ci_level,
        ci_half_width=normal_quantile(ci_level) * se,
    )


def _chunk_coefficients(
    field: FieldSpec, seed: int, start: int, size: int
) -> list[tuple[np.ndarray, ...]]:
    """Coefficient blocks for realizations start .. start+size-1.

    Realization i always uses RngStream(seed, i), so experiment results do
    not depend on the chunk size and match simulate_realization one-by-one.
    """
    return [
        _coefficient_blocks(field, RngStream(seed, start + i).generator())
        for i in range(size)
    ]


def _batched_trig_values(
    spec: KernelSpec,
    cos_basis: np.ndarray,
    sin_basis: np.ndarray,
    blocks: list[tuple[np.ndarray, ...]],
    component: int,
) -> np.ndarray:
    """(m, R) values of one trig component for a chunk of realizations."""
    coef = np.stack([b[component] for b in blocks], axis=2)  # (A, 2, R)
    return cos_basis @ coef[:, 0, :] + sin_basis @ coef[:, 1, :]


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
    if field.dim != 1 or field.n_components != 1:
        raise DimensionMismatch("the 1-D count experiment needs a scalar field on R^1")
    if region.dim != 1:
        raise DimensionMismatch(f"region dimension {region.dim} != 1")
    if n_realizations < 2:
        raise OutOfRange(f"need at least 2 realizations, got {n_realizations}")
    if grid_n < 256:
        raise OutOfRange(f"grid_n must be at least 256, got {grid_n}")
    spec = field.components[0]
    nodes = _axis_nodes(region, 2 * grid_n)

    if spec.kind == TRIG:
        phase = nodes[:, None] * spec.frequencies[:, 0][None, :]
        basis_cos, basis_sin = np.cos(phase), np.sin(phase)
    else:
        powers = nodes[:, None] ** spec.degrees.astype(float)[None, :]

    def chunk_counts(start: int, size: int) -> tuple[np.ndarray, int]:
        blocks = _chunk_coefficients(field, seed, start, size)
        if spec.kind == TRIG:
            vals = _batched_trig_values(spec, basis_cos, basis_sin, blocks, 0)
        else:
            vals = powers @ np.stack([b[0] for b in blocks], axis=1)
        fine = _sign_change_count(vals)
        coarse = _sign_change_count(vals[::2])
        return fine, int(np.count_nonzero(fine != coarse))

    counts, moved = _run_chunks(chunk_counts, n_realizations, threads)
    if moved > 0.01 * n_realizations:
        raise GridTooCoarse(
            f"{moved} of {n_realizations} realizations changed count under grid doubling"
        )
    return _experiment_estimate(counts, seed, ci_level)


def _run_chunks(
    worker: Callable[[int, int], tuple[np.ndarray, int]], total: int, threads: int
) -> tuple[np.ndarray, int]:
    """Map worker(start, size) over fixed chunks, in order; results are
    per-realization, so the schedule cannot affect the outcome."""
    spans = [
        (s, min(EXPERIMENT_CHUNK, total - s)) for s in range(0, total, EXPERIMENT_CHUNK)
    ]
    if threads <= 1 or len(spans) == 1:
        parts = [worker(s, n) for s, n in spans]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda sn: worker(*sn), spans))
    counts = np.concatenate([p[0] for p in parts])
    return counts, sum(p[1] for p in parts)


def zero_count_experiment_2d(
    field: FieldSpec,
    region: Region,
    n_realizations: int,
    seed: int = 0,
    *,
    grid_n: int = 128,
    tol: float = 1e-9,
    ci_level: float = 0.99,
    threads: int = 1,
) -> MCEstimate:
    """Mean number of common zeros of a (d=2, k=2) field over realizations."""
    if field.dim != 2 or field.n_components != 2:
        raise DimensionMismatch("the 2-D count experiment needs two components on R^2")
    if region.dim != 2:
        raise DimensionMismatch(f"region dimension {region.dim} != 2")
    if n_realizations < 2:
        raise OutOfRange(f"need at least 2 realizations, got {n_realizations}")
    if grid_n < 128:
        raise OutOfRange(f"grid_n must be at least 128, got {grid_n}")
    if any(c.kind != TRIG for c in field.components):
        raise DimensionMismatch("2-D fields are trigonometric by construction")
    pts = _grid_points(region, grid_n)
    bases = []
    for spec in field.components:
        phase = pts @ spec.frequencies.T
        bases.append((np.cos(phase), np.sin(phase)))

    def chunk_counts(start: int, size: int) -> tuple[np.ndarray, int]:
        blocks = _chunk_coefficients(field, seed, start, size)
        vals = [
            _batched_trig_values(field.components[c], bases[c][0], bases[c][1], blocks, c)
            for c in range(2)
        ]
        out = np.empty(size, dtype=np.int64)
        for i in range(size):
            grid_vals = np.stack(
                [vals[0][:, i], vals[1][:, i]], axis=1
            ).reshape(grid_n + 1, grid_n + 1, 2)
            real = Realization(field, blocks[i])
            out[i] = _roots_2d(real, region, grid_n, tol, values=grid_vals).shape[0]
        return out, 0

    counts, _ = _run_chunks(chunk_counts, n_realizations, threads)
    return _experiment_estimate(counts, seed, ci_level)


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

    The first realization runs the full doubling self-check; the rest reuse
    the validated grid.
    """
    if field.dim != 2 or field.n_components != 1:
        raise DimensionMismatch("the nodal-length experiment needs a scalar field on R^2")
    if region.dim != 2:
        raise DimensionMismatch(f"region dimension {region.dim} != 2")
    if n_realizations < 2:
        raise OutOfRange(f"need at least 2 realizations, got {n_realizations}")
    if grid_n < 256:
        raise OutOfRange(f"grid_n must be at least 256, got {grid_n}")
    spec = field.components[0]
    if spec.kind != TRIG:
        raise DimensionMismatch("2-D fields are trigonometric by construction")
    pts = _grid_points(region, grid_n)
    phase = pts @ spec.frequencies.T
    cos_basis, sin_basis = np.cos(phase), np.sin(phase)
    level_length_2d(
        simulate_realization(field, RngStream(seed, 0)), region, grid_n, self_check=True
    )

    def chunk_lengths(start: int, size: int) -> tuple[np.ndarray, int]:
        blocks = _chunk_coefficients(field, seed, start, size)
        vals = _batched_trig_values(spec, cos_basis, sin_basis, blocks, 0)
        out = np.empty(size)
        for i in range(size):
            real = Realization(field, blocks[i])
            out[i] = _length_2d(
                real, region, grid_n, values=vals[:, i].reshape(grid_n + 1, grid_n + 1)
            )
        return out, 0

    lengths, _ = _run_chunks(chunk_lengths, n_realizations, threads)
    return _experiment_estimate(lengths, seed, ci_level)


# ---------------------------------------------------------------------------
# JSON plumbing


def field_to_json(field: FieldSpec) -> dict:
    comps = []
    for spec in field.components:
        if spec.kind == TRIG:
            atoms = [{"w": a.w, "omega": a.omega.tolist()} for a in spec.atoms]
        else:
            atoms = [{"w": a.w, "degree": a.degree} for a in spec.atoms]
        comps.append({"kind": spec.kind, "atoms": atoms})
    return {"dim": field.dim, "components": comps}


def _atom_from_json(kind: str, obj, where: str):
    if not isinstance(obj, dict) or "w" not in obj:
        raise OutOfRange(f"{where}: atom must be an object with a 'w' field")
    if kind == TRIG:
        if "omega" not in obj or set(obj) - {"w", "omega"}:
            raise OutOfRange(f"{where}: trig atom needs exactly 'w' and 'omega'")
        return TrigAtom(obj["w"], obj["omega"])
    if "degree" not in obj or set(obj) - {"w", "degree"}:
        raise OutOfRange(f"{where}: polynomial atom needs exactly 'w' and 'degree'")
    return PolyAtom(obj["w"], obj["degree"])


def field_from_json(obj) -> FieldSpec:
    if not isinstance(obj, dict) or set(obj) != {"dim", "components"}:
        raise OutOfRange("field JSON must be an object with 'dim' and 'components'")
    dim = obj["dim"]
    if not isinstance(dim, int):
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
        if kind not in (TRIG, POLYNOMIAL):
            raise OutOfRange(f"{where}: unknown kind {kind!r}")
        atoms_raw = c["atoms"]
        if not isinstance(atoms_raw, list) or not atoms_raw:
            raise OutOfRange(f"{where}: 'atoms' must be a nonempty array")
        atoms = tuple(_atom_from_json(kind, a, where) for a in atoms_raw)
        comps.append(KernelSpec(kind, atoms))
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
