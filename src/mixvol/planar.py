"""Planar convex bodies through their support functions.

A convex body K in the plane is represented by its support function
h(theta) = sup_{x in K} <x, (cos theta, sin theta)> together with the
derivative h'(theta).  Area follows from the Cauchy formula

    Area(K) = (1/2) integral_0^{2 pi} (h^2 - h'^2) d theta,

evaluated with the periodic trapezoid rule, which is spectrally accurate
for smooth bodies.  Support functions add under Minkowski sums, so mixed
areas come out of the polarization

    V(K, L) = (Area(K + L) - Area(K) - Area(L)) / 2

and, as a cross-check, out of a least-squares fit of the Minkowski
quadratic Area(s K + t L) = c20 s^2 + c11 s t + c02 t^2 with c11 = 2 V(K, L).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NonConvexBody, OutOfRange
from .geometry import Ellipsoid, freeze, rescale_pow2

# Convexity slack for the grid test of h + h'' >= 0: second differences of a
# spectrally sampled support function carry O(delta^2) noise, not exact zeros.
CONVEXITY_SLACK = 1e-8


@dataclass(frozen=True)
class SupportBody2D:
    """Planar convex body given by vectorized h(theta) and h'(theta)."""

    h: Callable[[np.ndarray], np.ndarray]
    h_prime: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def from_ellipsoid(e: Ellipsoid) -> "SupportBody2D":
        """Centered ellipse with representing matrix sigma.

        h(theta) = sqrt(u' sigma u) for u = (cos theta, sin theta), and
        h'(theta) = (du/dtheta)' sigma u / h(theta).
        """
        if e.dim != 2:
            raise DimensionMismatch(f"planar oracle needs dimension 2, got {e.dim}")
        s = e.sigma.entries

        def h(theta: np.ndarray) -> np.ndarray:
            theta = np.asarray(theta, dtype=float)
            c, sn = np.cos(theta), np.sin(theta)
            q = s[0, 0] * c * c + 2.0 * s[0, 1] * c * sn + s[1, 1] * sn * sn
            return np.sqrt(q)

        def h_prime(theta: np.ndarray) -> np.ndarray:
            theta = np.asarray(theta, dtype=float)
            c, sn = np.cos(theta), np.sin(theta)
            # d/dtheta of u' sigma u, halved: (u_theta)' sigma u
            num = (s[1, 1] - s[0, 0]) * c * sn + s[0, 1] * (c * c - sn * sn)
            return num / h(theta)

        return SupportBody2D(h=h, h_prime=h_prime)

    @staticmethod
    def from_disk(radius: float = 1.0) -> "SupportBody2D":
        if radius <= 0.0:
            raise OutOfRange(f"disk radius must be positive, got {radius}")
        r = float(radius)
        return SupportBody2D(
            h=lambda theta: np.full_like(np.asarray(theta, dtype=float), r),
            h_prime=lambda theta: np.zeros_like(np.asarray(theta, dtype=float)),
        )

    def add(self, other: "SupportBody2D") -> "SupportBody2D":
        """Minkowski sum: support functions add pointwise."""
        return SupportBody2D(
            h=lambda theta: self.h(theta) + other.h(theta),
            h_prime=lambda theta: self.h_prime(theta) + other.h_prime(theta),
        )

    def scale(self, c: float) -> "SupportBody2D":
        _check_scale(c)
        return SupportBody2D(
            h=lambda theta: c * self.h(theta),
            h_prime=lambda theta: c * self.h_prime(theta),
        )

    def __add__(self, other: "SupportBody2D") -> "SupportBody2D":
        return self.add(other)

    def __mul__(self, c: float) -> "SupportBody2D":
        return self.scale(c)

    __rmul__ = __mul__


def _check_scale(c: float) -> None:
    if c < 0.0:
        raise OutOfRange(f"scale factor must be nonnegative, got {c}")


def _grid(n_theta: int) -> tuple[np.ndarray, float]:
    if n_theta < 64 or n_theta % 2:
        raise OutOfRange(
            f"angular grid needs an even node count >= 64, got {n_theta}"
        )
    delta = 2.0 * np.pi / n_theta
    return np.arange(n_theta) * delta, delta


def _sample(body: SupportBody2D, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.asarray(body.h(theta), dtype=float), np.asarray(body.h_prime(theta), dtype=float)


def _area(h: np.ndarray, hp: np.ndarray, delta: float) -> float:
    """area_from_support on (h, h') already sampled at grid spacing delta;
    the sum reads h and h' over 2^e, e the binary exponent of max |h| >= |h'|."""
    h_pp = (np.roll(hp, -1) - np.roll(hp, 1)) / (2.0 * delta)
    top = float(np.max(np.abs(h)))
    defect = h + h_pp
    if np.any(defect < -CONVEXITY_SLACK * max(1.0, top)):
        raise NonConvexBody(
            f"support function violates h + h'' >= 0 (min {float(np.min(defect)):.3e})"
        )
    e = math.frexp(top)[1]
    # periodic integrand: trapezoid == left rule, spectral for smooth h
    area = 0.5 * float(np.sum(np.ldexp(h, -e) ** 2 - np.ldexp(hp, -e) ** 2)) * delta
    return rescale_pow2(area, 2 * e, "area from the support function")


def area_from_support(body: SupportBody2D, n_theta: int = 512) -> float:
    """Cauchy area integral on a uniform angular grid.

    Rejects with NonConvexBody when the curvature test h + h'' >= 0 fails on
    the grid (h'' by periodic central differences of h').
    """
    theta, delta = _grid(n_theta)
    return _area(*_sample(body, theta), delta)


def mixed_area_oracle(k: SupportBody2D, l: SupportBody2D, n_theta: int = 512) -> float:
    """V(K, L) by polarizing the area of the Minkowski sum.

    Each body is sampled once; the sum's support function is hk + hl, the
    same arrays that k.add(l) would produce.  Convexity is tested on K + L,
    then K, then L.
    """
    return _polarize(*_sample_pair(k, l, n_theta))[0]


def _sample_pair(k: SupportBody2D, l: SupportBody2D, n_theta: int):
    """(h_K, h_K', h_L, h_L') on the grid of n_theta nodes, and its spacing."""
    theta, delta = _grid(n_theta)
    return (*_sample(k, theta), *_sample(l, theta), delta)


def _polarize(hk, hpk, hl, hpl, delta) -> tuple[float, float, float]:
    """(V(K, L), Area(K), Area(L)) from sampled support functions."""
    total = _area(hk + hl, hpk + hpl, delta)
    area_k, area_l = _area(hk, hpk, delta), _area(hl, hpl, delta)
    return 0.5 * (total - area_k - area_l), area_k, area_l


@dataclass(frozen=True)
class MinkowskiFit:
    """Least-squares coefficients of Area(s K + t L) = c20 s^2 + c11 s t + c02 t^2."""

    c20: float
    c11: float
    c02: float
    max_residual: float

    @property
    def mixed_area(self) -> float:
        return 0.5 * self.c11


# The (s, t) scale pairs of the quadratic fit: a 3 x 3 product grid, well
# separated so the Vandermonde-like design stays mildly conditioned.
DEFAULT_SCALES = tuple((s, t) for s in (0.5, 1.0, 1.5) for t in (0.5, 1.0, 1.5))
_DESIGN = freeze(np.array([[s * s, s * t, t * t] for s, t in DEFAULT_SCALES]))


def minkowski_poly_check(k: SupportBody2D, l: SupportBody2D, n_theta: int = 512) -> MinkowskiFit:
    """Fit the Minkowski quadratic over the 3 x 3 grid DEFAULT_SCALES of
    scale pairs.

    The fitted c11 / 2 must agree with mixed_area_oracle; a disagreement
    flags a broken support function.
    """
    return _fit(*_sample_pair(k, l, n_theta))


def _fit(hk, hpk, hl, hpl, delta) -> MinkowskiFit:
    # s hk + t hl: the arrays of k.scale(s).add(l.scale(t)), from one sampling
    areas = np.array([_area(s * hk + t * hl, s * hpk + t * hpl, delta) for s, t in DEFAULT_SCALES])
    coef, *_ = np.linalg.lstsq(_DESIGN, areas, rcond=None)
    resid = float(np.max(np.abs(_DESIGN @ coef - areas)))
    return MinkowskiFit(
        c20=float(coef[0]), c11=float(coef[1]), c02=float(coef[2]), max_residual=resid
    )


@dataclass(frozen=True)
class PlanarReport:
    """V(K, L), the Minkowski fit and both areas, from one grid."""

    mixed_area: float
    fit: MinkowskiFit
    area_first: float
    area_second: float


def planar_report(k: SupportBody2D, l: SupportBody2D, n_theta: int = 512) -> PlanarReport:
    """mixed_area_oracle, minkowski_poly_check and the area_from_support of
    each body, bit for bit, from one sampling of each body.

    Convexity is tested in the order those calls test it: K + L, K, L, then
    the scale pairs.
    """
    samples = _sample_pair(k, l, n_theta)
    mixed, area_k, area_l = _polarize(*samples)
    return PlanarReport(mixed, _fit(*samples), area_k, area_l)
