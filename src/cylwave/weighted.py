"""Exponentially weighted inner products, norms, and the axial translation.

All quantities integrate against ``e^{c (z - z_ref)}``; ``z_ref`` is a pure
bookkeeping offset guarding against overflow on long windows.  Norms taken
with different offsets convert exactly through ``e^{c (ref1 - ref2) / 2}``.

The translation and the tracker's template are piecewise cubic Hermite
interpolants along the axis, built here from NumPy alone: monotone slopes
(Fritsch & Carlson, SIAM J. Numer. Anal. 17 (1980)) or not-a-knot spline
slopes, evaluated on the grid itself or at arbitrary points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_banded

from .grids import CylinderGrid, Field, axial_derivative, section_derivative

# e^x overflows double precision just above x ~ 709
MAX_EXPONENT = 700.0


class WeightOverflowError(OverflowError):
    """Weight exponent exceeds the safe range; caller must move z_ref."""


@dataclass(frozen=True)
class WeightedMeasure:
    c: float
    z_ref: float = 0.0

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("weight rate must be positive, got %g" % self.c)

    def shifted(self, z_ref: float) -> "WeightedMeasure":
        return WeightedMeasure(self.c, z_ref)

    def norm_factor(self, other_ref: float) -> float:
        """Factor converting norms at this offset to norms at ``other_ref``."""
        return float(np.exp(0.5 * self.c * (self.z_ref - other_ref)))


def weight_values(grid: CylinderGrid, m: WeightedMeasure) -> np.ndarray:
    """Pointwise weight ``e^{c (z - z_ref)}`` along the axis."""
    expo = m.c * (grid.z - m.z_ref)
    if expo.max() > MAX_EXPONENT:
        raise WeightOverflowError(
            "re-reference weight: exponent %.3g exceeds %.0f" % (expo.max(), MAX_EXPONENT)
        )
    return np.exp(expo)


@lru_cache(maxsize=4)
def quadrature_weights(grid: CylinderGrid, m: WeightedMeasure) -> np.ndarray:
    """Trapezoidal (n_y, n_z) quadrature weights including the exponential,
    cached per (grid, measure) and read-only."""
    wz = np.full(grid.n_z, grid.dz)
    wz[0] = wz[-1] = 0.5 * grid.dz
    wz *= weight_values(grid, m)
    w = grid.section_weights()[:, None] * wz[None, :]
    w.flags.writeable = False
    return w


def weighted_inner(u: Field, v: Field, m: WeightedMeasure) -> float:
    """Symmetric bilinear pairing ``int e^{c(z-z_ref)} u v``."""
    if u.grid is not v.grid and u.grid != v.grid:
        raise ValueError("fields live on different grids")
    w = quadrature_weights(u.grid, m)
    return float(np.sum(w * u.values * v.values))


def weighted_norm_l2(u: Field, m: WeightedMeasure) -> float:
    w = quadrature_weights(u.grid, m)
    return float(np.sqrt(np.sum(w * u.values ** 2)))


def weighted_norm_h1(u: Field, m: WeightedMeasure) -> float:
    """L2 norm of u and of its discrete gradient, root-sum-square."""
    w = quadrature_weights(u.grid, m)
    total = np.sum(w * u.values ** 2)
    total += np.sum(w * axial_derivative(u.values, u.grid) ** 2)
    if u.grid.n_y > 1:
        total += np.sum(w * section_derivative(u.values, u.grid) ** 2)
    return float(np.sqrt(total))


def weighted_norm_h2(u: Field, m: WeightedMeasure) -> float:
    """Norm including all first and second discrete derivatives."""
    g = u.grid
    w = quadrature_weights(g, m)
    uz = axial_derivative(u.values, g)
    uzz = axial_derivative(uz, g)
    total = np.sum(w * u.values ** 2) + np.sum(w * uz ** 2) + np.sum(w * uzz ** 2)
    if g.n_y > 1:
        uy = section_derivative(u.values, g)
        uyy = section_derivative(uy, g)
        uyz = axial_derivative(uy, g)
        total += np.sum(w * uy ** 2) + np.sum(w * uyy ** 2) + np.sum(w * uyz ** 2)
    return float(np.sqrt(total))


def _pchip_end(m0, m1):
    """One-sided three-point end slope, limited to preserve shape."""
    d = 0.5 * (3.0 * m0 - m1)
    big = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(np.sign(d) != np.sign(m0), 0.0, np.where(big, 3.0 * m0, d))


def pchip_slopes(y: np.ndarray, h: float) -> np.ndarray:
    """Monotone (PCHIP) slopes along the last axis of nodes spaced ``h``.

    Inside: the harmonic mean of the two neighbouring secants, zero where
    they differ in sign or one is flat; at the ends: the shape-preserving
    three-point rule; with two nodes: the secant.  These are the rules of
    ``scipy.interpolate.PchipInterpolator``.
    """
    m = np.diff(y, axis=-1) / h
    d = np.empty(np.shape(y))
    if d.shape[-1] == 2:
        d[...] = m
        return d
    m0, m1 = m[..., :-1], m[..., 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = 2.0 / (1.0 / m0 + 1.0 / m1)
    d[..., 1:-1] = np.where((np.sign(m0) != np.sign(m1)) | (m0 == 0) | (m1 == 0),
                            0.0, mean)
    d[..., 0] = _pchip_end(m[..., 0], m[..., 1])
    d[..., -1] = _pchip_end(m[..., -1], m[..., -2])
    return d


def spline_slopes(y: np.ndarray, h: float) -> np.ndarray:
    """Slopes of the not-a-knot C^2 cubic spline along the last axis of
    nodes spaced ``h`` (at least four nodes): one tridiagonal solve."""
    n = y.shape[-1]
    m = np.diff(y, axis=-1) / h
    ab = np.empty((3, n))
    ab[0], ab[1], ab[2] = 1.0, 4.0, 1.0
    ab[0, 1] = ab[2, -2] = 2.0       # end rows: s0 + 2 s1 and 2 s_{n-2} + s_{n-1}
    ab[1, 0] = ab[1, -1] = 1.0
    rhs = np.empty(np.shape(y))
    rhs[..., 1:-1] = 3.0 * (m[..., :-1] + m[..., 1:])
    rhs[..., 0] = 0.5 * (5.0 * m[..., 0] + m[..., 1])
    rhs[..., -1] = 0.5 * (m[..., -2] + 5.0 * m[..., -1])
    return solve_banded((1, 1), ab, rhs.reshape(-1, n).T).T.reshape(rhs.shape)


def _cubic(t, h, y0, y1, d0, d1):
    """Hermite cubic on [x0, x0 + h] at fraction t: values y0, y1, slopes d0, d1.

    Written as y0 plus small corrections, so that where y1 is close to y0 the
    rounding stays at the level of y0's own.
    """
    return (y0 + t * t * (3 - 2 * t) * (y1 - y0)
            + h * t * (1 - t) * ((1 - t) * d0 - t * d1))


def hermite(x: np.ndarray, y: np.ndarray, d: np.ndarray, xq) -> np.ndarray:
    """Hermite cubic through nodes ``x`` with values ``y`` and slopes ``d``
    (last axis) at points ``xq`` inside ``[x[0], x[-1]]``."""
    i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    h = x[i + 1] - x[i]
    return _cubic((xq - x[i]) / h, h, y[..., i], y[..., i + 1], d[..., i], d[..., i + 1])


def shifted_hermite(y: np.ndarray, d: np.ndarray, h: float, R: float,
                    nu: int = 0) -> np.ndarray:
    """Hermite cubic through node values ``y`` with slopes ``d`` (last axis,
    spacing ``h``) at every node moved by ``-R``; ``nu=1`` gives its derivative.

    Every moved node sits at the same fraction t of its interval, so the
    evaluation is a few scaled slices.  A shift within rounding of a whole
    number of cells reads the nodes themselves.  Nodes moved past an end take
    that end's value (``nu=0``) or zero (``nu=1``).
    """
    n = y.shape[-1]
    s = -R / h
    k = round(s)
    if abs(s - k) <= 4 * np.finfo(float).eps * abs(s):
        t = 0.0                     # a whole number of cells, up to rounding
    else:
        k = math.floor(s)
        t = s - k
    # node j reads interval j + k at fraction t (node j + k itself when t = 0)
    lo = min(max(-k, 0), n)
    hi = min(max(n - 1 - k + (t == 0.0), lo), n)
    out = np.empty(np.shape(y))
    out[..., :lo] = y[..., :1] if nu == 0 else 0.0
    out[..., hi:] = y[..., -1:] if nu == 0 else 0.0
    y0, d0 = y[..., lo + k:hi + k], d[..., lo + k:hi + k]
    if t == 0.0:
        out[..., lo:hi] = y0 if nu == 0 else d0
        return out
    y1, d1 = y[..., lo + k + 1:hi + k + 1], d[..., lo + k + 1:hi + k + 1]
    if nu == 0:
        out[..., lo:hi] = _cubic(t, h, y0, y1, d0, d1)
    else:
        out[..., lo:hi] = (6 * t * (1 - t) / h * (y1 - y0) + (1 - t) * (1 - 3 * t) * d0
                           + t * (3 * t - 2) * d1)
    return out


def translate(u: Field, R: float) -> Field:
    """Shift along the axis: ``(T_R u)(., z) = u(., z - R)``.

    Rows are interpolated with monotone (PCHIP) cubics, so monotone profiles
    stay monotone; coordinates beyond the window take the boundary value.
    """
    g = u.grid
    if abs(R) >= 0.5 * g.window_length:
        raise ValueError(
            "translation %g exceeds half the window length %g" % (R, 0.5 * g.window_length)
        )
    if R == 0.0:
        return u.copy()
    return Field(g, shifted_hermite(u.values, pchip_slopes(u.values, g.dz), g.dz, R))
