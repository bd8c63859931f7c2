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

from .grids import CylinderGrid, Field, GridError, axial_derivative, section_derivative

# e^x overflows double precision just above x ~ 709
MAX_EXPONENT = 700.0
_EPS = float(np.finfo(float).eps)
# ``cell_fraction`` reads an s = -R / h within _NODE_SNAP |s| of a whole
# number as that number
_NODE_SNAP = 4 * _EPS


class WeightOverflowError(OverflowError):
    """Weight exponent exceeds the safe range; caller must move z_ref."""


@dataclass(frozen=True)
class WeightedMeasure:
    c: float
    z_ref: float = 0.0

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("weight rate must be positive, got %g" % self.c)


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


def node_sums(w: np.ndarray, *factors: np.ndarray) -> np.ndarray:
    """``sum(w * x * ...)`` over each field's own nodes, for fields stacked on
    the leading axes of the ``(..., n_y, n_z)`` factors, as an array of the
    leading shape.  One ``np.einsum`` loop per field, never a BLAS product,
    so a field's sum does not depend on the stack it is in."""
    rows = [x.reshape(-1, w.size) for x in factors]
    return np.einsum("rk," * len(rows) + "k->r", *rows, w.reshape(-1)).reshape(
        factors[0].shape[:-2])


def weighted_sums(values: np.ndarray, grid: CylinderGrid, m: WeightedMeasure,
                  order: int = 0) -> np.ndarray:
    """The squared weighted L2, H1 and H2 norms, up to ``order``, of every
    field stacked on the leading axes of ``values``: a list of ``order + 1``
    arrays of the leading shape.  H1 adds the sums of the first discrete
    derivatives to the L2 sum and H2 those of the second too, with section
    terms only where n_y > 1."""
    w = quadrature_weights(grid, m)
    fields, sums = [values], [node_sums(w, values, values)]
    for _ in range(order):
        # the next order: d/dz of each derivative so far, d/dy of the pure-y one
        fields = ([axial_derivative(x, grid) for x in fields]
                  + ([section_derivative(fields[-1], grid)] if grid.n_y > 1 else []))
        sums.append(sums[-1] + sum(node_sums(w, x, x) for x in fields))
    return sums


def weighted_inner(u: Field, v: Field, m: WeightedMeasure) -> float:
    """Symmetric bilinear pairing ``int e^{c(z-z_ref)} u v``."""
    if u.grid is not v.grid and u.grid != v.grid:
        raise ValueError("fields live on different grids")
    return float(node_sums(quadrature_weights(u.grid, m), u.values, v.values))


def weighted_norm_l2(u: Field, m: WeightedMeasure) -> float:
    return math.sqrt(weighted_sums(u.values, u.grid, m)[0])


def weighted_norm_h1(u: Field, m: WeightedMeasure) -> float:
    """L2 norm of u and of its discrete gradient, root-sum-square."""
    return math.sqrt(weighted_sums(u.values, u.grid, m, 1)[1])


def weighted_norm_h2(u: Field, m: WeightedMeasure) -> float:
    """Norm including all first and second discrete derivatives."""
    return math.sqrt(weighted_sums(u.values, u.grid, m, 2)[2])


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


def cell_fraction(R: float, h: float) -> tuple[int, float]:
    """``(k, t)`` with ``-R / h = k + t``, ``0 <= t < 1``: moved by ``-R``,
    node j lies in interval ``j + k`` at fraction t.  A shift within rounding
    of a whole number of cells gives ``t = 0``."""
    s = -R / h
    k = round(s)
    if abs(s - k) <= _NODE_SNAP * abs(s):
        return k, 0.0
    k = math.floor(s)
    return k, s - k


def offset_resolution(R: float, h: float) -> float:
    """Bound on the distance between the shifts that the cells and offsets
    of ``cell_fraction`` stand for, ``-(k h + fl(t h))``, at R and at a
    float adjacent to it: the finest step in R that a function of the cell
    and the offset can resolve.

    Adjacent floats at R are at most ``ulp(R)`` apart.  The shift that
    each stands for is off from the float itself by the rounding of
    ``q = fl(-R / h)``, at most ``eps |R| / 2`` in z, of ``t = q - k``,
    exact (Sterbenz) except for ``-1 < q < 0``, where it is at most
    ``eps h / 2``, and of ``fl(t h)``, at most ``eps h / 2`` since
    ``t h < h``: ``eps (|R| / 2 + h)`` in all, twice for the pair.  Every
    shift within ``_NODE_SNAP |R|`` of a node is read as the node, which
    adds up to that much between a float inside that band and one outside.
    """
    return math.ulp(R) + _EPS * (abs(R) + 2 * h) + _NODE_SNAP * abs(R)


def shifted_cell(y: np.ndarray, d: np.ndarray, h: float, k: int,
                 node: bool = False) -> np.ndarray:
    """Arrays ``(a0, a1, a2, a3)``, stacked on a first axis, of the Hermite
    cubic through node values ``y`` with slopes ``d`` (last axis, spacing
    ``h``) at every node moved by ``-R`` with ``-R / h = k + t``
    (``cell_fraction``).  Node j then reads interval ``j + k`` at offset
    ``s = t h``, where the cubic is ``a0 + s a1 + s^2 a2 + s^3 a3``: the
    arrays depend on the cell k alone.

    A node moved past an end takes that end's value in ``a0`` and zeros in
    ``a1..a3``.  With ``node`` (a shift by a whole number of cells, t = 0)
    the node moved exactly onto the right end is inside: it keeps the end
    slope in ``a1``.
    """
    n = y.shape[-1]
    # node j reads interval j + k (nodes lo..hi-1 fall inside the window)
    lo = min(max(-k, 0), n)
    hi = min(max(n - 1 - k, lo), n)
    a = np.zeros((4,) + np.shape(y))
    a[0, ..., :lo] = y[..., :1]
    a[0, ..., hi:] = y[..., -1:]
    y0, d0 = y[..., lo + k:hi + k], d[..., lo + k:hi + k]
    d1 = d[..., lo + k + 1:hi + k + 1]
    secant = (y[..., lo + k + 1:hi + k + 1] - y0) / h
    a[0, ..., lo:hi] = y0
    a[1, ..., lo:hi] = d0
    a[2, ..., lo:hi] = (3 * secant - 2 * d0 - d1) / h
    a[3, ..., lo:hi] = (d0 + d1 - 2 * secant) / (h * h)
    if node and 0 <= k < n:
        a[1, ..., n - 1 - k] = d[..., -1]
    return a


def cell_value(a: np.ndarray, s: float) -> np.ndarray:
    """The cubic of ``shifted_cell`` arrays at offset s, by Horner: exactly
    ``a0`` at s = 0."""
    v = a[3] * s
    v += a[2]
    v *= s
    v += a[1]
    v *= s
    v += a[0]
    return v


def shifted_hermite(y: np.ndarray, d: np.ndarray, h: float, R: float) -> np.ndarray:
    """Hermite cubic through node values ``y`` with slopes ``d`` (last axis,
    spacing ``h``) at every node moved by ``-R``.

    Every moved node sits at the same fraction t of its interval, so this is
    one ``shifted_cell`` and a Horner evaluation.  A shift within rounding
    of a whole number of cells reads the nodes themselves.  Nodes moved past
    an end take that end's value.
    """
    k, t = cell_fraction(R, h)
    return cell_value(shifted_cell(y, d, h, k, node=t == 0.0), t * h)


def translations(u: Field, radii) -> np.ndarray:
    """``translate(u, R).values`` for every R in ``radii``, stacked on a
    first axis: one set of PCHIP slopes for all of them."""
    g = u.grid
    half = 0.5 * g.window_length
    if any(abs(R) >= half for R in radii):
        raise ValueError("translation %g exceeds half the window length %g"
                         % (max(radii, key=abs), half))
    d = pchip_slopes(u.values, g.dz)
    out = np.empty((len(radii),) + g.shape)
    for i, R in enumerate(radii):
        out[i] = u.values if R == 0.0 else shifted_hermite(u.values, d, g.dz, R)
    if not np.isfinite(out).all():
        raise GridError("field contains non-finite entries")
    return out


def translate(u: Field, R: float) -> Field:
    """Shift along the axis: ``(T_R u)(., z) = u(., z - R)``.

    Rows are interpolated with monotone (PCHIP) cubics, so monotone profiles
    stay monotone; coordinates beyond the window take the boundary value.
    """
    return Field.checked(u.grid, translations(u, [R])[0])
