"""Truncated-cylinder grids, grid functions, and the discrete transport operator.

The domain is a tensor product of a 1D cross-section (or a single point in
pure-1D mode) with a truncated axial window.  The axial operator
``d2/dz2 + c d/dz`` is assembled in exponentially fitted flux form, which is
second-order, exact on constants and on ``u = z`` at interior nodes, an
M-matrix for every ``c >= 0``, and self-adjoint in the discrete exponentially
weighted inner product.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

NEUMANN = "neumann"
DIRICHLET = "dirichlet"


class GridError(ValueError):
    """Invalid grid configuration or mismatched field."""


@dataclass(frozen=True)
class GridConfig:
    """Raw grid parameters as read from an experiment config."""

    n_y: int = 1
    n_z: int = 401
    y_min: float = 0.0
    y_max: float = 1.0
    z_min: float = -20.0
    z_max: float = 20.0
    bc_left: str = NEUMANN
    bc_right: str = NEUMANN
    # axial ends: zero normal derivative behind the front, pinned zero ahead
    bc_axial_left: str = NEUMANN
    bc_axial_right: str = DIRICHLET


@dataclass(frozen=True)
class CylinderGrid(GridConfig):
    """Immutable tensor grid for the truncated cylinder, built by ``build_grid``.

    ``n_y == 1`` selects pure-1D mode: the cross-section collapses to a point
    with unit measure and both cross-section tags are Neumann.  The derived
    geometry is computed once per grid; its arrays are shared, hence
    read-only, and stay out of equality and hashing.
    """

    @cached_property
    def dz(self) -> float:
        return (self.z_max - self.z_min) / (self.n_z - 1)

    @cached_property
    def dy(self) -> float:
        return 0.0 if self.n_y == 1 else (self.y_max - self.y_min) / (self.n_y - 1)

    @cached_property
    def y(self) -> np.ndarray:
        if self.n_y == 1:
            y = np.array([0.5 * (self.y_min + self.y_max)])
        else:
            y = np.linspace(self.y_min, self.y_max, self.n_y)
        y.flags.writeable = False
        return y

    @cached_property
    def z(self) -> np.ndarray:
        z = np.linspace(self.z_min, self.z_max, self.n_z)
        z.flags.writeable = False
        return z

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_y, self.n_z)

    @property
    def window_length(self) -> float:
        return self.z_max - self.z_min

    @cached_property
    def dirichlet_mask(self) -> np.ndarray:
        """Boolean (n_y, n_z) mask of nodes pinned to zero: the one place the
        boundary tags decide which nodes are pinned."""
        mask = np.zeros(self.shape, dtype=bool)
        if self.n_y > 1:
            if self.bc_left == DIRICHLET:
                mask[0, :] = True
            if self.bc_right == DIRICHLET:
                mask[-1, :] = True
        if self.bc_axial_right == DIRICHLET:
            mask[:, -1] = True
        mask.flags.writeable = False
        return mask

    def section_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights over the cross-section."""
        if self.n_y == 1:
            return np.array([1.0])
        w = np.full(self.n_y, self.dy)
        w[0] = w[-1] = 0.5 * self.dy
        return w


def build_grid(config: GridConfig) -> CylinderGrid:
    """Validate a configuration; the grid derives its own geometry."""
    if config.n_z < 16:
        raise GridError("axial resolution too small: n_z = %d < 16" % config.n_z)
    if config.n_y < 1:
        raise GridError("n_y must be >= 1, got %d" % config.n_y)
    if not config.z_min < config.z_max:
        raise GridError("axial window is empty: [%g, %g]" % (config.z_min, config.z_max))
    for tag in (config.bc_left, config.bc_right, config.bc_axial_right):
        if tag not in (NEUMANN, DIRICHLET):
            raise GridError("unknown boundary tag %r" % tag)
    if config.bc_axial_left != NEUMANN:
        raise GridError("axial left end supports only %r, got %r" % (NEUMANN, config.bc_axial_left))

    if config.n_y == 1:
        if DIRICHLET in (config.bc_left, config.bc_right):
            raise GridError("pure-1D mode requires Neumann cross-section tags")
    else:
        if not config.y_min < config.y_max:
            raise GridError("cross-section interval is empty: [%g, %g]" % (config.y_min, config.y_max))
        if config.n_y == 2:
            # the second-order one-sided d/dy at the section ends needs three nodes
            raise GridError("n_y = 2 is too few cross-section nodes: need 1 or >= 3")
    return CylinderGrid(**asdict(config))


def half_grid(grid: CylinderGrid) -> CylinderGrid | None:
    """The grid of every other node, whose node (i, j) is node (2i, 2j) of
    ``grid``, so a field restricts to it by injection, ``values[::2, ::2]``.

    Every axis with more than one node needs an odd count n, which becomes
    (n + 1) / 2.  None when an axis has an even count, or when
    ``build_grid`` refuses the half grid (n_z < 31, or n_y = 3).
    """
    if any(n > 1 and n % 2 == 0 for n in grid.shape):
        return None
    try:
        return build_grid(replace(grid, n_y=(grid.n_y + 1) // 2, n_z=(grid.n_z + 1) // 2))
    except GridError:
        return None


@dataclass
class Field:
    """Real-valued grid function stored as an (n_y, n_z) array."""

    grid: CylinderGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise GridError(
                "field shape %s does not match grid %s" % (self.values.shape, self.grid.shape)
            )
        if not np.isfinite(self.values).all():
            raise GridError("field contains non-finite entries")

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    @classmethod
    def checked(cls, grid: CylinderGrid, values: np.ndarray) -> "Field":
        """A field of float ``values`` that the caller has already found
        finite and of the grid's shape: the checks are not repeated."""
        u = cls.__new__(cls)
        u.grid, u.values = grid, values
        return u


@dataclass
class CrossSectionField:
    """Function on the cross-section only (length n_y)."""

    grid: CylinderGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_y,):
            raise GridError("cross-section field length %d, expected %d"
                            % (self.values.size, self.grid.n_y))
        if not np.all(np.isfinite(self.values)):
            raise GridError("cross-section field contains non-finite entries")
        # pinned ends hold zero exactly (the axial left end is never pinned)
        self.values = np.where(self.grid.dirichlet_mask[:, 0], 0.0, self.values)


def apply_boundary(u: Field) -> Field:
    """Enforce value conditions: Dirichlet rows/columns are zeroed.

    Neumann ends are a stencil convention (mirror reflection inside the
    operator) and leave values untouched.  Idempotent by construction.
    """
    return Field(u.grid, np.where(u.grid.dirichlet_mask, 0.0, u.values))


def front_seed(grid: CylinderGrid, plateau, offset: float = 0.0,
               steepness: float = 1.0) -> Field:
    """Front-like seed: plateau on the left decaying to zero on the right;
    ``plateau`` is a number, a ``CrossSectionField`` or its values."""
    plat = np.broadcast_to(getattr(plateau, "values", plateau), grid.n_y)
    prof = 0.5 * (1.0 - np.tanh(steepness * (grid.z - offset)))
    return apply_boundary(Field(grid, plat[:, None] * prof[None, :]))


def fitted_flux(c: float, dz: float) -> tuple[float, float]:
    """``(a, kappa)`` of the exponentially fitted fluxes: ``a = c dz / 2``
    and ``kappa = a / sinh(a)`` (1 at a = 0)."""
    a = 0.5 * c * dz
    return a, 1.0 if abs(a) < 1e-12 else float(a / np.sinh(a))


@lru_cache(maxsize=16)
def axial_bands(grid: CylinderGrid, c: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower, diag, upper) diagonals of the axial operator with BC patches,
    cached per (grid, c) and read-only.

    In flux form the row of node j reads [F_{j-1/2} u_{j-1} - (F_{j-1/2} +
    F_{j+1/2}) u_j + F_{j+1/2} u_{j+1}] / (dz^2 W_j), W_j = e^{c z_j}, with
    fitted fluxes F_{j+1/2} = kappa (W_j W_{j+1})^{1/2} (``fitted_flux``).
    ``lower[j]`` couples node j to j-1, ``upper[j]`` to j+1; pinned rows
    come out as zero rows.
    """
    n = grid.n_z
    dz2 = grid.dz ** 2
    a, kappa = fitted_flux(c, grid.dz)
    # F_{j+1/2}/W_j = kappa e^{a} (left node);  F_{j+1/2}/W_{j+1} = kappa e^{-a}
    up, lo = kappa * np.exp(a), kappa * np.exp(-a)
    lower = np.full(n, lo / dz2)
    upper = np.full(n, up / dz2)
    diag = -(lower + upper)
    lower[0] = 0.0
    diag[0] = -up / dz2  # zero-flux left end: drop the F_{-1/2} contribution
    if grid.dirichlet_mask[:, -1].all():  # the axial right end is pinned
        lower[-1] = diag[-1] = 0.0
    else:
        diag[-1] = -lo / dz2
    upper[-1] = 0.0
    for band in (lower, diag, upper):
        band.flags.writeable = False
    return lower, diag, upper


@lru_cache(maxsize=16)
def _section_operator(grid: CylinderGrid) -> sp.csr_matrix:
    """Discrete ``d2/dy2`` on the cross-section: mirror rows at Neumann ends,
    zero rows at Dirichlet ends.  The one encoding of ``A_y``; shared, so
    callers must not modify it."""
    n = grid.n_y
    if n == 1:
        return sp.csr_matrix((1, 1))
    dy2 = grid.dy ** 2
    lower = np.full(n, 1.0 / dy2)
    upper = np.full(n, 1.0 / dy2)
    diag = np.full(n, -2.0 / dy2)
    upper[0] = lower[-1] = 2.0 / dy2  # mirror ghosts
    pinned = grid.dirichlet_mask[:, 0]
    lower[pinned] = diag[pinned] = upper[pinned] = 0.0
    return sp.diags([lower[1:], diag, upper[:-1]], offsets=[-1, 0, 1], format="csr")


def free_block(grid: CylinderGrid) -> tuple[slice, slice]:
    """``(rows, cols)`` such that the free (unpinned) nodes are ``values[rows, cols]``."""
    pinned = grid.dirichlet_mask  # a Dirichlet wall pins a whole row or column
    return (slice(int(pinned[0, 0]), grid.n_y - int(pinned[-1, 0])),
            slice(0, grid.n_z - int(pinned[:, -1].all())))


def symmetrized_section_operator(grid: CylinderGrid) -> tuple[slice, np.ndarray, np.ndarray]:
    """``(rows, sqrt_w, S)``: the free (unpinned) cross-section rows, the square
    roots of their trapezoid weights ``W``, and ``S = W^{1/2} A_y W^{-1/2}`` on
    them.  The weights make ``S`` symmetric (the Neumann mirror rows included)
    up to rounding; Dirichlet rows hold zero and drop out.
    """
    rows, _ = free_block(grid)
    w = np.sqrt(grid.section_weights()[rows])
    Ay = _section_operator(grid).toarray()[rows, rows]
    return rows, w, w[:, None] * Ay / w[None, :]


def symmetrized_band(grid: CylinderGrid, c: float,
                     diag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(band, scale)``: LAPACK's lower band storage of ``B = -W^{1/2} (A +
    diag(d)) W^{-1/2}`` on the free nodes (``free_block``), A the transport
    operator at speed ``c`` and ``d`` the grid-shaped ``diag``, and
    ``scale``, ``W^{1/2}`` there up to a constant factor, an ``(n_ry, n_zf)``
    array.

    W is the axial weight ``e^{c z}`` times the section's trapezoid weight,
    which make A self-adjoint; ``scale`` is the axial ``e^{a (j - j_c)}`` of
    ``Stepper``, j_c the centre of the free axial nodes, times
    ``symmetrized_section_operator``'s ``sqrt_w``.  Built from
    its bands, B is exactly symmetric: the fitted axial couplings become the
    constant ``-kappa / dz^2`` (``fitted_flux``), and the section couplings
    are the off-diagonals of ``symmetrized_section_operator`` averaged across
    the diagonal.  The free nodes are numbered section-fastest, node (i, j)
    as ``i + n_ry j``, so the half-bandwidth is ``n_ry`` (1 on a 1D grid):
    ``band[k, m] = B[m + k, m]``, with the diagonal in row 0, the section
    couplings in row 1 and the axial ones in row ``n_ry``.  The band is
    Fortran-ordered, so ``dpbtrf`` factors it in place.
    """
    rows, cols = free_block(grid)
    _, w, S = symmetrized_section_operator(grid)
    a, kappa = fitted_flux(c, grid.dz)
    main = -(axial_bands(grid, c)[1][cols] + np.diag(S)[:, None] + diag[rows, cols])
    n_ry, n_z = main.shape
    band = np.zeros((n_ry + 1, main.size), order="F")
    band[0] = main.ravel(order="F")
    # no section coupling between the last row of one node column and the next
    band[1] = np.tile(np.append(-0.5 * (np.diag(S, 1) + np.diag(S, -1)), 0.0), n_z)
    band[n_ry, :-n_ry] = -kappa / grid.dz ** 2
    scale = w[:, None] * np.exp(a * (np.arange(n_z) - 0.5 * (n_z - 1)))
    return band, scale


def transport_operator(grid: CylinderGrid, c: float,
                       diag: np.ndarray | None = None) -> sp.csc_matrix:
    """Sparse discrete ``Delta + c d/dz``, rows at Dirichlet-pinned nodes zero
    (matching apply_boundary), plus ``diag`` (raveled) on the main diagonal.

    Five diagonals in one call: the axial bands tiled over the sections at
    offsets 0 and +-1, ``_section_operator``'s at +-n_z.  Acts on row-major
    raveled fields.  No solver assembles it (products use ``_apply_transport``,
    factorizations ``symmetrized_band``): it is the tests' assembled
    reference and the name ``perfbench/tracer.py`` spans.
    """
    n_y, n_z = grid.shape
    Ay = _section_operator(grid)
    rows = np.zeros((5, n_y, n_z))  # row r's coupling to node r + offset
    rows[:3] = np.array(axial_bands(grid, c))[:, None, :]
    rows[1] += Ay.diagonal()[:, None]
    rows[3, 1:] = Ay.diagonal(-1)[:, None]
    rows[4, :-1] = Ay.diagonal(1)[:, None]
    rows[:, grid.dirichlet_mask] = 0.0
    if diag is not None:
        rows[1] += diag.reshape(grid.shape)
    rows = rows.reshape(5, -1)  # on a 1D grid the +-n_z bands are empty
    return sp.diags([rows[0, 1:], rows[1], rows[2, :-1], rows[3, n_z:], rows[4, :-n_z]],
                    [-1, 0, 1, -n_z, n_z], format="csc")


def _apply_axial(grid: CylinderGrid, values: np.ndarray, c: float) -> np.ndarray:
    """The axial bands' product along the last axis, pinned nodes not zeroed:
    the part of ``_apply_transport`` that depends on ``c``."""
    lower, diag, upper = axial_bands(grid, c)
    out = diag * values
    out[..., 1:] += lower[1:] * values[..., :-1]
    out[..., :-1] += upper[:-1] * values[..., 1:]
    return out


def _apply_transport(grid: CylinderGrid, values: np.ndarray, c: float) -> np.ndarray:
    """``transport_operator(grid, c) @ values`` from the axial bands (rows) and
    ``_section_operator`` (columns), assembling nothing; any ``c`` is taken.
    ``values`` may stack fields on leading axes; each is mapped on its own."""
    out = _apply_axial(grid, values, c)
    if grid.n_y > 1:
        cols = np.moveaxis(values, -2, 0)
        Ay = _section_operator(grid) @ cols.reshape(grid.n_y, -1)
        out += np.moveaxis(Ay.reshape(cols.shape), 0, -2)
    out[..., grid.dirichlet_mask] = 0.0
    return out


def _gradient_last_axis(f: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    """Write ``np.gradient(f, h, axis=-1, edge_order=2)`` into ``out``, bit for
    bit: the same operations as NumPy's uniform-spacing branch, as slices."""
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * h)
    out[..., 0] = (-1.5 / h) * f[..., 0] + (2.0 / h) * f[..., 1] + (-0.5 / h) * f[..., 2]
    out[..., -1] = (0.5 / h) * f[..., -3] + (-2.0 / h) * f[..., -2] + (1.5 / h) * f[..., -1]
    return out


def axial_derivative(values: np.ndarray, grid: CylinderGrid) -> np.ndarray:
    """Centered d/dz along the last axis (second-order one-sided at the
    window ends); reproduces ``np.gradient(values, grid.dz, axis=-1,
    edge_order=2)`` bit for bit."""
    return _gradient_last_axis(values, grid.dz, np.empty(np.shape(values)))


def section_derivative(values: np.ndarray, grid: CylinderGrid) -> np.ndarray:
    """Centered d/dy along the second-to-last axis; zero in pure-1D mode.
    Otherwise reproduces ``np.gradient(values, grid.dy, axis=-2,
    edge_order=2)`` bit for bit."""
    if grid.n_y == 1:
        return np.zeros_like(values)
    out = np.empty(np.shape(values))
    _gradient_last_axis(np.swapaxes(values, -1, -2), grid.dy, np.swapaxes(out, -1, -2))
    return out
