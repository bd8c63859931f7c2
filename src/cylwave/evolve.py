"""Time integration in the lab or moving frame, with energy bookkeeping.

One step is IMEX: backward Euler on the transport operator, explicit on the
reaction.  The implicit solve is separable (fast diagonalization; Lynch, Rice
& Thomas, Numer. Math. 6 (1964)): the operator is the Kronecker sum
``I (x) A_z(c) + A_y (x) I``, so diagonalizing the small cross-section
operator ``A_y`` once per grid leaves one tridiagonal system per
cross-section mode, symmetric positive definite once scaled by the square
roots of the axial weights.  The discrete weighted energy is the potential
minus half the operator's quadratic form in ``flow_weights``, which make the
operator self-adjoint, so each step is exactly a forward-backward descent
step of that energy: it decreases monotonically for ``dt <= 2 / sup|f_u|``
(the default cap is 0.5 / sup|f_u|, which also preserves ordering).

A stack is several fields of one grid held as one ``(..., n_y, n_z)`` array,
the fields on its leading axes.  ``Stepper.advance`` steps a stack and
``weighted_energies`` measures one, each in one pass of NumPy calls rather
than one pass per field: on grids of about a thousand nodes the per-call
overhead costs more than the arithmetic.  A field's bits do not depend on
the stack it is in; ``Stepper.step`` is ``advance`` of a single field.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.lapack import dpttrf, dpttrs

from .grids import (CylinderGrid, Field, GridError, _apply_transport, apply_boundary,
                    axial_bands, fitted_flux, symmetrized_section_operator)
from .reactions import ReactionModel, eval_f
from .weighted import WeightedMeasure, weight_values

log = logging.getLogger(__name__)

CLIP_FAIL = 1e-9
# overlap of two evolved solutions that compare_evolutions counts as disorder
ORDER_TOL = 1e-10


class EvolutionError(RuntimeError):
    pass


@lru_cache(maxsize=64)
def dt_max(model: ReactionModel, grid: CylinderGrid) -> float:
    """Reaction-stability cap: 0.5 / sup|f_u| (diffusion is implicit)."""
    return 0.5 / max(model.max_slope(grid), 1e-12)


@lru_cache(maxsize=4)
def flow_weights(grid: CylinderGrid, m: WeightedMeasure) -> np.ndarray:
    """Quadrature weights making the transport operator exactly self-adjoint.

    Uniform in z (the zero-flux end is built into the operator), trapezoidal
    over the cross-section.  Cached per (grid, measure) and read-only.
    """
    wz = grid.dz * weight_values(grid, m)
    w = grid.section_weights()[:, None] * wz[None, :]
    w.flags.writeable = False
    return w


@lru_cache(maxsize=16)
def _section_modes(grid: CylinderGrid) -> tuple[slice, np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of the cross-section operator on its free (unpinned) rows.

    Returns ``(rows, lam, to_modes, from_modes)`` with ``A_y[rows, rows] =
    from_modes @ diag(lam) @ to_modes``, from ``eigh`` of the symmetrized
    operator ``S = W^{1/2} A_y W^{-1/2}`` (symmetrized_section_operator).
    Cached per grid; the arrays are shared and must not be modified.
    """
    rows, w, S = symmetrized_section_operator(grid)
    lam, Q = eigh(S)
    return rows, lam, Q.T * w[None, :], Q / w[:, None]


class Stepper:
    """IMEX stepper bound to one (model, grid, dt, frame speed).

    Solves ``(I - dt (Delta + c d/dz)) u = rhs`` on the free nodes by fast
    diagonalization: the right-hand side is transformed to the eigenbasis of
    the cross-section operator (cached per grid), each mode ``k`` solves the
    tridiagonal ``I - dt (A_z(c) + lam_k)`` over the free axial nodes, and the
    result is transformed back (on a 1D grid the transforms are identities
    and are skipped).

    ``A_z`` is self-adjoint in the axial weights ``e^{c z}``, so scaling node
    j by their square root, ``s_j = e^{a (j - j_c)}`` with ``a = c dz / 2``
    and j_c the centre of the free nodes, turns the fitted off-diagonals
    into the constant ``-dt kappa / dz^2`` (``fitted_flux``).  Each mode's
    matrix is then symmetric with eigenvalues >= 1 (``A_z`` and ``lam_k``
    are nonpositive), and LAPACK's ``dpttrf``/``dpttrs`` factor and solve it
    without pivoting.  The stacked factorization is O(n_y n_z) per frame
    speed; reuse the stepper across steps.
    """

    def __init__(self, model: ReactionModel, grid: CylinderGrid, dt: float,
                 frame_speed: float = 0.0):
        if dt <= 0:
            raise EvolutionError("dt must be positive")
        cap = dt_max(model, grid)
        if dt > cap * (1 + 1e-12):
            raise EvolutionError("dt = %g exceeds stability cap dt_max = %g" % (dt, cap))
        if frame_speed < 0:
            raise EvolutionError("frame speed must be >= 0")
        self.model = model
        self.grid = grid
        self.dt = dt
        self.frame_speed = frame_speed
        self.max_clip = 0.0
        # pinned nodes hold zero, so only the free block is solved; the axial
        # right end is pinned when its whole column is, since a Dirichlet
        # section wall pins its row at every axial node
        rows, lam, self._to_modes, self._from_modes = _section_modes(grid)
        n_z = grid.n_z - int(grid.dirichlet_mask[:, -1].all())
        self._free = (Ellipsis, rows, slice(0, n_z))
        self._n_free = lam.size * n_z
        a, kappa = fitted_flux(frame_speed, grid.dz)
        exponent = a * (np.arange(n_z) - 0.5 * (n_z - 1))
        self._scale, self._unscale = np.exp(exponent), np.exp(-exponent)
        _, diag, _ = axial_bands(grid, frame_speed)
        d = 1.0 - dt * (diag[:n_z] + lam[:, None])
        e = np.full(d.shape, -dt * kappa / grid.dz ** 2)
        e[:, -1] = 0.0  # zero between consecutive modes
        *self._ldl, info = dpttrf(d.ravel(), e.ravel()[:-1])
        if info != 0:
            raise EvolutionError("implicit operator is not positive definite "
                                 "(dpttrf info %d)" % info)

    def advance(self, u: np.ndarray) -> np.ndarray:
        """One step of every field stacked on the leading axes of ``u``, an
        ``(..., n_y, n_z)`` array: one reaction evaluation, one ``dpttrs``
        solve with a right-hand side per field, and in 2D mode transforms
        that broadcast over the stack.  The finiteness and ``[0, 1]`` checks
        cover the whole stack, and ``max_clip`` records its largest clip.
        Each field's values do not depend on the stack it is in.
        """
        rhs = u + self.dt * eval_f(self.model, self.grid, u)
        free = rhs[self._free]
        if self.grid.n_y == 1:
            # the 1x1 mode transforms are identities: solve in rhs and zero
            # the pinned axial end
            new, modes = rhs, free * self._scale
        else:
            new, modes = np.zeros(np.shape(u)), (self._to_modes @ free) * self._scale
        # one column per field, in place: (k, n) in C order is (n, k) in F order
        x, _ = dpttrs(*self._ldl, modes.reshape(-1, self._n_free).T, overwrite_b=True)
        x = x.T.reshape(modes.shape)
        if self.grid.n_y == 1:
            np.multiply(x, self._unscale, out=free)
            new[..., free.shape[-1]:] = 0.0
        else:
            new[self._free] = self._from_modes @ (x * self._unscale)
        lo, hi = float(new.min()), float(new.max())  # NaN and inf reach these
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise EvolutionError("non-finite state after implicit solve")
        viol = max(-lo, hi - 1.0, 0.0)
        if viol > CLIP_FAIL:
            raise EvolutionError("state left [0,1] by %.3g (> %g)" % (viol, CLIP_FAIL))
        if viol > 0.0:
            self.max_clip = max(self.max_clip, viol)
            log.debug("clipped state violation %.3g", viol)
            np.clip(new, 0.0, 1.0, out=new)
        return new

    def step(self, u: Field) -> Field:
        """``advance`` of one field."""
        if u.grid is not self.grid and u.grid != self.grid:
            raise GridError("field grid does not match stepper grid")
        # finite (checked by advance) and of the grid's shape (rhs has the field's)
        return Field.checked(self.grid, self.advance(u.values))


def weighted_energies(u: np.ndarray, model: ReactionModel, grid: CylinderGrid,
                      m: WeightedMeasure) -> np.ndarray:
    """``weighted_energy`` of every field stacked on the leading axes of the
    ``(..., n_y, n_z)`` array ``u``, as an array of the leading shape."""
    Vv = np.asarray(model.V(u, grid.y[:, None]), dtype=float)
    e = flow_weights(grid, m) * (Vv - 0.5 * u * _apply_transport(grid, u, m.c))
    # each field's own nodes in one contiguous pass, as a whole-array sum
    return e.reshape(np.shape(u)[:-2] + (-1,)).sum(axis=-1)


def weighted_energy(u: Field, model: ReactionModel, m: WeightedMeasure) -> float:
    """Weighted energy: int e^{c(z-z_ref)} (|grad u|^2 / 2 + V(u, y)).

    The gradient term is minus half the transport operator's quadratic form
    in ``flow_weights``; ``u`` must be zero at its pinned nodes.
    """
    return float(weighted_energies(u.values, model, u.grid, m))


def step_count(horizon: float, dt: float) -> int:
    """The number of steps of size ``dt`` that make up ``horizon``; a horizon
    that is not a whole number of steps (to rounding) is refused."""
    n = round(horizon / dt)
    if abs(n * dt - horizon) > 1e-9 * abs(horizon):
        raise ValueError("horizon = %g is not a whole number of dt = %g steps"
                         % (horizon, dt))
    return n


@dataclass
class OrderingReport:
    ordered: bool
    max_violation: float


def compare_evolutions(fields: Sequence[Field], model: ReactionModel,
                       horizon: float, dt: float, frame_speed: float = 0.0) -> OrderingReport:
    """Integrate ordered data ``fields[0] <= fields[1] <= ...`` as one stack
    and check that every neighbouring pair stays ordered at each step."""
    if len(fields) < 2:
        raise ValueError("comparison needs at least two data, got %d" % len(fields))
    grid = fields[0].grid
    if any(f.grid is not grid and f.grid != grid for f in fields):
        raise GridError("data live on different grids")
    if any(np.any(lo.values > hi.values + 1e-14) for lo, hi in zip(fields, fields[1:])):
        raise ValueError("initial data are not ordered")
    n_steps = step_count(horizon, dt)
    stepper = Stepper(model, grid, dt, frame_speed)
    u = np.array([apply_boundary(f).values for f in fields])
    worst = 0.0
    for _ in range(n_steps):
        u = stepper.advance(u)
        worst = max(worst, float(np.max(u[:-1] - u[1:])))
    return OrderingReport(ordered=worst <= ORDER_TOL, max_violation=worst)
