"""Time integration in the lab or moving frame, with energy bookkeeping.

One step is IMEX: backward Euler on the transport operator, explicit on the
reaction.  The implicit solve is separable (fast diagonalization; Lynch, Rice
& Thomas, Numer. Math. 6 (1964)): the operator is the Kronecker sum
``I (x) A_z(c) + A_y (x) I``, so diagonalizing the small cross-section
operator ``A_y`` once per grid leaves one tridiagonal system per
cross-section mode.  Because the operator is self-adjoint in the discrete
weighted inner product, each step is exactly a forward-backward descent step
of the discrete weighted energy, so the energy decreases monotonically for
``dt <= 2 / sup|f_u|`` (the default cap is 0.5 / sup|f_u|, which also
preserves ordering).
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.lapack import dgttrf, dgttrs

from .grids import (CylinderGrid, Field, GridError, apply_boundary,
                    axial_bands, fitting_factor, symmetrized_section_operator)
from .reactions import ReactionModel, eval_f
from .weighted import WeightedMeasure, weight_values

log = logging.getLogger(__name__)

CLIP_FAIL = 1e-9


class EvolutionError(RuntimeError):
    pass


@dataclass
class EvolutionState:
    t: float
    u: Field
    frame_speed: float = 0.0
    window_shift: int = 0


@lru_cache(maxsize=64)
def dt_max(model: ReactionModel, grid: CylinderGrid) -> float:
    """Reaction-stability cap: 0.5 / sup|f_u| (diffusion is implicit)."""
    return 0.5 / max(model.max_slope(grid), 1e-12)


def flow_weights(grid: CylinderGrid, m: WeightedMeasure) -> np.ndarray:
    """Quadrature weights making the transport operator exactly self-adjoint.

    Uniform in z (the zero-flux end is built into the operator), trapezoidal
    over the cross-section.
    """
    wz = grid.dz * weight_values(grid, m)
    return grid.section_weights()[:, None] * wz[None, :]


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
    result is transformed back.  The stacked tridiagonal factorization is
    O(n_y n_z) per frame speed; reuse the stepper across steps.
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
        self._free = (rows, slice(0, n_z))
        lower, diag, upper = axial_bands(grid, frame_speed)
        d = 1.0 - dt * (diag[:n_z] + lam[:, None])
        dl = np.zeros_like(d)
        du = np.zeros_like(d)
        dl[:, :-1] = -dt * lower[1:n_z]  # zero between consecutive modes
        du[:, :-1] = -dt * upper[:n_z - 1]
        *lu, info = dgttrf(dl.ravel()[:-1], d.ravel(), du.ravel()[:-1])
        if info != 0:
            raise EvolutionError("implicit operator is singular (dgttrf info %d)" % info)
        self._lu = lu

    def step(self, state: EvolutionState) -> EvolutionState:
        if state.u.grid != self.grid:
            raise GridError("state grid does not match stepper grid")
        if state.frame_speed != self.frame_speed:
            raise EvolutionError("state frame speed %g != stepper %g"
                                 % (state.frame_speed, self.frame_speed))
        rhs = state.u.values + self.dt * eval_f(self.model, state.u).values
        modes = self._to_modes @ rhs[self._free]
        x, _ = dgttrs(*self._lu, modes.reshape(-1, 1), overwrite_b=True)
        new = np.zeros(self.grid.shape)
        new[self._free] = self._from_modes @ x.reshape(modes.shape)
        lo, hi = float(new.min()), float(new.max())  # NaN and inf reach these
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise EvolutionError("non-finite state after implicit solve")
        viol = max(-lo, hi - 1.0, 0.0)
        if viol > CLIP_FAIL:
            raise EvolutionError("state left [0,1] by %.3g (> %g)" % (viol, CLIP_FAIL))
        if viol > 0.0:
            self.max_clip = max(self.max_clip, viol)
            log.debug("clipped state violation %.3g at t=%.6g", viol, state.t)
            new = np.clip(new, 0.0, 1.0)
        # only the free block was written, so the pinned nodes hold zero
        return EvolutionState(t=state.t + self.dt, u=Field(self.grid, new),
                              frame_speed=state.frame_speed,
                              window_shift=state.window_shift)


def step(state: EvolutionState, model: ReactionModel, dt: float) -> EvolutionState:
    """One IMEX step (convenience wrapper constructing a Stepper)."""
    return Stepper(model, state.u.grid, dt, state.frame_speed).step(state)


def weighted_energy(u: Field, model: ReactionModel, m: WeightedMeasure) -> float:
    """Weighted energy: int e^{c(z-z_ref)} (|grad u|^2 / 2 + V(u, y)).

    The gradient term pairs squared differences with midpoint flux weights so
    that the IMEX step is exactly a descent step of this functional.
    """
    g = u.grid
    wexp = weight_values(g, m)
    wy = g.section_weights()
    vals = u.values

    kappa = fitting_factor(g, m.c)
    wz_mid = kappa * np.sqrt(wexp[:-1] * wexp[1:])  # e^{c(z_{j+1/2}-ref)}, fitted
    dz_sq = (np.diff(vals, axis=1) / g.dz) ** 2
    total = 0.5 * np.sum(wy[:, None] * wz_mid[None, :] * dz_sq) * g.dz

    if g.n_y > 1:
        wy_mid = np.full(g.n_y - 1, g.dy)
        dy_sq = (np.diff(vals, axis=0) / g.dy) ** 2
        total += 0.5 * np.sum(wy_mid[:, None] * (wexp * g.dz)[None, :] * dy_sq)

    Vv = np.asarray(model.V(vals, g.y[:, None]), dtype=float)
    Vv = np.broadcast_to(Vv, g.shape)
    total += np.sum(wy[:, None] * (wexp * g.dz)[None, :] * Vv)  # flow_weights * V
    return float(total)


@dataclass
class DissipationReport:
    """Energy-decrement vs time-quadrature of ||u_t||^2, per step and overall."""

    times: np.ndarray
    energy: np.ndarray
    decrement: np.ndarray        # energy[k] - energy[k+1]
    rate_integral: np.ndarray    # dt * ||increment/dt||^2 per step
    residuals: np.ndarray        # relative mismatch per step
    total_residual: float
    monotone: bool


def check_dissipation(states: list[EvolutionState], model: ReactionModel,
                      m: WeightedMeasure) -> DissipationReport:
    """Compare the energy decrement with the dissipation quadrature.

    ``u_t`` is the scheme increment over dt (a midpoint-in-time value), so the
    relative residual is O(dt) and halves under dt-halving.
    """
    if len(states) < 2:
        raise ValueError("need at least two consecutive states")
    g = states[0].u.grid
    w = flow_weights(g, m)
    times = np.array([s.t for s in states])
    energy = np.array([weighted_energy(s.u, model, m) for s in states])
    dec = energy[:-1] - energy[1:]
    rate = np.empty(len(states) - 1)
    for k in range(len(states) - 1):
        dt = states[k + 1].t - states[k].t
        ut = (states[k + 1].u.values - states[k].u.values) / dt
        rate[k] = dt * float(np.sum(w * ut ** 2))
    scale = np.maximum(np.abs(dec), np.abs(rate))
    res = np.abs(dec - rate) / np.maximum(scale, 1e-300)
    total = float(abs(dec.sum() - rate.sum()) / max(abs(dec.sum()), abs(rate.sum()), 1e-300))
    mono = bool(np.all(dec >= -1e-10 * np.maximum(1.0, np.abs(energy[:-1]))))
    return DissipationReport(times=times, energy=energy, decrement=dec,
                             rate_integral=rate, residuals=res,
                             total_residual=total, monotone=mono)


@dataclass
class OrderingReport:
    ordered: bool
    first_violation_time: float | None
    max_violation: float
    times: np.ndarray


def compare_evolutions(fields: Sequence[Field], model: ReactionModel,
                       horizon: float, dt: float, frame_speed: float = 0.0,
                       tol: float = 1e-10) -> OrderingReport:
    """Integrate ordered data ``fields[0] <= fields[1] <= ...`` and check that
    every neighbouring pair stays ordered at each step."""
    if any(np.any(lo.values > hi.values + 1e-14) for lo, hi in zip(fields, fields[1:])):
        raise ValueError("initial data are not ordered")
    stepper = Stepper(model, fields[0].grid, dt, frame_speed)
    states = [EvolutionState(0.0, apply_boundary(u), frame_speed) for u in fields]
    n = int(round(horizon / dt))
    times, worst, first_bad = [], 0.0, None
    for _ in range(n):
        states = [stepper.step(s) for s in states]
        times.append(states[0].t)
        gap = max(float(np.max(lo.u.values - hi.u.values))
                  for lo, hi in zip(states, states[1:]))
        worst = max(worst, gap)
        if gap > tol and first_bad is None:
            first_bad = states[0].t
    return OrderingReport(ordered=first_bad is None,
                          first_violation_time=first_bad,
                          max_violation=worst,
                          times=np.array(times))
