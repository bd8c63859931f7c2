"""Cross-section energy, its critical points, and principal eigenvalues.

The reduced energy ``E[v] = int (|v'|^2 / 2 + V(v, y)) dy`` lives on the
cross-section alone; its discrete form is the trapezoidal V minus half the
quadratic form of ``A_y``, which the trapezoid weights make self-adjoint.  Its
local minimizers are the plateaus axial fronts connect to.
find_critical_point reaches them by pseudo-transient continuation of the
energy's gradient flow, which starts as implicit flow steps and ends as
Newton's method.  The principal eigenvalue of ``-d2/dy2 - f_u(v, y)`` at
``v = 0`` or at a critical point controls admissibility and non-degeneracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .evolve import Stepper, weighted_energies
from .grids import (CrossSectionField, CylinderGrid, _section_operator, front_seed,
                    symmetrized_section_operator)
from .reactions import ReactionModel
from .weighted import WeightedMeasure

NEWTON_GRAD_TOL = 1e-10
PTC_MAX_ITER = 100
# sampled states whose energies check_speed_admissible measures in one pass
ENERGY_BLOCK = 16


class SectionSolverError(RuntimeError):
    pass


def section_energy(v: CrossSectionField, model: ReactionModel) -> float:
    """Trapezoidal quadrature of V(v, y) - v (A_y v) / 2: by summation by parts,
    trapezoidal V plus the P1 integral of |v'|^2/2 for v zero at pinned ends."""
    g = v.grid
    Vv = np.asarray(model.V(v.values, g.y), dtype=float)
    Av = _section_operator(g) @ v.values
    return float(np.sum(g.section_weights() * (Vv - 0.5 * v.values * Av)))


@dataclass
class EigenResult:
    value: float
    eigenfunction: CrossSectionField
    iterations: int
    residual: float


def principal_eigenpair(model: ReactionModel, grid: CylinderGrid,
                        linearize_at: CrossSectionField | None = None) -> EigenResult:
    """Smallest eigenvalue of ``-d2/dy2 - f_u(v, y)`` under the grid's tags.

    LAPACK ``eigh`` on the weight-symmetrized operator ``diag(-f_u) - S`` over
    the free nodes (see symmetrized_section_operator); returns the positive
    principal eigenfunction, normalized in the cross-section L2, and the
    residual of the symmetric eigenpair.  ``iterations`` is 0 (direct solve).
    """
    y = grid.y
    v = np.zeros_like(y) if linearize_at is None else linearize_at.values
    pot = np.broadcast_to(-np.asarray(model.f_u(v, y), dtype=float), y.shape)
    rows, sqrt_w, S = symmetrized_section_operator(grid)
    S = np.diag(pot[rows]) - S
    lam, X = sla.eigh(S, subset_by_index=[0, 0])
    value, x = float(lam[0]), X[:, 0]
    res = float(np.linalg.norm(S @ x - value * x))

    if np.sum(x) < 0:
        x = -x
    full = np.zeros(grid.n_y)
    full[rows] = x / sqrt_w  # undo the weight symmetrization
    # L2 normalization over the cross-section
    full /= np.sqrt(np.sum(grid.section_weights() * full ** 2))
    if np.any(full[rows] <= 0):
        raise SectionSolverError("principal eigenfunction changed sign")
    return EigenResult(value=value, eigenfunction=CrossSectionField(grid, full),
                       iterations=0, residual=res)


@dataclass
class CriticalPoint:
    v: CrossSectionField
    energy: float
    gradient_norm: float
    hessian_floor: float
    iterations: int
    collapsed_to_trivial: bool = False


def _section_residual(model, grid, v):
    """Strong-form residual v'' + f(v, y) with the grid's end conventions."""
    r = _section_operator(grid) @ v + np.asarray(model.f(v, grid.y), dtype=float)
    r[grid.dirichlet_mask[:, 0]] = 0.0
    return r


def find_critical_point(model: ReactionModel, grid: CylinderGrid,
                        seed: CrossSectionField) -> CriticalPoint:
    """Critical point of the cross-section energy near ``seed``.

    Pseudo-transient continuation of the gradient flow ``v_t = A_y v + f(v, y)``:
    each step solves ``(I/tau - J) dv = r`` for the residual ``r = A_y v + f``
    and its Jacobian ``J = A_y + diag(f_u)``, pinned rows held as identity rows
    so pinned values stay zero.  ``tau`` starts at ``1/max(1, sup|f_u|)``, where
    the step is a stable implicit flow step, and grows by switched evolution
    relaxation ``tau <- tau |r_old| / |r_new|`` into Newton as the residual
    falls (Mulder & van Leer 1985; Kelley & Keyes 1998).  Stops at
    ``|grad| <= NEWTON_GRAD_TOL``; ``PTC_MAX_ITER`` steps without getting there
    raise.  Reports the energy, the step count and the smallest eigenvalue of
    the linearization at the solution (principal_eigenpair).
    """
    y = grid.y
    pinned = grid.dirichlet_mask[:, 0]
    A = _section_operator(grid).toarray()
    v = seed.values.copy()
    nontrivial_seed = float(np.max(np.abs(v))) > 1e-8
    tau = 1.0 / max(1.0, model.max_slope(grid))
    r = _section_residual(model, grid, v)
    gn = float(np.max(np.abs(r)))
    iterations = 0
    while gn > NEWTON_GRAD_TOL:
        if iterations == PTC_MAX_ITER:
            raise SectionSolverError("cross-section solver reached %d steps at |grad| = %.3g"
                                     % (PTC_MAX_ITER, gn))
        fu = np.broadcast_to(np.asarray(model.f_u(v, y), dtype=float), v.shape)
        # pinned rows of A_y are zero, so a unit diagonal makes them identity rows
        M = np.diag(np.where(pinned, 1.0, 1.0 / tau - fu)) - A
        try:
            v = v + np.linalg.solve(M, r)
        except np.linalg.LinAlgError:
            raise SectionSolverError("singular matrix in the cross-section solver")
        if not np.all(np.isfinite(v)) or np.max(np.abs(v)) > 10.0:
            raise SectionSolverError("cross-section solver diverged")
        r = _section_residual(model, grid, v)
        gn_old, gn = gn, float(np.max(np.abs(r)))
        tau *= gn_old / max(gn, NEWTON_GRAD_TOL)  # the floor only guards the last step
        iterations += 1

    sol = CrossSectionField(grid, v)
    collapsed = nontrivial_seed and float(np.max(np.abs(v))) < 1e-6
    eig = principal_eigenpair(model, grid, linearize_at=sol)
    return CriticalPoint(
        v=sol,
        energy=section_energy(sol, model),
        gradient_norm=gn,
        hessian_floor=eig.value,
        iterations=iterations,
        collapsed_to_trivial=collapsed,
    )


@dataclass
class AdmissibilityReport:
    c_trial: float
    eigenvalue_at_zero: float
    discriminant_ok: bool       # c^2 + 4 nu > 0
    best_energy: float          # smallest weighted energy seen along the flow
    admissible: bool


def check_speed_admissible(model: ReactionModel, grid: CylinderGrid, c_trial: float,
                           budget_steps: int = 600) -> AdmissibilityReport:
    """Trial-speed admissibility: discriminant plus a weighted-flow search.

    Evolves a front-like seed in the frame moving at ``c_trial`` (that flow
    descends the weighted energy at this rate) for a fixed budget and records
    the smallest energy value encountered.  Report-only.
    """
    if not c_trial > 0:
        raise ValueError("trial speed must be positive")
    nu = principal_eigenpair(model, grid).value
    disc_ok = bool(c_trial ** 2 + 4.0 * nu > 0.0)

    z_ref = 0.25 * (grid.z_min + grid.z_max)
    u0 = front_seed(grid, 1.0, offset=z_ref)
    m = WeightedMeasure(c_trial, z_ref=z_ref)
    stepper = Stepper(model, grid, dt=0.4 / max(1.0, model.max_slope(grid)), frame_speed=c_trial)
    # the datum, every fifth state and the last, measured ENERGY_BLOCK at a time
    block = np.empty((ENERGY_BLOCK,) + grid.shape)
    block[0], n = u0.values, 1
    u, best = u0.values, math.inf
    for k in range(budget_steps):
        u = stepper.advance(u)
        if k % 5 == 0 or k == budget_steps - 1:
            if n == ENERGY_BLOCK:
                best = min(best, float(weighted_energies(block, model, grid, m).min()))
                n = 0
            block[n], n = u, n + 1
    best = min(best, float(weighted_energies(block[:n], model, grid, m).min()))
    return AdmissibilityReport(
        c_trial=c_trial,
        eigenvalue_at_zero=nu,
        discriminant_ok=disc_ok,
        best_energy=best,
        admissible=bool(disc_ok and best < 0.0),
    )
