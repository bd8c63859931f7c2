"""Cross-section energy, its critical points, and principal eigenvalues.

The reduced energy ``E[v] = int (|v'|^2 / 2 + V(v, y)) dy`` lives on the
cross-section alone; its local minimizers are the plateaus axial fronts
connect to.  The principal eigenvalue of ``-d2/dy2 - f_u(v, y)`` at ``v = 0``
or at a critical point controls admissibility and non-degeneracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .grids import (CrossSectionField, CylinderGrid, _section_operator,
                    symmetrized_section_operator)
from .reactions import ReactionModel

NEWTON_GRAD_TOL = 1e-10


class SectionSolverError(RuntimeError):
    pass


def section_energy(v: CrossSectionField, model: ReactionModel) -> float:
    """Trapezoidal quadrature of |v'|^2/2 + V(v, y) over the cross-section."""
    g = v.grid
    y = g.y
    Vv = np.asarray(model.V(v.values, y), dtype=float)
    if g.n_y == 1:
        return float(Vv[0])
    w = g.section_weights()
    grad_sq = np.sum((np.diff(v.values) / g.dy) ** 2) * g.dy  # midpoint-exact for P1
    return float(0.5 * grad_sq + np.sum(w * Vv))


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
    collapsed_to_trivial: bool = False


def _section_residual(model, grid, v):
    """Strong-form residual v'' + f(v, y) with the grid's end conventions."""
    r = _section_operator(grid) @ v + np.asarray(model.f(v, grid.y), dtype=float)
    r[grid.dirichlet_mask()[:, 0]] = 0.0
    return r


def section_flow(model: ReactionModel, grid: CylinderGrid, v0: CrossSectionField,
                 tau: float, steps: int) -> list[CrossSectionField]:
    """Explicit gradient flow of the cross-section energy (fallback relaxer)."""
    out = [v0.copy()]
    v = v0.values.copy()
    for _ in range(steps):
        v = v + tau * _section_residual(model, grid, v)
        out.append(CrossSectionField(grid, v.copy()))
        v = out[-1].values
    return out


def find_critical_point(model: ReactionModel, grid: CylinderGrid,
                        seed: CrossSectionField, max_newton: int = 60) -> CriticalPoint:
    """Critical point of the cross-section energy near ``seed``.

    Explicit gradient-flow sweeps bring the seed near a solution of the
    discrete Euler-Lagrange system ``A_y v + f(v, y) = 0`` (pinned ends held at
    zero); damped Newton with the Jacobian ``A_y + diag(f_u)`` then converges
    to ``|grad| <= NEWTON_GRAD_TOL``.  Reports the energy and the smallest
    eigenvalue of the linearization at the solution (principal_eigenpair).
    """
    y = grid.y
    pinned = grid.dirichlet_mask()[:, 0]
    v = seed.values.copy()
    nontrivial_seed = float(np.max(np.abs(v))) > 1e-8

    def grad_norm(vv):
        return float(np.max(np.abs(_section_residual(model, grid, vv))))

    # relaxation sweeps pull rough seeds into the Newton basin
    tau = 0.2 * min(grid.dy ** 2 if grid.n_y > 1 else 1.0, 1.0) / max(1.0, model.max_slope(grid))
    for _ in range(3000):
        if grad_norm(v) < 1e-2:
            break
        v = v + tau * _section_residual(model, grid, v)
        v = CrossSectionField(grid, v).values

    converged = False
    for _ in range(max_newton):
        r = _section_residual(model, grid, v)
        gn = float(np.max(np.abs(r)))
        if gn <= NEWTON_GRAD_TOL:
            converged = True
            break
        fu = np.broadcast_to(np.asarray(model.f_u(v, y), dtype=float), v.shape)
        # pinned rows of A_y are zero; unit diagonal entries make them identity rows
        J = _section_operator(grid).toarray() + np.diag(np.where(pinned, 1.0, fu))
        try:
            dv = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            raise SectionSolverError("singular Jacobian in cross-section Newton")
        step = 1.0
        for _ in range(10):
            trial = CrossSectionField(grid, v + step * dv).values
            if grad_norm(trial) < gn or step < 1e-3:
                break
            step *= 0.5
        v = CrossSectionField(grid, v + step * dv).values
        if not np.all(np.isfinite(v)) or np.max(np.abs(v)) > 10.0:
            raise SectionSolverError("cross-section Newton diverged")
    if not converged and grad_norm(v) > NEWTON_GRAD_TOL:
        raise SectionSolverError("cross-section Newton stalled at |grad| = %.3g" % grad_norm(v))

    sol = CrossSectionField(grid, v)
    collapsed = nontrivial_seed and float(np.max(np.abs(v))) < 1e-6
    eig = principal_eigenpair(model, grid, linearize_at=sol)
    return CriticalPoint(
        v=sol,
        energy=section_energy(sol, model),
        gradient_norm=grad_norm(v),
        hessian_floor=eig.value,
        collapsed_to_trivial=collapsed,
    )


@dataclass
class AdmissibilityReport:
    c_trial: float
    eigenvalue_at_zero: float
    discriminant_ok: bool       # c^2 + 4 nu > 0
    best_energy: float          # smallest weighted energy seen along the flow
    trial_norm: float           # L2_c norm of the field achieving it
    admissible: bool


def check_speed_admissible(model: ReactionModel, grid: CylinderGrid, c_trial: float,
                           budget_steps: int = 600) -> AdmissibilityReport:
    """Trial-speed admissibility: discriminant plus a weighted-flow search.

    Evolves a front-like seed in the frame moving at ``c_trial`` (that flow
    descends the weighted energy at this rate) for a fixed budget and records
    the smallest energy value encountered.  Report-only.
    """
    from .evolve import EvolutionState, Stepper, weighted_energy
    from .grids import Field
    from .weighted import WeightedMeasure, weighted_norm_l2

    if not c_trial > 0:
        raise ValueError("trial speed must be positive")
    nu = principal_eigenpair(model, grid).value
    disc_ok = bool(c_trial ** 2 + 4.0 * nu > 0.0)

    z = grid.z
    prof = 0.5 * (1.0 - np.tanh(z - 0.25 * (grid.z_min + grid.z_max)))
    u0 = Field(grid, np.tile(prof, (grid.n_y, 1)))
    m = WeightedMeasure(c_trial, z_ref=0.25 * (grid.z_min + grid.z_max))
    stepper = Stepper(model, grid, dt=0.4 / max(1.0, model.max_slope(grid)), frame_speed=c_trial)
    state = EvolutionState(t=0.0, u=u0, frame_speed=c_trial)
    best = weighted_energy(state.u, model, m)
    best_norm = weighted_norm_l2(state.u, m)
    for k in range(budget_steps):
        state = stepper.step(state)
        if k % 5 == 0 or k == budget_steps - 1:
            e = weighted_energy(state.u, model, m)
            if e < best:
                best = e
                best_norm = weighted_norm_l2(state.u, m)
    return AdmissibilityReport(
        c_trial=c_trial,
        eigenvalue_at_zero=nu,
        discriminant_ok=disc_ok,
        best_energy=best,
        trial_norm=best_norm,
        admissible=bool(disc_ok and best <= 0.0 and best_norm > 0.0),
    )
