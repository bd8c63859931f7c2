"""Selected-speed traveling waves: freezing + Newton solver, spectral gap,
secondary (stacked-front) speed, and translation-distance diagnostics.

The solver runs in two phases.  Phase 1 evolves the moving-frame equation
with an adaptive frame speed until the front freezes; phase 2 is a bordered
Newton polish of the coupled system {discrete wave equation = 0, weighted
phase condition = 0} with the speed as an extra unknown.  The profile is
then translated so the mid-level of the front sits at z = 0 and re-polished.
1D and 2D grids take the same path: the residual is applied matrix-free, and
the polish and its re-polishes share one sparse factorization of the
Jacobian block (chord steps), factored again only when a chord step fails to
halve the residual; ``WaveSolution`` counts the iterations and
factorizations.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .evolve import EvolutionState, Stepper, dt_max, flow_weights
from .grids import (CrossSectionField, CylinderGrid, Field, GridConfig, WINDOW_MARGIN,
                    _apply_transport, apply_boundary, axial_derivative, build_grid,
                    transport_operator)
from .reactions import ReactionModel, ShiftedModel, eval_f, eval_f_u
from .sections import CriticalPoint, SectionSolverError, find_critical_point
from .weighted import (WeightedMeasure, hermite, pchip_slopes, shifted_hermite,
                       spline_slopes, translate)

NEWTON_TOL = 1e-11
RESIDUAL_LIMIT = 1e-8
# freezing steps before the front counts as failed to freeze
FREEZE_MAX_STEPS = 40000
# inverse-iteration steps before the spectral gap counts as not converged
EIGEN_MAX_ITER = 1000


class WaveSolverError(RuntimeError):
    pass


class SeedBasinError(WaveSolverError):
    """Phase-1 evolution collapsed to an equilibrium instead of freezing."""


@dataclass
class WaveSolution:
    grid: CylinderGrid
    speed: float
    profile: Field
    profile_dz: np.ndarray          # centered d/dz of the profile
    residual: float                 # sup-norm of the discrete wave equation
    normalization_shift: float      # translation applied to center the front
    plateau: CrossSectionField      # left-edge cross-section state
    monotone: bool
    newton_iterations: int = 0      # over the polish and its re-polishes
    factorizations: int = 0         # Jacobian factorizations, likewise

    def measure(self, z_ref: float = 0.0) -> WeightedMeasure:
        return WeightedMeasure(self.speed, z_ref)

    @cached_property
    def template(self) -> "Template":
        """Interpolated profile for tracking, built on first use."""
        return Template(self)


class Template:
    """Interpolated wave profile ``T_R profile`` and its axial derivative.

    The not-a-knot C^2 cubic spline (slopes from ``spline_slopes``, solved
    once here) keeps the interpolation floor of the mismatch at O(dz^4)
    squared, well below the decay-fit window's floating-point cutoff.
    Beyond the window the translate takes the end values and its derivative
    is zero.

    ``at`` and ``dz_at`` each remember their last translation: the tracker
    asks for the same R several times in a row (h and h' at one iterate, then
    the recorded row), so the spline runs once per R.  The returned arrays
    are shared and therefore read-only.
    """

    def __init__(self, ws: WaveSolution):
        self.ws = ws
        self._slopes = spline_slopes(ws.profile.values, ws.grid.dz)
        self.max_shift = 0.5 * ws.grid.window_length
        self._at = self._dz_at = (None, None)

    def _eval(self, R: float, nu: int) -> np.ndarray:
        vals = shifted_hermite(self.ws.profile.values, self._slopes, self.ws.grid.dz, R, nu)
        vals.flags.writeable = False
        return vals

    def at(self, R: float) -> np.ndarray:
        if self._at[0] != R:
            self._at = (R, self._eval(R, 0))
        return self._at[1]

    def dz_at(self, R: float) -> np.ndarray:
        if self._dz_at[0] != R:
            self._dz_at = (R, self._eval(R, 1))
        return self._dz_at[1]


def front_seed(grid: CylinderGrid, plateau, offset: float = 0.0,
               steepness: float = 1.0) -> Field:
    """Front-like seed: plateau on the left decaying to zero on the right."""
    if np.isscalar(plateau):
        plat = np.full(grid.n_y, float(plateau))
    else:
        plat = np.asarray(plateau.values if hasattr(plateau, "values") else plateau, float)
    prof = 0.5 * (1.0 - np.tanh(steepness * (grid.z - offset)))
    return apply_boundary(Field(grid, plat[:, None] * prof[None, :]))


def front_position(u: Field) -> float:
    """Axial coordinate where the cross-section sup crosses half its max."""
    s = np.max(np.abs(u.values), axis=0)
    smax = float(s.max())
    if smax <= 0.0:
        raise SeedBasinError("state vanished; no front to locate")
    level = 0.5 * smax
    below = np.nonzero(s < level)[0]
    if below.size == 0:
        raise SeedBasinError("state has no decaying edge inside the window")
    j = below[0]
    if j == 0:
        return float(u.grid.z[0])
    z = u.grid.z
    frac = (s[j - 1] - level) / max(s[j - 1] - s[j], 1e-300)
    return float(z[j - 1] + frac * u.grid.dz)


def _shift_cells(values: np.ndarray, k: int) -> np.ndarray:
    """Shift data k cells left (k > 0) or right (k < 0), constant/zero fill."""
    if k == 0:
        return values.copy()
    out = np.empty_like(values)
    if k > 0:
        out[:, :-k] = values[:, k:]
        out[:, -k:] = 0.0
    else:
        k = -k
        out[:, k:] = values[:, :-k]
        out[:, :k] = values[:, :1]
    return out


def _rewindow(state: EvolutionState, pos: float) -> tuple[EvolutionState, bool]:
    g = state.u.grid
    lo, hi = g.z_min + WINDOW_MARGIN, g.z_max - WINDOW_MARGIN
    if lo <= pos <= hi:
        return state, False
    center = 0.5 * (g.z_min + g.z_max)
    k = int(round((pos - center) / g.dz))
    vals = _shift_cells(state.u.values, k)
    return replace(state, u=apply_boundary(Field(g, vals)),
                   window_shift=state.window_shift + k), True


def freeze_frame(model: ReactionModel, grid: CylinderGrid, seed: Field,
                 c_seed: float, dt: float | None = None,
                 gain: float = 0.5) -> tuple[float, Field, int]:
    """Phase 1: adapt the frame speed until the tracked front stops drifting.

    The speed relaxes by ``c += gain * drift`` with the gain halved whenever
    the drift changes sign.  Returns (speed, frozen state, steps used);
    ``FREEZE_MAX_STEPS`` steps without freezing raise.
    """
    if dt is None:
        dt = 0.4 * dt_max(model, grid)
    # on 2D grids the Newton phase (speed included among its unknowns)
    # carries the final tolerance; freezing only has to reach its basin
    tol = 1e-8 if grid.n_y == 1 else 1e-5
    c = max(float(c_seed), 1e-6)
    kappa = gain
    stepper = Stepper(model, grid, dt, c)
    state = EvolutionState(0.0, apply_boundary(seed), c)
    plateau0 = float(np.max(state.u.values))
    pos_prev = front_position(state.u)
    drift_prev = None
    pending = 0.0
    for k in range(1, FREEZE_MAX_STEPS + 1):
        state = stepper.step(state)
        smax = float(np.max(state.u.values))
        if smax < 0.25 * plateau0:
            raise SeedBasinError("seed collapsed toward zero during freezing")
        if float(np.min(np.max(state.u.values, axis=0))) > 0.75 * plateau0:
            raise SeedBasinError("seed filled the window during freezing")
        pos = front_position(state.u)
        state, shifted = _rewindow(state, pos)
        if shifted:
            pos = front_position(state.u)
        drift = (pos - pos_prev) / dt if not shifted else 0.0
        pos_prev = pos
        if not shifted and abs(drift) < tol and k > 10:
            return c, state.u, k
        if drift_prev is not None and drift * drift_prev < 0:
            kappa = max(0.5 * kappa, 0.05)
        drift_prev = drift
        pending += kappa * drift
        if abs(pending) > max(0.3 * abs(drift), 1e-13):
            c = max(c + pending, 1e-6)
            pending = 0.0
            state = replace(state, frame_speed=c)
            stepper = Stepper(model, grid, dt, c)
    raise WaveSolverError("front failed to freeze in %d steps (last drift %.3g)"
                          % (FREEZE_MAX_STEPS, drift))


def _wave_residual(model, grid, values, c):
    r = _apply_transport(grid, values, c) + eval_f(model, Field(grid, values)).values
    r[grid.dirichlet_mask] = 0.0
    return r


@dataclass
class _NewtonWork:
    """What the polishes of one wave share: the chord factorization and the
    work counted so far (Newton iterations, Jacobian factorizations)."""
    lu: spla.SuperLU | None = None
    iterations: int = 0
    factorizations: int = 0


def _newton_polish(model, grid, values, c, ref_values, max_iter=40,
                   tol=NEWTON_TOL, work=None):
    """Phase 2: bordered Newton on (profile, speed) with a weighted phase condition.

    The phase condition pins the weighted projection of the update on the
    reference profile's axial derivative, weighted at the speed the call
    starts from.  Every iteration evaluates the wave residual ``G``, the
    phase and ``dG/dc`` exactly at the current iterate, and their merit
    ``max(sup|G|, |phase|)`` alone decides convergence.

    The residual and ``dG/dc`` (a central difference in ``c``) are applied
    matrix-free; ``transport_operator`` is assembled only to be factored.  On
    every grid the ``splu`` factorization is kept in ``work`` and reused (the
    chord method, Kelley, *Solving Nonlinear Equations with Newton's Method*,
    SIAM 2003, ch. 2), across iterations and across the calls that share
    ``work``.  A chord step is taken whole when it at least halves the merit;
    otherwise it is dropped, the Jacobian is factored at the current iterate,
    and that Newton step is damped by halving until the merit falls.  When no
    damped step lowers a merit already within ``100 tol`` (the roundoff
    floor), the current, best iterate is returned; above it the polish raises.
    """
    if work is None:
        work = _NewtonWork()
    pinned = grid.dirichlet_mask.ravel()
    ref_dz = axial_derivative(ref_values, grid).ravel()
    ref_dz[pinned] = 0.0
    w = flow_weights(grid, WeightedMeasure(max(c, 1e-6), z_ref=0.0)).ravel()
    p = w * ref_dz
    p /= float(p @ ref_dz)  # now p.(u - ref) has units of translation
    p[pinned] = 0.0

    u = values.ravel().copy()
    u[pinned] = 0.0
    ref = ref_values.ravel()
    hc = 1e-7 * (1.0 + abs(c))

    def residual(uv, cv):
        G = _wave_residual(model, grid, uv.reshape(grid.shape), cv).ravel()
        phase = float(p @ (uv - ref))
        return G, phase, max(float(np.max(np.abs(G))), abs(phase))

    def bordered(s1, s2):
        # Schur-complement bordering: s1, s2 solve the Jacobian block for
        # [G, Gc]; eliminate the speed through the phase condition.  The
        # exactly evaluated residual governs convergence, so mild near-null
        # amplification in the block solves is harmless.
        dc = (phase - p @ s1) / (p @ s2)
        return -s1 - dc * s2, dc

    G, phase, merit = residual(u, c)
    for _ in range(max_iter):
        if merit <= tol:
            break
        work.iterations += 1
        U = u.reshape(grid.shape)
        Gc = (_apply_transport(grid, U, c + hc)
              - _apply_transport(grid, U, c - hc)).ravel() / (2 * hc)
        rhs = np.column_stack([G, Gc])
        if work.lu is not None:
            du, dc = bordered(*work.lu.solve(rhs).T)
            u_try, c_try = u + du, c + dc
            G_try, phase_try, m_try = residual(u_try, c_try)
        if work.lu is None or not m_try <= 0.5 * merit:
            # Pinned rows of the operator are zero, so unit diagonal entries
            # there make identity rows enforcing the pinned values.
            fu = eval_f_u(model, Field(grid, U)).values.ravel()
            jac_diag = np.where(pinned, 1.0, fu)
            work.lu = None  # free the stale factors first
            try:
                J = transport_operator(grid, c) + sp.diags(jac_diag)
                work.lu = spla.splu(J.tocsc())
                s1, s2 = work.lu.solve(rhs).T
            except RuntimeError as exc:
                raise WaveSolverError("bordered Newton solve failed: %s" % exc)
            work.factorizations += 1
            du, dc = bordered(s1, s2)
            stepsize = 1.0
            for _ in range(10):
                u_try = u + stepsize * du
                c_try = c + stepsize * dc
                G_try, phase_try, m_try = residual(u_try, c_try)
                if m_try < merit:
                    break
                stepsize *= 0.5
            else:
                if merit > 100 * tol:
                    raise WaveSolverError("Newton stalled at residual %.3g" % merit)
                break  # at the roundoff floor: keep the best iterate
        u, c, G, phase, merit = u_try, c_try, G_try, phase_try, m_try
        if not np.isfinite(merit) or abs(c) > 1e3:
            raise WaveSolverError("Newton diverged")
    if merit > 100 * tol:
        raise WaveSolverError("Newton did not converge: residual %.3g" % merit)
    return u.reshape(grid.shape), c


def _mid_level_position(grid: CylinderGrid, values: np.ndarray) -> float:
    """z where the cross-section sup equals half its global maximum.

    The sup is interpolated by a monotone (PCHIP) cubic; the crossing is
    found by bisection, to 1e-13, on the first interval where the sup falls
    below half its maximum.
    """
    s = np.max(np.abs(values), axis=0)
    target = 0.5 * float(s.max())
    j = np.nonzero(s < target)[0]
    if j.size == 0 or j[0] == 0:
        raise WaveSolverError("profile has no mid-level crossing inside the window")
    j = j[0]
    cell = slice(j - 1, j + 1)
    z, r, d = grid.z[cell], s[cell] - target, pchip_slopes(s, grid.dz)[cell]
    lo, hi = float(z[0]), float(z[1])   # r >= 0 at lo, r < 0 at hi
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if hermite(z, r, d, mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _centered_solution(model: ReactionModel, grid: CylinderGrid, values: np.ndarray,
                       c: float) -> WaveSolution:
    """Newton-polish ``values``, translate its mid-level to z = 0, re-polish.

    The translations shrink fast (0.149, 2.4e-6, 5.2e-10 on the stacked
    config), so every re-polish starts close to the previous solution: the
    polishes share one ``_NewtonWork``, and they keep stepping with the first
    factorization for as long as it halves the merit.  The returned
    solution counts their Newton iterations and factorizations.

    Raises when the final residual of the discrete wave equation exceeds
    RESIDUAL_LIMIT; the returned solution records (but does not enforce)
    axial monotonicity.
    """
    work = _NewtonWork()
    values, c = _newton_polish(model, grid, values, c, values, work=work)
    total_shift = 0.0
    for _ in range(6):
        zmid = _mid_level_position(grid, values)
        if abs(zmid) < 1e-10:
            break
        shifted = translate(Field(grid, values), -zmid)
        total_shift += -zmid
        values, c = _newton_polish(model, grid, shifted.values, c, shifted.values,
                                   work=work)

    res = float(np.max(np.abs(_wave_residual(model, grid, values, c))))
    if res > RESIDUAL_LIMIT:
        raise WaveSolverError("wave residual %.3g exceeds %.1g" % (res, RESIDUAL_LIMIT))
    return WaveSolution(
        grid=grid,
        speed=float(c),
        profile=Field(grid, values),
        profile_dz=axial_derivative(values, grid),
        residual=res,
        normalization_shift=float(total_shift),
        plateau=CrossSectionField(grid, values[:, 0].copy()),
        monotone=bool(np.all(np.diff(values, axis=1) <= 1e-12)),
        newton_iterations=work.iterations,
        factorizations=work.factorizations,
    )


def solve_wave(model: ReactionModel, grid: CylinderGrid, seed: Field,
               c_seed: float, dt: float | None = None) -> WaveSolution:
    """Compute the selected speed and the centered minimizing profile."""
    c1, frozen, _ = freeze_frame(model, grid, seed, c_seed, dt=dt)
    ws = _centered_solution(model, grid, frozen.values, c1)
    if not ws.monotone:
        raise WaveSolverError("computed profile is not monotone along the axis")
    return ws


def refine_solution(ws: WaveSolution, grid: CylinderGrid,
                    model: ReactionModel) -> WaveSolution:
    """Transfer a solved wave to a finer grid by Newton polish alone.

    The coarse profile is interpolated by monotone (PCHIP) cubics, along the
    axis and then across the section; it is already in the Newton basin, so
    the expensive freezing phase is skipped and the same grid-refinement
    studies run in seconds.  The window must match; only resolutions may
    differ.
    """
    if (grid.z_min, grid.z_max, grid.y_min, grid.y_max) != (
            ws.grid.z_min, ws.grid.z_max, ws.grid.y_min, ws.grid.y_max):
        raise WaveSolverError("refinement grid must keep the same window")
    coarse = ws.profile.values
    vals = hermite(ws.grid.z, coarse, pchip_slopes(coarse, ws.grid.dz), grid.z)
    if grid.n_y > 1:
        if ws.grid.n_y == 1:
            vals = np.tile(vals[:1], (grid.n_y, 1))
        else:
            rows = vals.T
            vals = hermite(ws.grid.y, rows, pchip_slopes(rows, ws.grid.dy), grid.y).T
    vals = apply_boundary(Field(grid, vals)).values
    return _centered_solution(model, grid, vals, ws.speed)


# ---------------------------------------------------------------------------
# spectral gap of the linearization


@dataclass
class GapResult:
    zero_mode_value: float        # eigenvalue of the translational mode
    gap: float                    # smallest eigenvalue orthogonal to it
    alignment: float              # |cos| between that mode and profile_dz
    constraint_residual: float    # weighted projection of the gap mode on profile_dz
    residual_zero: float
    residual_gap: float
    scale: float                  # Gershgorin norm of the symmetrized operator
    gap_positive: bool
    iterations: int


def _inverse_iteration(Asym: sp.spmatrix, shift: float, deflate: np.ndarray | None):
    """Shifted inverse power iteration with optional rank-one deflation.

    Deflation shifts the unwanted direction up the spectrum (A + beta phi
    phi^T); the shifted solves stay sparse through Sherman-Morrison.  The
    shift is re-centered on the Rayleigh quotient while converging (for a
    symmetric operator the quotient lies within the residual of the target
    eigenvalue, so theta - 10 res stays safely below it).
    """
    n = Asym.shape[0]
    ident = sp.identity(n, format="csr")
    beta = 0.0 if deflate is None else 10.0 * float(np.max(np.abs(Asym).sum(axis=1)))

    def factor(sigma):
        lu = spla.splu((Asym - sigma * ident).tocsc())
        t = lu.solve(deflate) if deflate is not None else None
        return lu, t

    def solve(lu, t, rhs):
        s = lu.solve(rhs)
        if deflate is None:
            return s
        return s - t * ((deflate @ s) / (1.0 / beta + (deflate @ t)))

    def apply(x):
        y = Asym @ x
        if deflate is not None:
            y = y + beta * (deflate @ x) * deflate
        return y

    lu, t = factor(shift)
    rng = np.random.default_rng(12345)
    x = np.ones(n) + 1e-3 * rng.standard_normal(n)
    if deflate is not None:
        x -= (deflate @ x) * deflate
    x /= np.linalg.norm(x)
    res = np.inf
    theta = float(x @ apply(x))
    for it in range(1, EIGEN_MAX_ITER + 1):
        x = solve(lu, t, x)
        x /= np.linalg.norm(x)
        ax = apply(x)
        theta = float(x @ ax)
        res = float(np.linalg.norm(ax - theta * x))
        if res <= 1e-9 * max(1.0, abs(theta)):
            break
        if it % 20 == 0:
            shift = theta - 10.0 * res
            lu, t = factor(shift)
    else:
        raise WaveSolverError("eigen iteration did not converge (residual %.3g)" % res)
    if deflate is not None:
        # report the exactly-constrained vector (projection changes the
        # eigenpair only at the deflation-leakage level)
        x = x - (deflate @ x) * deflate
        x /= np.linalg.norm(x)
        ax = Asym @ x
        theta = float(x @ ax)
        res = float(np.linalg.norm((ax - (deflate @ ax) * deflate) - theta * x))
    return theta, x, res, it


def spectral_gap(ws: WaveSolution, model: ReactionModel) -> GapResult:
    """Two smallest eigenvalues of the weighted linearization at the wave.

    The operator is symmetrized by the diagonal weight substitution
    (w = weight^{-1/2} phi), then the translational mode is located by
    inverse iteration and the rest of the spectrum by deflated iteration
    against the profile's axial derivative (weighted Gram-Schmidt).
    """
    grid = ws.grid
    free = ~grid.dirichlet_mask.ravel()
    A = transport_operator(grid, ws.speed)
    fu = eval_f_u(model, ws.profile).values.ravel()
    w = flow_weights(grid, ws.measure(z_ref=0.0)).ravel()

    L = (-(A + sp.diags(fu))).tocsr()[free][:, free]
    wf = w[free]
    S = sp.diags(wf) @ L
    d = 1.0 / np.sqrt(wf)
    Asym = sp.diags(d) @ S @ sp.diags(d)
    Asym = 0.5 * (Asym + Asym.T)
    scale = float(np.max(np.abs(Asym).sum(axis=1)))

    phiz = np.sqrt(wf) * ws.profile_dz.ravel()[free]
    phiz_hat = phiz / np.linalg.norm(phiz)

    shift = -0.2 * (1.0 + float(np.max(np.abs(fu))))
    lam0, v0, res0, it0 = _inverse_iteration(Asym, shift, None)
    align = float(abs(v0 @ phiz_hat))
    gap, vg, resg, itg = _inverse_iteration(Asym, shift, phiz_hat)
    constraint = float(abs(vg @ phiz_hat))
    return GapResult(
        zero_mode_value=lam0,
        gap=gap,
        alignment=align,
        constraint_residual=constraint,
        residual_zero=res0,
        residual_gap=resg,
        scale=scale,
        gap_positive=bool(gap > 0.0),
        iterations=it0 + itg,
    )


# ---------------------------------------------------------------------------
# secondary (stacked-front) speed


@dataclass
class SecondaryResult:
    applicable: bool
    note: str
    speed: float | None = None
    wave: Field | None = None
    upper_state: CrossSectionField | None = None


def secondary_speed(model: ReactionModel, grid: CylinderGrid, v: CriticalPoint,
                    c_seed: float = 0.05, dt: float | None = None) -> SecondaryResult:
    """Selected speed of a front invading the plateau v from above.

    Works on the shifted unknown h = u - v with the shifted reaction; returns
    "not applicable" when there is no room above v or no negative-energy upper
    state to launch from.
    """
    head = 1.0 - v.v.values
    if float(np.max(head)) < 1e-6:
        return SecondaryResult(False, "not applicable: no room above the plateau")
    # locate the next critical point above v with the base model (the shifted
    # problem has the same solution set translated by v)
    try:
        upper_full = find_critical_point(
            model, grid, CrossSectionField(grid, v.v.values + 0.95 * head))
    except SectionSolverError as exc:
        return SecondaryResult(False, "not applicable: upper-state solve failed (%s)" % exc)
    h_star = upper_full.v.values - v.v.values
    if float(np.max(h_star)) < 1e-3:
        return SecondaryResult(False, "not applicable: no nontrivial state above the plateau")
    if float(np.min(h_star)) < -1e-8:
        return SecondaryResult(False, "not applicable: nearest critical point is not above the plateau")
    if not upper_full.energy < v.energy:
        return SecondaryResult(
            False, "not applicable: upper state has nonnegative shifted energy %.3g"
            % (upper_full.energy - v.energy))
    shifted = ShiftedModel(base=model, v_values=tuple(v.v.values),
                           y_nodes=tuple(grid.y))
    upper = CrossSectionField(grid, np.maximum(h_star, 0.0))
    try:
        ws = solve_wave(shifted, grid, front_seed(grid, upper), c_seed, dt=dt)
    except (WaveSolverError, SectionSolverError) as exc:
        return SecondaryResult(False, "not applicable: secondary wave solve failed (%s)" % exc)
    return SecondaryResult(True, "secondary wave found", speed=ws.speed,
                           wave=ws.profile, upper_state=upper)


# ---------------------------------------------------------------------------
# translation-distance diagnostics


@dataclass
class TranslationReport:
    radii: np.ndarray
    distances: np.ndarray
    ratio_lower: float            # min distance/|R| over 0 < |R| <= 1
    ratio_upper: float            # max distance/|R| over 0 < |R| <= 1
    small_shift_slope: float      # distance/|R| at the smallest sampled |R|
    dz_norm: float                # weighted norm of the discrete profile_dz
    monotone_in_abs_R: bool
    min_distance_outside: float   # smallest distance among |R| >= 1


def translation_profile(ws: WaveSolution, radii: np.ndarray | None = None) -> TranslationReport:
    """Sample ||T_R profile - profile|| and fit the linear-band constants."""
    from .weighted import weighted_norm_l2

    if radii is None:
        radii = np.concatenate([np.linspace(-1.0, 1.0, 41), [-2.0, -1.5, 1.5, 2.0]])
    radii = np.asarray(sorted(radii))
    m = ws.measure(z_ref=0.0)
    dist = np.empty(radii.size)
    for i, r in enumerate(radii):
        if r == 0.0:
            dist[i] = 0.0
            continue
        diff = translate(ws.profile, float(r)).values - ws.profile.values
        dist[i] = weighted_norm_l2(Field(ws.grid, diff), m)

    inner = (np.abs(radii) > 0) & (np.abs(radii) <= 1.0)
    ratios = dist[inner] / np.abs(radii[inner])
    small = np.argmin(np.abs(np.where(radii == 0.0, np.inf, radii)))
    dzn = weighted_norm_l2(Field(ws.grid, ws.profile_dz), m)

    pos = radii > 0
    neg = radii < 0
    mono = bool(np.all(np.diff(dist[pos]) >= -1e-12) and
                np.all(np.diff(dist[neg][::-1]) >= -1e-12))
    outside = np.abs(radii) >= 1.0
    return TranslationReport(
        radii=radii,
        distances=dist,
        ratio_lower=float(ratios.min()),
        ratio_upper=float(ratios.max()),
        small_shift_slope=float(dist[small] / abs(radii[small])),
        dz_norm=float(dzn),
        monotone_in_abs_R=mono,
        min_distance_outside=float(dist[outside].min()) if outside.any() else float("nan"),
    )


# ---------------------------------------------------------------------------
# flat text serialization (decimal round-trip at 17 significant digits)


def save_solution(ws: WaveSolution, path) -> None:
    g = ws.grid
    lines = ["# cylwave wave solution v1"]
    lines.append("speed = %.17g" % ws.speed)
    lines.append("residual = %.17g" % ws.residual)
    lines.append("normalization_shift = %.17g" % ws.normalization_shift)
    lines.append("monotone = %s" % ("true" if ws.monotone else "false"))
    for f in fields(GridConfig):
        value = getattr(g, f.name)
        text = "%.17g" % value if isinstance(f.default, float) else str(value)
        lines.append("%s = %s" % (f.name, text))
    lines.append("plateau = " + " ".join("%.17g" % x for x in ws.plateau.values))
    lines.append("values:")
    for row in ws.profile.values:
        lines.append(" ".join("%.17g" % x for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_solution(path) -> WaveSolution:
    head: dict[str, str] = {}
    rows: list[np.ndarray] = []
    in_values = False
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line == "values:":
                in_values = True
                continue
            if in_values:
                rows.append(np.array(line.split(), dtype=float))
            else:
                k, _, val = line.partition("=")
                head[k.strip()] = val.strip()
    grid = build_grid(GridConfig(**{f.name: type(f.default)(head[f.name])
                                    for f in fields(GridConfig)}))
    values = np.vstack(rows)
    profile = Field(grid, values)
    return WaveSolution(
        grid=grid,
        speed=float(head["speed"]),
        profile=profile,
        profile_dz=axial_derivative(values, grid),
        residual=float(head["residual"]),
        normalization_shift=float(head["normalization_shift"]),
        plateau=CrossSectionField(grid, np.array(head["plateau"].split(), dtype=float)),
        monotone=head["monotone"] == "true",
    )
