"""Selected-speed traveling waves: pseudo-transient continuation wave
solver, spectral gap, secondary (stacked-front) speed, and translation-distance
diagnostics.

The continuation is one loop from the seed to the centred wave: implicit
Euler in pseudo-time on the freezing system {discrete wave equation = 0,
phase condition = 0} with the speed as an extra unknown (Beyn & Thuemmler,
SIAM J. Appl. Dyn. Syst. 3 (2004)), whose pseudo-time step grows by switched
evolution relaxation until the steps are Newton steps (Kelley & Keyes, SIAM
J. Numer. Anal. 35 (1998)).  The phase condition pins the front's mid-level
at z = 0, where the seed's own mid-level is moved first, so the loop returns
the speed and the centred profile together.  1D and 2D grids take the same
path: the residual is applied matrix-free, and each level's solve reuses a
sparse factorization of the Jacobian block (chord steps), factored again
when a chord step fails to lower the merit or to cut it to a quarter.

Every wave is solved on two levels (nested iteration, Briggs, Henson &
McCormick, *A Multigrid Tutorial*, SIAM 2000): the continuation runs on the
half grid (``half_grid``), and Newton alone carries its wave to the
configured grid (``refine_solution``).  The scheme is second order, so the
two speeds give the Richardson estimate ``(c_h - c_2h) / 3`` of the
configured speed's error.  A grid without a half grid is solved on one
level, with no estimate.  ``WaveSolution`` counts the steps, iterations and
factorizations.

The spectral gap is the second lowest eigenvalue of the weight-symmetrized
linearization at the wave; the lowest is the translational mode's.
``spectral_gap`` takes both from one shift-invert Lanczos run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .evolve import flow_weights
from .grids import (CrossSectionField, CylinderGrid, Field, GridConfig,
                    _apply_axial, _apply_transport, apply_boundary, axial_derivative,
                    build_grid, front_seed, half_grid, transport_operator)
from .reactions import ReactionModel, ShiftedModel, eval_f, eval_f_u
from .sections import CriticalPoint, find_critical_point, section_energy
from .weighted import (WeightedMeasure, cell_fraction, cell_value, hermite,
                       pchip_slopes, shifted_cell, spline_slopes, translate, translations,
                       weighted_norm_l2, weighted_norms_l2)

# every float written to wave.txt, trace.csv and manifest.txt: decimal round-trip
FLOAT_FORMAT = "%.17g"
NEWTON_TOL = 1e-11
RESIDUAL_LIMIT = 1e-8
# first pseudo-time step of the continuation (the rule: see freeze_frame)
TAU0 = 100.0
# pseudo-time steps before the continuation counts as failed
CONTINUATION_MAX_STEPS = 200
# SuperLU's symmetric mode (minimum degree on A + A^T, diagonal pivots) with the
# smallest supernodes, for the Newton block and the gap's shifted operator (which
# is symmetric positive definite, so diagonal pivots are safe); see README
SPLU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, relax=1, panel_size=1)


class WaveSolverError(RuntimeError):
    pass


class SeedBasinError(WaveSolverError):
    """The seed is not in the basin of a front: it is not front-like, or the
    continuation collapsed toward zero or filled the window."""


@dataclass
class WaveSolution:
    grid: CylinderGrid
    speed: float
    profile: Field
    profile_dz: np.ndarray          # centered d/dz of the profile
    residual: float                 # sup-norm of the discrete wave equation
    normalization_shift: float      # translation that centred the seed's mid-level
    plateau: CrossSectionField      # left-edge cross-section state
    monotone: bool
    newton_iterations: int = 0      # Newton iterations on this grid (refine_solution)
    factorizations: int = 0         # Jacobian factorizations, both levels
    continuation_steps: int = 0     # pseudo-time steps from the seed, on the half grid
    # Richardson estimate (c_h - c_2h) / 3 from the two levels: speed +
    # speed_err_est is the extrapolated speed; nan when solved on one level
    speed_err_est: float = float("nan")
    # the half-grid wave this one was carried from; None on one level
    coarse: "WaveSolution | None" = field(default=None, repr=False, compare=False)

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

    A shift R moves every node by the same ``-R/dz = k + t`` cells
    (``cell_fraction``), so every node of the translate is one cubic in the
    offset ``t dz`` whose arrays depend on the cell k alone
    (``weighted.shifted_cell``, which owns the clipping and end rules).
    ``cell`` remembers the arrays of the last cell asked for, read-only; the
    tracker takes its dot products with them, which give the translate's
    slope sums without evaluating it, and ``at`` evaluates them by Horner
    (``cell_value``).  A shift by a whole number of cells asks for the cell
    with ``node`` set, in which a node moved exactly onto the right end
    keeps the end slope.
    """

    def __init__(self, ws: WaveSolution):
        self.ws = ws
        self._slopes = spline_slopes(ws.profile.values, ws.grid.dz)
        self.max_shift = 0.5 * ws.grid.window_length
        self._cell = (None, None)

    def cell(self, k: int, node: bool = False) -> np.ndarray:
        """``shifted_cell`` arrays of the profile for cell k, read-only."""
        if self._cell[0] != (k, node):
            a = shifted_cell(self.ws.profile.values, self._slopes, self.ws.grid.dz,
                             k, node)
            a.flags.writeable = False
            self._cell = ((k, node), a)
        return self._cell[1]

    def at(self, R: float) -> np.ndarray:
        """``T_R profile`` on the grid."""
        k, t = cell_fraction(R, self.ws.grid.dz)
        return cell_value(self.cell(k, t == 0.0), t * self.ws.grid.dz)


def _wave_residual(model, grid, values, c):
    r = _apply_transport(grid, values, c) + eval_f(model, grid, values)
    r[grid.dirichlet_mask] = 0.0
    return r


def freeze_frame(model: ReactionModel, grid: CylinderGrid, seed: Field,
                 c_seed: float) -> tuple[float, Field, int, float, int]:
    """Pseudo-transient continuation from a front-like seed to the centred wave.

    Implicit Euler in pseudo-time on the freezing system of Beyn & Thuemmler
    (2004): the wave equation ``G(u, c) = 0`` and a phase condition that
    pins the front's mid-level at z = 0, with the speed as an extra unknown.
    Each step is one bordered solve of ``J - I/tau`` on the free nodes, i.e.
    ``_newton_polish`` with ``-1/tau`` on the free diagonal, and ``tau`` grows
    by switched evolution relaxation, ``tau <- tau merit_old / merit_new``
    (Kelley & Keyes 1998), until the steps are Newton steps.  The chord rule
    of ``_newton_polish`` holds throughout.

    ``tau`` starts at ``TAU0 = 100`` on every grid and model.  The rule: the
    first step is a Newton step whose block is shifted by ``1/tau = 0.01``,
    below the spectral gaps of the shipped waves (0.105 for the stacked
    primary wave on 65x371, 0.133 for the secondary one on its 33x186 half
    grid, 0.29 for the 1D cubic wave), so a few factorizations serve as
    chords from the seed on.  A flow-like start costs steps and
    factorizations: on the 33x186 half grid of the stacked config,
    ``1/max(1, sup|f_u|)`` at the seed, the cross-section solver's rule,
    takes 11 and 18 steps with 4 and 6 factorizations for its two waves,
    against 8 and 9 steps with 3 and 3 here (the 1D cubic wave: 12 steps
    with 3 factorizations, against 10 with 2).

    A seed whose left section does not have negative energy is not
    front-like and raises SeedBasinError before any step, as does a step
    that collapses toward zero or fills the window; a front-like seed is
    first translated by ``shift`` to put its mid-level at z = 0, and a shift
    of half the window length or more raises SeedBasinError as well.
    ``CONTINUATION_MAX_STEPS`` steps without reaching ``NEWTON_TOL`` raise
    WaveSolverError.  Returns (speed, wave, steps, shift, factorizations).
    """
    seed = apply_boundary(seed)
    left = section_energy(CrossSectionField(grid, seed.values[:, 0].copy()), model)
    if not left < 0.0:
        raise SeedBasinError("seed is not front-like: its left section has energy "
                             "%.3g >= 0" % left)
    shift = 0.0 - _mid_level(grid, seed.values)  # 0.0, never -0.0
    if abs(shift) >= 0.5 * grid.window_length:
        raise SeedBasinError("seed's mid-level needs a shift of %g to reach z = 0, "
                             "not less than half the window length %g"
                             % (shift, 0.5 * grid.window_length))
    if shift != 0.0:
        seed = translate(seed, shift)
    values, c, steps, factorizations = _newton_polish(
        model, grid, seed.values, float(c_seed), max_iter=CONTINUATION_MAX_STEPS, tau=TAU0)
    return c, Field(grid, values), steps, shift, factorizations


def _mid_level(grid: CylinderGrid, values: np.ndarray) -> float:
    """z where the linearly interpolated cross-section sup first falls to
    half its maximum."""
    s = np.max(values, axis=0)
    target = 0.5 * float(s.max())
    j = int(np.argmax(s < target))  # 0 when no node, or the first, is below
    if j == 0:
        raise WaveSolverError("profile has no mid-level crossing inside the window")
    return float(grid.z[j - 1] + grid.dz * (s[j - 1] - target) / (s[j - 1] - s[j]))


def _phase_vector(grid: CylinderGrid, u: np.ndarray) -> np.ndarray:
    """``p`` with ``p.u`` = the cross-section sup at z = 0, linear between
    the two nodes around it, minus half the global sup; each sup is read at
    ``u``'s argmax node, so ``p`` is the phase's gradient at ``u``."""
    if not grid.z_min <= 0.0 <= grid.z_max:
        raise WaveSolverError("the window [%g, %g] does not contain z = 0, where "
                              "the mid-level is pinned" % (grid.z_min, grid.z_max))
    j = min(int(np.searchsorted(grid.z, 0.0, side="right")) - 1, grid.n_z - 2)
    theta = -float(grid.z[j]) / grid.dz
    U = u.reshape(grid.shape)
    p = np.zeros(grid.shape)
    p[np.argmax(U[:, j]), j] += 1.0 - theta
    p[np.argmax(U[:, j + 1]), j + 1] += theta
    p.flat[np.argmax(U)] -= 0.5
    return p.ravel()


def _speed_derivative(grid: CylinderGrid, U: np.ndarray, c: float, hc: float) -> np.ndarray:
    """``dG/dc`` at ``U``, zero at pinned nodes: the central difference of the
    axial product alone, since nothing else in ``G`` depends on ``c``."""
    Gc = (_apply_axial(grid, U, c + hc) - _apply_axial(grid, U, c - hc)) / (2 * hc)
    Gc[grid.dirichlet_mask] = 0.0
    return Gc


def _newton_polish(model, grid, values, c, max_iter=40, tau=np.inf):
    """Bordered Newton on (profile, speed) with the mid-level phase condition.

    The phase ``p.u`` (``_phase_vector``) pins the front's mid-level at
    z = 0; ``p`` is rebuilt at each accepted iterate.  Every iteration
    evaluates the wave residual ``G`` and the phase exactly at the current
    iterate, and their merit ``max(sup|G|, |phase|)`` alone decides
    convergence.  A finite ``tau`` makes each iteration an implicit Euler
    step of pseudo-time ``tau`` (the factored block is ``J - I/tau`` on the
    free nodes), and ``tau`` grows by ``merit_old / merit_new`` after every
    step (freeze_frame).

    The residual is applied matrix-free, ``dG/dc`` is a central difference
    of the axial product alone (``_speed_derivative``), and the block is
    assembled as five diagonals only to be factored.  On every grid the
    ``splu`` factorization is kept and reused across this call's iterations
    (the chord method, Kelley, *Solving Nonlinear Equations with Newton's
    Method*, SIAM 2003, ch. 2), together with its solve ``s2`` of ``dG/dc``,
    which is evaluated only where the block is factored: a chord step solves
    the one column ``G`` and borders it with that ``s2`` and the current
    phase vector.  A chord step that lowers the merit is taken whole, and
    when it does not cut the merit to a quarter the block is factored again
    at the new iterate before the next step.  A chord step that does not
    lower the merit is dropped, the block is factored at the current
    iterate, and that step is damped by halving until the merit falls.
    When no damped step lowers a merit already within
    ``100 NEWTON_TOL`` (the roundoff floor), the current, best iterate is
    returned; above it the polish raises, as it does after ``max_iter``
    iterations.  An iterate whose sup falls below a quarter of the start's,
    or whose every section stays above three quarters of it, is no front and
    raises SeedBasinError.  Returns (values, c, iterations, factorizations).
    """
    lu, s2, iterations, factorizations = None, None, 0, 0
    pinned = grid.dirichlet_mask.ravel()
    u = values.ravel().copy()
    u[pinned] = 0.0
    p = _phase_vector(grid, u)
    top = float(np.max(u))
    hc = 1e-7 * (1.0 + abs(c))

    def residual(uv, cv):
        G = _wave_residual(model, grid, uv.reshape(grid.shape), cv).ravel()
        phase = float(p @ uv)
        return G, phase, max(float(np.max(np.abs(G))), abs(phase))

    def bordered(s1, s2):
        # Schur-complement bordering: s1 solves the Jacobian block for G, s2
        # for Gc at the last factorization; eliminate the speed through the
        # phase condition.  The exactly evaluated residual governs
        # convergence, so mild near-null amplification in the block solves
        # is harmless.
        dc = (phase - p @ s1) / (p @ s2)
        return -s1 - dc * s2, dc

    G, phase, merit = residual(u, c)
    for _ in range(max_iter):
        if merit <= NEWTON_TOL:
            break
        iterations += 1
        kept = False
        if lu is not None:
            du, dc = bordered(lu.solve(G), s2)
            u_try, c_try = u + du, c + dc
            G_try, _, m_try = residual(u_try, c_try)
            kept = m_try < merit
        if not kept:
            # Pinned rows of the operator are zero, so unit diagonal entries
            # there make identity rows enforcing the pinned values.
            U = u.reshape(grid.shape)
            fu = eval_f_u(model, grid, U).ravel()
            jac_diag = np.where(pinned, 1.0, fu - 1.0 / tau)
            lu = None  # free the stale factors first
            rhs = np.column_stack([G, _speed_derivative(grid, U, c, hc).ravel()])
            try:
                # the block is structurally symmetric with a diagonal that
                # outweighs each row's couplings up to f_u: SPLU_OPTIONS
                lu = spla.splu(transport_operator(grid, c, jac_diag), **SPLU_OPTIONS)
                s1, s2 = lu.solve(rhs).T
            except RuntimeError as exc:
                raise WaveSolverError("bordered Newton solve failed: %s" % exc)
            factorizations += 1
            du, dc = bordered(s1, s2)
            stepsize = 1.0
            for _ in range(10):
                u_try = u + stepsize * du
                c_try = c + stepsize * dc
                G_try, _, m_try = residual(u_try, c_try)
                if m_try < merit:
                    break
                stepsize *= 0.5
            else:
                if merit > 100 * NEWTON_TOL:
                    raise WaveSolverError("Newton stalled at residual %.3g" % merit)
                break  # at the roundoff floor: keep the best iterate
        elif not m_try <= 0.25 * merit:
            lu = None  # a slow chord: factor again at the new iterate
        tau *= merit / max(m_try, NEWTON_TOL)  # the floor only guards the last step
        u, c, G = u_try, c_try, G_try
        p = _phase_vector(grid, u)
        phase = float(p @ u)
        merit = max(float(np.max(np.abs(G))), abs(phase))
        if not np.isfinite(merit) or abs(c) > 1e3:
            raise WaveSolverError("Newton diverged")
        if float(np.max(u)) < 0.25 * top:
            raise SeedBasinError("iterate collapsed toward zero")
        if float(np.min(np.max(u.reshape(grid.shape), axis=0))) > 0.75 * top:
            raise SeedBasinError("iterate filled the window")
    if merit > 100 * NEWTON_TOL:
        raise WaveSolverError("no convergence in %d steps: merit %.3g" % (max_iter, merit))
    return u.reshape(grid.shape), c, iterations, factorizations


def _wave_solution(model: ReactionModel, grid: CylinderGrid, values: np.ndarray,
                   c: float, **counts) -> WaveSolution:
    """The solved wave, once its residual is checked against RESIDUAL_LIMIT;
    it records (but does not enforce) axial monotonicity."""
    res = float(np.max(np.abs(_wave_residual(model, grid, values, c))))
    if res > RESIDUAL_LIMIT:
        raise WaveSolverError("wave residual %.3g exceeds %.1g" % (res, RESIDUAL_LIMIT))
    return WaveSolution(
        grid=grid,
        speed=float(c),
        profile=Field(grid, values),
        profile_dz=axial_derivative(values, grid),
        residual=res,
        plateau=CrossSectionField(grid, values[:, 0].copy()),
        monotone=bool(np.all(np.diff(values, axis=1) <= 1e-12)),
        **counts,
    )


def _solve_level(model: ReactionModel, grid: CylinderGrid, seed: Field,
                 c_seed: float) -> WaveSolution:
    """One level: the continuation from the seed, its residual checked."""
    c, wave, steps, shift, factorizations = freeze_frame(model, grid, seed, c_seed)
    return _wave_solution(model, grid, wave.values, c, normalization_shift=shift,
                          continuation_steps=steps, factorizations=factorizations)


def _nested(coarse: WaveSolution, grid: CylinderGrid,
            model: ReactionModel) -> WaveSolution:
    """The half-grid wave ``coarse`` carried to ``grid`` by Newton alone,
    with the Richardson estimate, both levels' counts and ``coarse`` itself."""
    ws = refine_solution(coarse, grid, model)
    return replace(ws, speed_err_est=(ws.speed - coarse.speed) / 3.0, coarse=coarse,
                   normalization_shift=coarse.normalization_shift,
                   continuation_steps=coarse.continuation_steps,
                   factorizations=coarse.factorizations + ws.factorizations)


def _monotone(ws: WaveSolution) -> WaveSolution:
    if not ws.monotone:
        raise WaveSolverError("computed profile is not monotone along the axis")
    return ws


def solve_wave(model: ReactionModel, grid: CylinderGrid, seed: Field,
               c_seed: float) -> WaveSolution:
    """Compute the selected speed and the centred minimizing profile.

    The seed is restricted to the half grid (``half_grid``) by injection,
    where ``freeze_frame`` runs with its front-like, collapse and fill
    checks; ``refine_solution`` carries the wave to ``grid``.  The residual
    gate runs on both levels, the monotone check on the configured wave.
    The result keeps the half-grid wave as ``coarse``, for error bars of
    other quantities.  A grid without a half grid is solved by
    ``freeze_frame`` alone, with ``speed_err_est`` nan and no ``coarse``.
    """
    coarse = half_grid(grid)
    if coarse is None:
        return _monotone(_solve_level(model, grid, seed, c_seed))
    seed = Field(coarse, seed.values[::2, ::2])
    return _monotone(_nested(_solve_level(model, coarse, seed, c_seed), grid, model))


def refine_solution(ws: WaveSolution, grid: CylinderGrid,
                    model: ReactionModel) -> WaveSolution:
    """Transfer a solved wave to a finer grid by Newton polish alone.

    The coarse profile is interpolated by monotone (PCHIP) cubics, along the
    axis and then across the section; it is already in the Newton basin, so
    the continuation from a seed is skipped and the same grid-refinement
    studies run in seconds; ``solve_wave`` takes this step from its half
    grid.  Only resolutions may differ: the window and the boundary tags
    must match.
    """
    if replace(grid, n_y=ws.grid.n_y, n_z=ws.grid.n_z) != ws.grid:
        raise WaveSolverError("refinement grid must differ only in resolution")
    coarse = ws.profile.values
    vals = hermite(ws.grid.z, coarse, pchip_slopes(coarse, ws.grid.dz), grid.z)
    if grid.n_y > 1:
        if ws.grid.n_y == 1:
            vals = np.tile(vals[:1], (grid.n_y, 1))
        else:
            rows = vals.T
            vals = hermite(ws.grid.y, rows, pchip_slopes(rows, ws.grid.dy), grid.y).T
    vals = apply_boundary(Field(grid, vals)).values
    vals, c, iterations, factorizations = _newton_polish(model, grid, vals, ws.speed)
    return _wave_solution(model, grid, vals, c, normalization_shift=0.0,
                          newton_iterations=iterations, factorizations=factorizations)


# ---------------------------------------------------------------------------
# spectral gap of the linearization


@dataclass
class GapResult:
    zero_mode_value: float        # lowest eigenvalue: the translational mode's
    gap: float                    # second lowest eigenvalue
    alignment: float              # |cos| between the lowest mode and profile_dz
    residual_zero: float
    residual_gap: float
    scale: float                  # Gershgorin norm of the symmetrized operator
    residual_tol: float           # (n + 1) eps (scale + |shift|): converged runs' bound
    iterations: int               # shift-invert solves of the Lanczos run


def spectral_gap(ws: WaveSolution, model: ReactionModel) -> GapResult:
    """Two smallest eigenvalues of the weighted linearization at the wave.

    The operator is symmetrized by the diagonal weight substitution
    (w = weight^{-1/2} phi).  The translational mode and the gap are its two
    lowest eigenpairs, from one run of ARPACK's Lanczos on the shift-invert
    operator (Lehoucq, Sorensen & Yang, ARPACK Users' Guide, SIAM 1998):
    the operator is factored once, shifted below its spectrum, so the two
    largest eigenvalues of the inverse are the two lowest of the operator.
    The eigenvalues are the Rayleigh quotients of the Ritz vectors, whose
    residuals are reported with them.

    ARPACK (``tol = 0``) stops at ``||OP x - mu x|| <= eps |mu|``, OP the
    shifted inverse, so ``||A x - lam x|| <= eps ||A - shift||``; each LU
    solve is exact for a matrix within ``n eps ||A - shift||`` of A - shift
    (Higham 2002, Thm 9.3: n unknowns, diagonal pivots, no growth on this
    positive definite block).  A converged residual is below ``residual_tol``.
    """
    grid = ws.grid
    free = ~grid.dirichlet_mask.ravel()
    fu = eval_f_u(model, grid, ws.profile.values).ravel()
    w = flow_weights(grid, ws.measure(z_ref=0.0)).ravel()

    L = (-transport_operator(grid, ws.speed, fu)).tocsr()[free][:, free]
    wf = w[free]
    S = sp.diags(wf) @ L
    d = 1.0 / np.sqrt(wf)
    Asym = sp.diags(d) @ S @ sp.diags(d)
    Asym = 0.5 * (Asym + Asym.T)
    scale = float(np.max(np.abs(Asym).sum(axis=1)))

    phiz = np.sqrt(wf) * ws.profile_dz.ravel()[free]
    phiz_hat = phiz / np.linalg.norm(phiz)

    shift = -0.2 * (1.0 + float(np.max(np.abs(fu))))
    n = Asym.shape[0]
    lu = spla.splu((Asym - shift * sp.identity(n)).tocsc(), **SPLU_OPTIONS)
    solves = 0

    def inverse(x):
        nonlocal solves
        solves += 1
        return lu.solve(x)

    op = spla.LinearOperator((n, n), matvec=inverse, dtype=float)
    try:
        _, vecs = spla.eigsh(op, k=2, which="LM", v0=np.ones(n))
    except spla.ArpackError as exc:
        raise WaveSolverError("spectral gap eigensolver failed: %s" % exc) from exc
    X = vecs / np.linalg.norm(vecs, axis=0)
    AX = Asym @ X
    theta = np.einsum("ij,ij->j", X, AX)
    res = np.linalg.norm(AX - theta * X, axis=0)
    i0, ig = np.argsort(theta)
    return GapResult(
        zero_mode_value=float(theta[i0]),
        gap=float(theta[ig]),
        alignment=float(abs(X[:, i0] @ phiz_hat)),
        residual_zero=float(res[i0]),
        residual_gap=float(res[ig]),
        scale=scale,
        residual_tol=(n + 1) * np.finfo(float).eps * (scale + abs(shift)),
        iterations=solves,
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
    speed_err_est: float = float("nan")  # as WaveSolution.speed_err_est
    # the secondary wave's counts, as WaveSolution's
    continuation_steps: int = 0
    newton_iterations: int = 0
    factorizations: int = 0


class _NotApplicable(Exception):
    """No secondary wave: the exception's text is the result's note."""


def _secondary_problem(model: ReactionModel, grid: CylinderGrid, v: CriticalPoint
                       ) -> tuple[ShiftedModel, CrossSectionField]:
    """The shifted model and the upper state of the front invading v from
    above on ``grid``; raises ``_NotApplicable`` with the note that says why
    there is none."""
    head = 1.0 - v.v.values
    if float(np.max(head)) < 1e-6:
        raise _NotApplicable("not applicable: no room above the plateau")
    # locate the next critical point above v with the base model (the shifted
    # problem has the same solution set translated by v)
    upper_full = find_critical_point(
        model, grid, CrossSectionField(grid, v.v.values + 0.95 * head))
    h_star = upper_full.v.values - v.v.values
    if float(np.max(h_star)) < 1e-3:
        raise _NotApplicable("not applicable: no nontrivial state above the plateau")
    if float(np.min(h_star)) < -1e-8:
        raise _NotApplicable("not applicable: nearest critical point is not above the plateau")
    if not upper_full.energy < v.energy:
        raise _NotApplicable("not applicable: upper state has nonnegative shifted energy %.3g"
                             % (upper_full.energy - v.energy))
    shifted = ShiftedModel(base=model, v_values=tuple(v.v.values),
                           y_nodes=tuple(grid.y))
    return shifted, CrossSectionField(grid, np.maximum(h_star, 0.0))


def secondary_speed(model: ReactionModel, grid: CylinderGrid, v: CriticalPoint,
                    c_seed: float = 0.05, dt: float | None = None) -> SecondaryResult:
    """Selected speed of a front invading the plateau v from above.

    Works on the shifted unknown h = u - v with the shifted reaction; returns
    "not applicable" when there is no room above v or no negative-energy upper
    state to launch from.  A solve that fails raises its WaveSolverError or
    SectionSolverError, since a failure is not a waiver.  Solved on two
    levels as ``solve_wave`` is, but each level is its own discretization:
    the half grid shifts by its own plateau (``find_critical_point`` from v
    injected), with its own upper state, and its wave is carried to ``grid``
    under the model shifted by v.  ``dt`` is accepted and ignored: the wave
    solve takes no time step.
    """
    try:
        shifted, upper = _secondary_problem(model, grid, v)
        coarse = half_grid(grid)
        if coarse is None:
            ws = solve_wave(shifted, grid, front_seed(grid, upper), c_seed)
        else:
            v_coarse = find_critical_point(model, coarse,
                                           CrossSectionField(coarse, v.v.values[::2]))
            shifted_coarse, upper_coarse = _secondary_problem(model, coarse, v_coarse)
            ws = _solve_level(shifted_coarse, coarse, front_seed(coarse, upper_coarse), c_seed)
            ws = _monotone(_nested(ws, grid, shifted))
    except _NotApplicable as exc:
        return SecondaryResult(False, str(exc))
    return SecondaryResult(True, "secondary wave found", speed=ws.speed,
                           wave=ws.profile, upper_state=upper,
                           speed_err_est=ws.speed_err_est,
                           continuation_steps=ws.continuation_steps,
                           newton_iterations=ws.newton_iterations,
                           factorizations=ws.factorizations)


# ---------------------------------------------------------------------------
# translation-distance diagnostics


@dataclass
class TranslationReport:
    radii: np.ndarray
    distances: np.ndarray
    ratio_lower: float            # min distance/|R| over 0 < |R| <= 1
    ratio_upper: float            # max distance/|R| over 0 < |R| <= 1
    dz_norm: float                # weighted norm of the discrete profile_dz
    monotone_in_abs_R: bool
    min_distance_outside: float   # smallest distance among |R| >= 1


def translation_profile(ws: WaveSolution, radii: np.ndarray | None = None) -> TranslationReport:
    """Sample ||T_R profile - profile|| and fit the linear-band constants."""
    if radii is None:
        radii = np.concatenate([np.linspace(-1.0, 1.0, 41), [-2.0, -1.5, 1.5, 2.0]])
    radii = np.asarray(sorted(radii))
    m = ws.measure(z_ref=0.0)
    # T_0 is a copy, so the distance at R = 0 is exactly zero
    dist = weighted_norms_l2(translations(ws.profile, radii.tolist()) - ws.profile.values,
                             ws.grid, m)
    inner = (np.abs(radii) > 0) & (np.abs(radii) <= 1.0)
    ratios = dist[inner] / np.abs(radii[inner])
    mono = bool(np.all(np.diff(dist[radii > 0]) >= -1e-12) and
                np.all(np.diff(dist[radii < 0][::-1]) >= -1e-12))
    outside = np.abs(radii) >= 1.0
    return TranslationReport(
        radii=radii,
        distances=dist,
        ratio_lower=float(ratios.min()),
        ratio_upper=float(ratios.max()),
        dz_norm=weighted_norm_l2(Field(ws.grid, ws.profile_dz), m),
        monotone_in_abs_R=mono,
        min_distance_outside=float(dist[outside].min()) if outside.any() else float("nan"),
    )


# ---------------------------------------------------------------------------
# flat text serialization (decimal round-trip: FLOAT_FORMAT)


def save_solution(ws: WaveSolution, path) -> None:
    g = ws.grid
    lines = ["# cylwave wave solution v1"]
    lines.append("speed = " + FLOAT_FORMAT % ws.speed)
    lines.append("residual = " + FLOAT_FORMAT % ws.residual)
    lines.append("normalization_shift = " + FLOAT_FORMAT % ws.normalization_shift)
    lines.append("monotone = %s" % ("true" if ws.monotone else "false"))
    for f in fields(GridConfig):
        value = getattr(g, f.name)
        text = FLOAT_FORMAT % value if isinstance(f.default, float) else str(value)
        lines.append("%s = %s" % (f.name, text))
    lines.append("plateau = " + " ".join(FLOAT_FORMAT % x for x in ws.plateau.values))
    lines.append("values:")
    for row in ws.profile.values:
        lines.append(" ".join(FLOAT_FORMAT % x for x in row))
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
