"""Optimal-translation front tracking and decay-rate fitting.

The front position is the translation R minimizing the weighted mismatch
``h(u, R) = 0.5 ||u - T_R profile||^2``; first-order optimality makes the
deviation weighted-orthogonal to the translated profile derivative, which is
what drives the exponential decay of the squared mismatch m(t).

In a truncated window m decays only down to a floor f that the pinned right
end sets, ``m ~ a e^{-2 lam t} + f``.  The decay rate lam is at least the
edge of the essential spectrum of the weighted linearization at the rest
state ahead of the front, ``c^2/4 + nu(0)``, with nu(0) the principal
eigenvalue of ``-d2/dy2 - f_u(0, y)`` (Sattinger, Adv. Math. 22, 1976;
Kapitula & Promislow, Spectral and Dynamical Stability of Nonlinear Waves,
2013): in the truncated window that continuum is discrete, and its lowest
level, the spectral gap, lies just above the edge.  Two constants follow
from the floor margin D = ``FLOOR_MARGIN`` of ``default_fit_window``, which
reads the decay law only where m >= D f:

- the span of the stop test is the time in which the decay law drops the
  excess a by D at the edge rate, ``FLOOR_EFOLDS / (2 lam)`` with
  ``FLOOR_EFOLDS = ln D`` e-folds of m;
- over that span m's running minimum falls from at least ``D a + f`` to at
  most ``a + f``.  A fall by ``STOP_FACTOR`` F or less therefore leaves
  ``a <= (F - 1)/(D - F) f``, and ``F = 2D/(D + 1)`` makes that
  ``a <= f/D``: the floor read at the stop is within ``1 + 1/D`` of the
  limit, the same relative error that the window accepts from the floor at
  its right end.  The window's end then moves by at most ``ln(1 + 1/D) /
  (2 lam)``, under 0.018 against the shipped step of 0.05.  The model
  leaves out that the floor itself keeps falling slowly: on the shipped
  config m's minimum falls by 2.3% from the stop at t = 37.6 to t = 120,
  and the window does not move.

So ``track`` ends a run once the running minimum has fallen by F or less
over a span, and its ``horizon`` is a cap.  A fit window whose m falls by
fewer than ``FLOOR_EFOLDS`` e-folds is shorter than one span and cannot
tell the decay from the floor (``fit_efolds``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .evolve import Stepper, step_count, weighted_energies
from .grids import CylinderGrid, Field, axial_derivative
from .reactions import ReactionModel
from .sections import principal_eigenpair
from .waves import FLOAT_FORMAT, WaveSolution
from .weighted import (WeightedMeasure, cell_fraction, node_sums, offset_resolution,
                       quadrature_weights, weighted_sums)

# the mismatch level whose rightmost excess is a trace row's z_delta
DEFAULT_DELTA = 0.05
_EPS = np.finfo(float).eps
M_FLOOR_FACTOR = 1e3 * _EPS

# the fit window keeps the rows whose m is at least this many times the floor
FLOOR_MARGIN = 100.0
# e-folds of m in the stop test's span, and the least a fit window may hold
FLOOR_EFOLDS = math.log(FLOOR_MARGIN)
# the largest fall of m's running minimum over a span that stops the run
STOP_FACTOR = 2.0 * FLOOR_MARGIN / (FLOOR_MARGIN + 1.0)
# m at most this fraction of its first value: the transient is over
TRANSIENT_FRACTION = 0.1

# states stepped before their rows are analysed together
BLOCK_ROWS = 16

CSV_COLUMNS = ("t", "R", "m", "phi", "dRdt_fd", "dRdt_quotient", "h2c_norm", "z_delta")


class TrackerError(RuntimeError):
    pass


class ConvexityError(TrackerError):
    """Candidate translation lies outside the convexity regime (h'' <= c stop)."""


class BracketError(TrackerError):
    """No sign change of h' inside the admissible translation range."""


class TrackingLossError(TrackerError):
    """A step or a tracker call failed after the initial front was found."""


class FitError(ValueError):
    pass


def mismatch(u: Field, ws: WaveSolution, R: float,
             m: WeightedMeasure | None = None) -> float:
    """h(u, R) = 0.5 ||u - T_R profile||^2 in the weighted norm, summed over
    the whole-grid translate: the reference for the cell form of ``CellSums``."""
    if abs(R) >= ws.template.max_shift:
        raise ValueError("translation %g out of range" % R)
    m = m if m is not None else ws.measure(z_ref=R)
    return 0.5 * float(weighted_sums(u.values - ws.template.at(R), u.grid, m)[0])


class CellSums:
    """h, h', h'' and the rounding floor of h' for a block of states and one
    reference measure, as polynomials in the offset s = t dz of the
    translation in its cell.

    In cell k every node of ``T_R profile`` is ``a0 + s a1 + s^2 a2 + s^3 a3``
    (``Template.cell``), so with ``p = (s, s^2, s^3)``, ``p' = (1, 2s, 3s^2)``
    and, over the cell, the dot products ``E_j = <u - a0, a_j>``,
    ``F_j = <u_z, a_j>``, ``M_ij = <a_i, a_j>``, ``S = <u - a0, u - a0>`` and
    ``B_j = sum |w u| |a_j|`` (j = 1..3, weights w):

    - ``h = (S - 2 p.E + p.M.p) / 2``;
    - ``h' = p'.(E - M p)``, which is ``<u - T_R profile, d_z T_R profile>``;
    - ``h'' = c h' + p'.F``;
    - the floor ``eps p'.B``, the rounding bound of h' as computed here,
      which is at least ``eps sum |w u d_z T_R profile|``.

    ``u`` is one state (a Field) or a block of states stacked on a first
    axis; ``u_z``, of the same shape, is ``axial_derivative(u)`` unless the
    caller has it already.  On the first request for a cell the sums are
    formed for every row of the block at once, as (rows, nodes) products in
    the reference measure m; every R after that is scalar work.  The sums
    are linear in the weights, so in the measure referenced at ``z_ref`` a
    row's h, h', h'' and floor are those of m times
    ``exp(-c (z_ref - m.z_ref))``: ``row(i, z_ref)`` evaluates them.  One
    state in m itself is ``CellSums(u, ws, m).row(0, m.z_ref)``, scaled by
    exactly 1.

    A translation by a whole number of cells (s = 0) takes the cell with
    ``node`` set, where h = S / 2 and h' = E_1 are direct sums.  Near a
    translate of the profile h cancels to an absolute error of order
    ``eps S``; the tracker reads it only in its relative stopping test.
    """

    def __init__(self, u: Field | np.ndarray, ws: WaveSolution, m: WeightedMeasure,
                 u_z: np.ndarray | None = None):
        self.tpl, self.c, self.dz, self.z_ref = ws.template, m.c, ws.grid.dz, m.z_ref
        values = u.values if isinstance(u, Field) else u
        if u_z is None:
            u_z = axial_derivative(values, ws.grid)
        w = quadrature_weights(ws.grid, m)
        self.w = w.reshape(-1)
        self.u = np.reshape(values, (-1, self.w.size))
        self.wuz = self.w * np.reshape(u_z, self.u.shape)
        self.awu = abs(self.w * self.u)
        self.dz_norm_sq = float(weighted_sums(ws.profile_dz, ws.grid, m)[0])
        self._cells: dict = {}

    def _sums(self, key):
        """``(S, E, F, M, B)`` of cell ``key = (k, node)`` in m: per row of
        the block (S an array, the others lists), except M, which is the
        same for every row."""
        sums = self._cells.get(key)
        if sums is None:
            a = self.tpl.cell(*key).reshape(4, -1)
            r = self.u - a[0]
            wr = self.w * r
            a = a[1:]
            sums = self._cells[key] = ((wr[:, None, :] @ r[:, :, None]).ravel(),
                                       (a @ wr.T).T.tolist(), (a @ self.wuz.T).T.tolist(),
                                       ((a * self.w) @ a.T).tolist(),
                                       (abs(a) @ self.awu.T).T.tolist())
        return sums

    def row(self, i: int, z_ref: float) -> "RowSums":
        return RowSums(self, i, math.exp(-self.c * (z_ref - self.z_ref)))


class RowSums:
    """Row i of a ``CellSums`` block in the measure whose sums are those of
    the block's times ``scale``.  Calling it with R gives ``(h, h', h'',
    floor)``.  It remembers the last R and the row's sums of the last cell,
    which successive iterates of the tracker mostly share."""

    def __init__(self, sums: CellSums, i: int, scale: float):
        self.sums, self.i, self.scale = sums, i, scale
        self.dz_norm = math.sqrt(scale * sums.dz_norm_sq)
        self._R = self._out = self._key = self._row = None

    def __call__(self, R: float) -> tuple[float, float, float, float]:
        if R == self._R:
            return self._out
        sums = self.sums
        k, t = cell_fraction(R, sums.dz)
        key = (k, t == 0.0)
        if key != self._key:
            S, E, F, M, B = sums._sums(key)
            i = self.i
            self._key, self._row = key, (float(S[i]), *E[i], *F[i], *M[0], *M[1], *M[2], *B[i])
        (S, E0, E1, E2, F0, F1, F2, M00, M01, M02, M10, M11, M12, M20, M21, M22,
         B0, B1, B2) = self._row
        s = t * sums.dz
        s2 = s * s
        s3 = s2 * s
        q0 = E0 - s * M00 - s2 * M10 - s3 * M20
        q1 = E1 - s * M01 - s2 * M11 - s3 * M21
        q2 = E2 - s * M02 - s2 * M12 - s3 * M22
        h1 = q0 + 2 * s * q1 + 3 * s2 * q2
        hval = 0.5 * (S - s * (E0 + q0) - s2 * (E1 + q1) - s3 * (E2 + q2))
        scale = self.scale
        self._R, self._out = R, (scale * max(hval, 0.0), scale * h1,
                                 scale * (sums.c * h1 + F0 + 2 * s * F1 + 3 * s2 * F2),
                                 scale * _EPS * (B0 + 2 * s * B1 + 3 * s2 * B2))
        return self._out


def mismatch_derivatives(u: Field, ws: WaveSolution, R: float,
                         m: WeightedMeasure | None = None, *,
                         sums: RowSums | None = None) -> tuple[float, float]:
    """(h', h''): first derivative exactly, second via the transported identity
    ``h'' = c h' + <u_z, T_R profile_dz>`` with centered u_z.

    Both come from the per-cell dot products of ``CellSums``.  ``sums`` may
    carry them as u's row of a block (``CellSums.row``); otherwise they are
    built here for u alone, with m defaulting to the measure referenced at R.
    """
    if sums is None:
        m = m if m is not None else ws.measure(z_ref=R)
        sums = CellSums(u, ws, m).row(0, m.z_ref)
    _, h1, h2, _ = sums(R)
    return h1, h2


@dataclass
class FrontState:
    """The tracker's result for the state ``u`` against the wave ``ws``.

    ``deviation_sq``, m = ||u - T_R profile||^2 in ``measure``, is summed
    over the grid the first time it is read, as ``2 mismatch(u, ws,
    position, m=measure)`` on ``u`` as it is at that moment, and kept: a
    caller that never reads it never pays for the sum.
    """

    position: float               # optimal translation R
    curvature: float              # h'' at the optimum (> 0 required)
    ortho_residual: float         # |h'| at the optimum
    measure: WeightedMeasure
    # the rounding floor of |h'| there: the larger of CellSums' rounding
    # bound and h'' offset_resolution(R, dz) (locate_front's stop tests)
    ortho_floor: float
    u: Field = field(repr=False, compare=False)            # the located state
    ws: WaveSolution = field(repr=False, compare=False)     # its wave
    iterations: int = 0           # evaluations of (h', h''), bracketing included
    capped: bool = False          # max_iter reached before any stopping test

    @cached_property
    def deviation_sq(self) -> float:
        return 2.0 * mismatch(self.u, self.ws, self.position, m=self.measure)


def locate_front(u: Field, ws: WaveSolution, R_seed: float = 0.0,
                 max_iter: int = 80, *, sums: CellSums | None = None,
                 row: int = 0) -> FrontState:
    """Safeguarded Newton on h' with a bisection fallback bracket.

    Every evaluation of (h', h'') goes through ``mismatch_derivatives`` with
    u's row of a ``CellSums`` block, in the measure referenced at
    ``R_seed``, so after the dot products of a cell each iterate is scalar
    work.  ``sums`` may carry a block whose row ``row`` is u, with any
    reference measure; otherwise u is a block of one row in the measure at
    ``R_seed``, whose sums are scaled by exactly 1.  Stops at the first
    iterate where ``|h'|`` meets one of three tests:

    - the relative test ``|h'| <= 1e-12 * sqrt(2 h) * ||profile_dz||_w``;
    - the roundoff floor ``|h'| <= eps * sum_j j s^(j-1) B_j``, the
      rounding bound of h' as ``CellSums`` computes it: below it the value
      of h' is rounding;
    - the resolution test ``|h'| <= h'' r(R)``, with ``r(R) =
      offset_resolution(R, dz)``.  The shifts that the cell form evaluates
      at successive floats rise in steps of at most r, so the root of h'
      lies between those of two adjacent floats, each within r of it, and
      to first order h' at either is h'' times that distance.  No float
      does better, and a Newton step from one, shorter than the spacing
      of R, lands on the other: without this test the two can alternate
      until ``max_iter``.

    h in the relative test comes from the sums too.  Its cancellation error
    is of order ``eps S`` and matters only where h is that small, far
    below where the relative test rises above the floor.  The returned
    state's ``deviation_sq`` is summed over the grid at the final R
    instead, when it is first read, from ``u`` as it is then.

    An iterate where none holds after ``max_iter`` Newton or bisection
    steps is returned with ``capped`` set, so the caller can count it.
    Raises ConvexityError when the curvature at the result is not above the
    rounding ``c stop`` that the stopping test leaves in it, and BracketError
    when no sign change exists in range.
    """
    dz = ws.grid.dz
    limit = ws.template.max_shift - 2 * dz
    mm = ws.measure(z_ref=R_seed)
    if sums is None:
        sums, row = CellSums(u, ws, mm), 0
    cells = sums.row(row, R_seed)
    evals = 0

    def deriv(R):
        nonlocal evals
        evals += 1
        return mismatch_derivatives(u, ws, R, sums=cells)

    R = float(min(max(R_seed, -limit), limit))
    h1, h2 = deriv(R)
    bracket = None
    steps = 0
    while True:
        hval, _, _, floor = cells(R)
        tol = 1e-12 * max(math.sqrt(2 * hval) * cells.dz_norm, 1e-30)
        floor = max(floor, h2 * offset_resolution(R, dz))
        stop = max(tol, floor)
        if abs(h1) <= stop or steps == max_iter:
            break
        steps += 1
        if h2 > 0:
            step = -h1 / h2
            R_new = R + min(max(step, -1.0), 1.0)
        else:
            R_new = None
        if R_new is None or not -limit <= R_new <= limit:
            if bracket is None:
                bracket = _find_bracket(deriv, R, limit)
            lo, hi, flo, fhi = bracket
            mid = 0.5 * (lo + hi)
            fmid = deriv(mid)[0]
            if flo * fmid <= 0:
                bracket = (lo, mid, flo, fmid)
            else:
                bracket = (mid, hi, fmid, fhi)
            R_new = 0.5 * (bracket[0] + bracket[1])
        R = float(R_new)
        h1, h2 = deriv(R)
    # |h'| <= stop leaves the term c h' of h'' undetermined up to c stop; a
    # state with no front (u_z = 0) has no other term
    if h2 <= mm.c * stop:
        raise ConvexityError("h'' = %.3g <= c stop at R = %.4g" % (h2, R))
    return FrontState(position=R, curvature=h2, ortho_residual=abs(h1), measure=mm,
                      ortho_floor=floor, u=u, ws=ws, iterations=evals,
                      capped=bool(abs(h1) > stop))


def _find_bracket(deriv, R0, limit):
    width = 0.5
    while width <= 2 * limit:
        lo = max(R0 - width, -limit)
        hi = min(R0 + width, limit)
        flo, fhi = deriv(lo)[0], deriv(hi)[0]
        if flo * fhi <= 0:
            return lo, hi, flo, fhi
        width *= 2.0
    raise BracketError("no sign change of h' in [-%g, %g]" % (limit, limit))


def z_deltas(dev: np.ndarray, grid: CylinderGrid, delta: float = DEFAULT_DELTA) -> np.ndarray:
    """For every deviation ``u - T_R profile`` stacked on the leading axes of
    ``dev``, the rightmost axial coordinate where the cross-section sup of
    its magnitude exceeds delta, or -inf where none does."""
    over = (np.abs(dev) > delta).any(axis=-2)
    last = over.shape[-1] - 1 - np.argmax(over[..., ::-1], axis=-1)
    return np.where(over.any(axis=-1), grid.z[last], -np.inf)


def z_delta(u: Field, ws: WaveSolution, R: float,
            delta: float = DEFAULT_DELTA) -> float:
    """Rightmost axial coordinate where the cross-section sup mismatch
    exceeds delta (``z_deltas`` of one state); -inf when no column does."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return float(z_deltas(u.values - ws.template.at(R), u.grid, delta))


@dataclass
class FrontTrace:
    """Per-step samples of a tracked moving-frame run.

    Weighted quantities in ``samples`` are referenced at z_ref = R(t) of their
    own row; ``rebased(col)`` converts to the common offset R(0) exactly.
    """

    speed: float
    samples: np.ndarray           # structured array, one row per accepted step
    sigma_fit: float | None = None
    fit_quality: float | None = None
    fit_window: tuple[float, float] | None = None
    R_infinity: float | None = None
    tracker_iters_max: int = 0    # over every locate_front call
    tracker_cap_hits: int = 0     # calls that returned with ``capped`` set
    stop_rate: float | None = None  # c^2/4 + nu(0), which sets the stop test's span
    stop_time: float | None = None  # the row m's floor stopped at; None: the cap did

    FIELDS = [("t", float), ("R", float), ("m", float), ("phi", float),
              ("dRdt_fd", float), ("dRdt_quotient", float),
              ("h2c_norm", float), ("z_delta", float),
              ("ortho_residual", float), ("ortho_floor", float),
              ("tracker_iters", int)]

    def rebased(self, col: str) -> np.ndarray:
        """Samples of a weighted column re-referenced to z_ref = R(0)."""
        R0 = self.samples["R"][0]
        factor = np.exp(self.speed * (self.samples["R"] - R0))
        if col in ("m", "phi"):
            return self.samples[col] * factor
        if col == "h2c_norm":
            return self.samples[col] * np.sqrt(factor)
        raise ValueError("column %r is not a weighted quantity" % col)


def _columns(model: ReactionModel, ws: WaveSolution, u: np.ndarray,
             u_z: np.ndarray | None, R: np.ndarray, prev, dt: float) -> list[np.ndarray]:
    """The columns m, phi, dRdt_fd, dRdt_quotient, h2c_norm and z_delta of
    rows: states ``u`` stacked on a first axis, their ``u_z`` and positions
    ``R``, with ``prev = (states, positions)`` of the steps before them, or
    None for rows without rates.

    The weighted columns are the stacked ``weighted_sums``,
    ``weighted_energies`` and ``z_deltas`` of the block and its translates
    (``Template.translates``) in the measure referenced at 0, times ``exp(-c
    R)``; no row's columns depend on the other rows of its block.
    """
    grid, m0 = ws.grid, ws.measure(z_ref=0.0)
    scale = np.array([math.exp(-ws.speed * r) for r in R])
    # the deviation overwrites the translate, so fewer block arrays are
    # alive at once and the heap is not grown and trimmed for every block
    dev, T_z = ws.template.translates(R)
    np.subtract(u, dev, out=dev)
    m, _, h2 = weighted_sums(dev, grid, m0, order=2)
    phi = weighted_energies(u, model, grid, m0)
    if prev is None:
        fd = quotient = np.full(len(R), np.nan)
    else:
        u_prev, R_prev = prev
        fd = (R - R_prev) / dt
        w = quadrature_weights(grid, m0)
        denom = node_sums(w, u_z, T_z)
        with np.errstate(divide="ignore", invalid="ignore"):
            quotient = np.where(denom != 0, -node_sums(w, u - u_prev, T_z) / (dt * denom),
                                np.nan)
    return [scale * m, scale * phi, fd, quotient, np.sqrt(scale * h2), z_deltas(dev, grid)]


def track(model: ReactionModel, ws: WaveSolution, u0: Field, dt: float,
          horizon: float) -> FrontTrace:
    """Integrate in the frame moving at the selected speed and track the front.

    Only the step is sequential: the states are stepped ``BLOCK_ROWS`` at a
    time, then analysed as a block.  The tracker's cell sums are products
    of the whole block (``CellSums``), and each row re-minimizes the
    mismatch from the previous optimum (warm-started Newton, row by row).
    Every step is a row: it takes its weighted columns at its own R, and the
    explicit translation-rate quotient beside the finite difference of R as
    a consistency diagnostic, in one pass over the block (``_columns``).  A
    row holds the (h', h'') evaluations of its own tracker call; the trace
    holds their maximum and cap hits over all calls.

    The run ends at the first block end where m has reached its floor (see
    the module docstring), so ``horizon`` is a cap: the trace's
    ``stop_time`` is that block's last t, or None when the cap came first.
    The test reads only recorded rows: the running minimum of the rebased
    m, m0 its first value.  It stops once that minimum, taken at the last
    row a span ``FLOOR_EFOLDS / (2 stop_rate)`` or more before the block's
    end, is at most ``STOP_FACTOR`` times the minimum at the end, with
    ``stop_rate = c^2/4 + nu(0)``; a rate that is not positive gives no
    span, and the cap ends the run.  The span must start no earlier than
    ``default_fit_window``'s start, the first row with m <= ``0.1 m0``, so a
    datum whose m stays flat early on does not stop.  Stopping only
    truncates: every row keeps its bits, and a stopped trace is a prefix of
    the trace of any longer cap.

    A datum below the ignition level of f dies out and raises TrackerError.
    A step or tracker call that fails raises TrackingLossError at the
    earliest failure: the rows stepped before a failed step are tracked
    first.
    """
    n_steps = step_count(horizon, dt)
    grid = ws.grid
    stepper = Stepper(model, grid, dt, ws.speed)
    top, level = float(np.max(u0.values)), model.ignition_level(grid)
    if top < level:
        raise TrackerError("the front dies out: the datum's sup %.3g is below the "
                           "ignition level %.3g of f" % (top, level))
    stop_rate = ws.speed ** 2 / 4 + principal_eigenpair(model, grid).value
    span = FLOOR_EFOLDS / (2 * stop_rate) if stop_rate > 0 else math.inf
    fs = locate_front(u0, ws, 0.0)
    iters_max, cap_hits = fs.iterations, int(fs.capped)
    rows = []
    # every row's t and the running minimum of the rebased m up to it
    row_t, lows = [], []
    R0, m0, t_lo = fs.position, None, None

    def record(t, fronts, u, u_z=None, prev=None):
        nonlocal m0, t_lo
        R = np.array([f.position for f in fronts])
        cols = _columns(model, ws, u, u_z, R, prev, dt)
        rows.extend(zip(t, R.tolist(), *(col.tolist() for col in cols),
                        [f.ortho_residual for f in fronts], [f.ortho_floor for f in fronts],
                        [f.iterations for f in fronts]))
        low = lows[-1] if lows else math.inf
        for ti, mi in zip(t, (cols[0] * np.exp(ws.speed * (R - R0))).tolist()):
            m0 = mi if m0 is None else m0
            if t_lo is None and mi <= TRANSIENT_FRACTION * m0:
                t_lo = ti
            low = min(low, mi)
            row_t.append(ti)
            lows.append(low)

    def floor_reached():
        j = bisect_right(row_t, row_t[-1] - span) - 1
        return (t_lo is not None and j >= 0 and row_t[j] >= t_lo
                and lows[j] <= STOP_FACTOR * lows[-1])

    record([0.0], [fs], u0.values[None])
    t, u_step = 0.0, u0
    block = np.empty((BLOCK_ROWS + 1,) + grid.shape)  # row 0: the state before
    done = 0
    while done < n_steps:
        block[0] = u_step.values
        times, states, lost = [], [], None
        for _ in range(min(BLOCK_ROWS, n_steps - done)):
            try:
                u_step = stepper.step(u_step)
            except RuntimeError as exc:
                lost = exc
                break
            t += dt
            times.append(t)
            states.append(u_step)
            block[len(states)] = u_step.values
        n = len(states)
        u = block[1:n + 1]
        u_z = axial_derivative(u, grid)
        sums = CellSums(u, ws, ws.measure(z_ref=fs.position), u_z)
        fronts = [fs]
        for i, (ti, st) in enumerate(zip(times, states)):
            try:
                fs = locate_front(st, ws, fs.position, sums=sums, row=i)
            except RuntimeError as exc:  # TrackerError included
                raise TrackingLossError("tracking lost at t=%.6g: %s" % (ti, exc)) from exc
            fronts.append(fs)
            iters_max = max(iters_max, fs.iterations)
            cap_hits += fs.capped
        if lost is not None:
            raise TrackingLossError("tracking lost at t=%.6g: %s" % (t, lost)) from lost
        R = np.array([f.position for f in fronts])
        record(times, fronts[1:], u, u_z, (block[:n], R[:n]))
        done += n
        if floor_reached():
            stop_time = t
            break
    else:
        stop_time = None
    return FrontTrace(speed=ws.speed, samples=np.array(rows, dtype=FrontTrace.FIELDS),
                      tracker_iters_max=iters_max, tracker_cap_hits=cap_hits,
                      stop_rate=stop_rate, stop_time=stop_time)


def default_fit_window(trace: FrontTrace) -> tuple[float, float]:
    """Tail window: after the transient (m below 10% of start), above the floor.

    The floor is the larger of the floating-point cutoff (1e3 eps relative to
    the initial scale) and ``FLOOR_MARGIN`` (100) times the trace's own tail
    plateau: the deviation bottoms out at a level that the window's right
    end sets, not the grid, and the decay law is only informative above it.
    On the shipped converge config m bottoms out at 1.7951e-9 with n_z 1201
    and at 1.7945e-9 with dz halved, but at 1.15e-18 with ``z_max`` 40.

    ``track`` stops a run once m has reached that plateau (module
    docstring), so the window does not read the cap: on the shipped config
    caps of 60 and 120 give the same window, bit for bit.
    """
    t = trace.samples["t"]
    m = trace.rebased("m")
    m0 = m[0] if m[0] > 0 else float(np.max(m))
    start_idx = np.nonzero(m <= TRANSIENT_FRACTION * m0)[0]
    lo = t[start_idx[0]] if start_idx.size else t[0]
    floor = max(M_FLOOR_FACTOR * m0, FLOOR_MARGIN * float(np.min(m)))
    keep = np.nonzero(m >= floor)[0]
    hi = t[keep[-1]] if keep.size else t[-1]
    return float(lo), float(hi)


def fit_rate(times: np.ndarray, values: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line on (t, log values): (slope, intercept, R^2)."""
    if np.any(values <= 0):
        raise FitError("non-positive values in fit window")
    logs = np.log(values)
    A = np.vstack([times, np.ones_like(times)]).T
    coef, *_ = np.linalg.lstsq(A, logs, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2


def fit_decay(trace: FrontTrace, window: tuple[float, float] | None = None
              ) -> tuple[float, float]:
    """Fit the decay rate of the squared deviation: sigma = -slope/2.

    Requires at least 20 samples with positive m in the window; a fit quality
    below 0.99 flags a non-exponential regime (returned, not raised).
    """
    if window is None:
        window = default_fit_window(trace)
    t = trace.samples["t"]
    m = trace.rebased("m")
    sel = (t >= window[0]) & (t <= window[1])
    if int(sel.sum()) < 20:
        raise FitError("fit window holds %d samples; need >= 20" % int(sel.sum()))
    slope, _, quality = fit_rate(t[sel], m[sel])
    sigma = -0.5 * slope
    trace.sigma_fit = sigma
    trace.fit_quality = quality
    trace.fit_window = (float(window[0]), float(window[1]))
    dR = trace.samples["dRdt_fd"][sel]
    last = trace.samples["R"][sel][-1]
    trace.R_infinity = float(last + (dR[-1] / sigma if sigma > 0 else 0.0))
    return sigma, quality


def fit_efolds(trace: FrontTrace) -> float:
    """ln(m(lo)/m(hi)), the e-folds by which the rebased m falls from the
    first to the last row of ``fit_decay``'s window.  A window holding fewer
    than ``FLOOR_EFOLDS`` is shorter than one span of ``track``'s stop test
    at the rate it reads, and cannot tell the decay from the floor."""
    if trace.fit_window is None:
        raise FitError("fit_efolds needs fit_decay's window")
    t = trace.samples["t"]
    sel = np.nonzero((t >= trace.fit_window[0]) & (t <= trace.fit_window[1]))[0]
    m = trace.rebased("m")
    return float(np.log(m[sel[0]] / m[sel[-1]]))


def fit_position_tail(trace: FrontTrace) -> tuple[float, float]:
    """Exponential-class fit of |R(t) - R_infinity| over the tail half of
    the decay window, both set by ``fit_decay``.

    The reference is the fitted limit, not the last row: R keeps drifting
    after the deviation reaches its floor, and a fit against the last row
    reads that drift.  The position can overshoot its limit once (a sign
    change in R - R_inf puts a cusp in the log plot), so only the
    asymptotic half of the decay window is fitted.  Returns (rate, quality).
    """
    if trace.R_infinity is None:
        raise FitError("fit_position_tail needs fit_decay's window and R_infinity")
    window, R_ref = trace.fit_window, trace.R_infinity
    t = trace.samples["t"]
    R = trace.samples["R"]
    lo = window[0] + 0.5 * (window[1] - window[0])
    d = np.abs(R - R_ref)
    sel = (t >= lo) & (t <= window[1]) & (d > 1e3 * np.finfo(float).eps * max(1.0, abs(R_ref)))
    if int(sel.sum()) < 10:
        raise FitError("only %d usable samples in the position tail" % int(sel.sum()))
    slope, _, quality = fit_rate(t[sel], d[sel])
    return -slope, quality


def trace_to_csv(trace: FrontTrace, path) -> None:
    """Write the pinned CSV columns, one row per sample, to 17 significant
    digits."""
    fmt = ",".join([FLOAT_FORMAT] * len(CSV_COLUMNS)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.writelines(fmt % row for row in trace.samples[list(CSV_COLUMNS)].tolist())
