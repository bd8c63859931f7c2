"""Optimal-translation front tracking and decay-rate fitting.

The front position is the translation R minimizing the weighted mismatch
``h(u, R) = 0.5 ||u - T_R profile||^2``; first-order optimality makes the
deviation weighted-orthogonal to the translated profile derivative, which is
what drives the exponential decay of the squared mismatch m(t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import output_digits
from .evolve import EvolutionState, Stepper, weighted_energy
from .grids import Field, axial_derivative
from .reactions import ReactionModel
from .waves import WaveSolution
from .weighted import WeightedMeasure, quadrature_weights, weighted_norm_h2

DEFAULT_DELTA = 0.05
_EPS = np.finfo(float).eps
M_FLOOR_FACTOR = 1e3 * _EPS

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
    """h(u, R) = 0.5 ||u - T_R profile||^2 in the weighted norm."""
    tpl = ws.template
    if abs(R) >= tpl.max_shift:
        raise ValueError("translation %g out of range" % R)
    w = quadrature_weights(u.grid, m if m is not None else ws.measure(z_ref=R))
    diff = u.values - tpl.at(R)
    return 0.5 * float(np.sum(w * diff * diff))


def mismatch_derivatives(u: Field, ws: WaveSolution, R: float,
                         m: WeightedMeasure | None = None, *,
                         u_z: np.ndarray | None = None) -> tuple[float, float]:
    """(h', h''): first derivative exactly, second via the transported identity
    ``h'' = c h' + <u_z, T_R profile_dz>`` with centered u_z.

    ``u_z`` may carry ``axial_derivative(u.values, u.grid)`` precomputed.
    """
    tpl = ws.template
    mm = m if m is not None else ws.measure(z_ref=R)
    w = quadrature_weights(u.grid, mm)
    tdz = tpl.dz_at(R)
    diff = u.values - tpl.at(R)
    h1 = float(np.sum(w * diff * tdz))
    uz = u_z if u_z is not None else axial_derivative(u.values, u.grid)
    h2 = mm.c * h1 + float(np.sum(w * uz * tdz))
    return h1, h2


@dataclass
class FrontState:
    position: float               # optimal translation R
    deviation_sq: float           # m = ||u - T_R profile||^2
    curvature: float              # h'' at the optimum (> 0 required)
    ortho_residual: float         # |h'| at the optimum
    measure: WeightedMeasure
    iterations: int = 0           # evaluations of (h', h''), bracketing included
    capped: bool = False          # max_iter reached before either stopping test


def locate_front(u: Field, ws: WaveSolution, R_seed: float = 0.0,
                 max_iter: int = 80, *, u_z: np.ndarray | None = None) -> FrontState:
    """Safeguarded Newton on h' with a bisection fallback bracket.

    Stops at the first iterate where ``|h'|`` meets either test:

    - the relative test ``|h'| <= 1e-12 * sqrt(2 h) * ||profile_dz||_w``;
    - the roundoff floor ``|h'| <= eps * sum |w u T_R profile_dz|``: h' is a
      sum of terms that cancel, and below this bound its value is rounding.

    An iterate where neither holds after ``max_iter`` Newton or bisection
    steps is returned with ``capped`` set, so the caller can count it.
    ``u_z`` may carry ``axial_derivative(u.values, u.grid)`` precomputed.
    Raises ConvexityError when the curvature at the result is not above the
    rounding ``c stop`` that the stopping test leaves in it, and BracketError
    when no sign change exists in range.
    """
    tpl = ws.template
    limit = tpl.max_shift - 2 * ws.grid.dz
    mm = ws.measure(z_ref=R_seed)
    w = quadrature_weights(u.grid, mm)
    uz = u_z if u_z is not None else axial_derivative(u.values, u.grid)
    wu = w * u.values
    dz_norm_sq = float(np.sum(w * ws.profile_dz ** 2))
    evals = 0

    def deriv(R):
        nonlocal evals
        evals += 1
        return mismatch_derivatives(u, ws, R, m=mm, u_z=uz)

    R = float(np.clip(R_seed, -limit, limit))
    h1, h2 = deriv(R)
    bracket = None
    steps = 0
    while True:
        hval = mismatch(u, ws, R, m=mm)
        tol = 1e-12 * max(np.sqrt(2 * hval) * np.sqrt(dz_norm_sq), 1e-30)
        floor = _EPS * float(np.sum(np.abs(wu * tpl.dz_at(R))))
        stop = max(tol, floor)
        if abs(h1) <= stop or steps == max_iter:
            break
        steps += 1
        if h2 > 0:
            step = -h1 / h2
            R_new = R + np.clip(step, -1.0, 1.0)
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
    return FrontState(position=R, deviation_sq=2.0 * hval, curvature=h2,
                      ortho_residual=abs(h1), measure=mm, iterations=evals,
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


def z_delta(u: Field, ws: WaveSolution, R: float,
            delta: float = DEFAULT_DELTA) -> float:
    """Rightmost axial coordinate where the cross-section sup mismatch exceeds delta.

    Returns -inf when no column exceeds it.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    tpl = ws.template
    err = np.max(np.abs(u.values - tpl.at(R)), axis=0)
    exceeding = np.nonzero(err > delta)[0]
    if exceeding.size == 0:
        return float("-inf")
    return float(u.grid.z[exceeding[-1]])


@dataclass
class FrontTrace:
    """Per-step samples of a tracked moving-frame run.

    Weighted quantities in ``samples`` are referenced at z_ref = R(t) of their
    own row; ``rebased(col)`` converts to the common offset R(0) exactly.
    """

    speed: float
    samples: np.ndarray           # structured array, one row per accepted step
    dt: float
    sigma_fit: float | None = None
    fit_quality: float | None = None
    fit_window: tuple[float, float] | None = None
    R_infinity: float | None = None
    tracker_iters_max: int = 0    # over every locate_front call, sampled or not
    tracker_cap_hits: int = 0     # calls that returned with ``capped`` set

    FIELDS = [("t", float), ("R", float), ("m", float), ("phi", float),
              ("dRdt_fd", float), ("dRdt_quotient", float),
              ("h2c_norm", float), ("z_delta", float),
              ("ortho_residual", float), ("tracker_iters", int)]

    def rebased(self, col: str) -> np.ndarray:
        """Samples of a weighted column re-referenced to z_ref = R(0)."""
        R0 = self.samples["R"][0]
        factor = np.exp(self.speed * (self.samples["R"] - R0))
        if col in ("m", "phi"):
            return self.samples[col] * factor
        if col == "h2c_norm":
            return self.samples[col] * np.sqrt(factor)
        raise ValueError("column %r is not a weighted quantity" % col)


def track(model: ReactionModel, ws: WaveSolution, u0: Field, dt: float,
          horizon: float, delta: float = DEFAULT_DELTA,
          sample_every: int = 1) -> FrontTrace:
    """Integrate in the frame moving at the selected speed and track the front.

    Each accepted step re-minimizes the mismatch from the previous optimum
    (warm-started Newton).  A kept row (every ``sample_every``-th step and the
    last) takes its weighted columns at its own R from one weight vector, and
    the explicit translation-rate quotient beside the finite difference of R
    as a consistency diagnostic.  A row holds the (h', h'') evaluations of its
    own tracker call; the trace holds their maximum and cap hits over all calls.
    """
    grid = ws.grid
    tpl = ws.template
    stepper = Stepper(model, grid, dt, ws.speed)
    state = EvolutionState(0.0, u0, ws.speed)
    rows = []

    def record(fs, prev=None):
        """Append the row of ``state``; a kept step passes ``prev = (values, R)``
        of the step before and has the state's ``uz``."""
        R, u = fs.position, state.u
        mm = fs.measure.shifted(R)
        w = quadrature_weights(grid, mm)
        dev = Field(grid, u.values - tpl.at(R))
        dRdt_fd = quotient = np.nan
        if prev is not None:
            dRdt_fd = (R - prev[1]) / dt
            ut = (u.values - prev[0]) / dt
            tdz = tpl.dz_at(R)
            denom = float(np.sum(w * uz * tdz))
            quotient = -float(np.sum(w * ut * tdz)) / denom if denom != 0 else np.nan
        rows.append((state.t, R, float(np.sum(w * dev.values ** 2)),
                     weighted_energy(u, model, mm), dRdt_fd, quotient,
                     weighted_norm_h2(dev, mm), z_delta(u, ws, R, delta),
                     fs.ortho_residual, fs.iterations))

    fs = locate_front(state.u, ws, 0.0)
    iters_max, cap_hits = fs.iterations, int(fs.capped)
    record(fs)
    n_steps = int(round(horizon / dt))
    for k in range(1, n_steps + 1):
        prev = (state.u.values, fs.position)
        try:
            state = stepper.step(state)
            uz = axial_derivative(state.u.values, grid)
            fs = locate_front(state.u, ws, fs.position, u_z=uz)
        except (TrackerError, RuntimeError) as exc:
            raise TrackingLossError("tracking lost at t=%.6g: %s" % (state.t, exc))
        iters_max = max(iters_max, fs.iterations)
        cap_hits += fs.capped
        if k % sample_every == 0 or k == n_steps:
            record(fs, prev)
    return FrontTrace(speed=ws.speed, samples=np.array(rows, dtype=FrontTrace.FIELDS),
                      dt=dt, tracker_iters_max=iters_max, tracker_cap_hits=cap_hits)


def default_fit_window(trace: FrontTrace) -> tuple[float, float]:
    """Tail window: after the transient (m below 10% of start), above the floor.

    The floor is the larger of the floating-point cutoff (1e3 eps relative to
    the initial scale) and 100x the trace's own tail plateau: on a fixed grid
    the deviation bottoms out at the lattice-pinning mismatch between the
    discrete steady state and interpolated translates, and the decay law is
    only informative above it.
    """
    t = trace.samples["t"]
    m = trace.rebased("m")
    m0 = m[0] if m[0] > 0 else float(np.max(m))
    start_idx = np.nonzero(m <= 0.1 * m0)[0]
    lo = t[start_idx[0]] if start_idx.size else t[0]
    floor = max(M_FLOOR_FACTOR * m0, 100.0 * float(np.min(m)))
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


def fit_position_tail(trace: FrontTrace, window: tuple[float, float] | None = None
                      ) -> tuple[float, float]:
    """Exponential-class fit of |R(t) - R_end| over the tail half of the window.

    The position can overshoot its limit once (a sign change in R - R_inf
    puts a cusp in the log plot), so only the asymptotic half of the decay
    window is fitted.  Returns (rate, quality).
    """
    if window is None:
        window = trace.fit_window if trace.fit_window else default_fit_window(trace)
    t = trace.samples["t"]
    R = trace.samples["R"]
    R_ref = float(R[-1])
    lo = window[0] + 0.5 * (window[1] - window[0])
    d = np.abs(R - R_ref)
    sel = (t >= lo) & (t <= window[1]) & (d > 1e3 * np.finfo(float).eps * max(1.0, abs(R_ref)))
    if int(sel.sum()) < 10:
        raise FitError("only %d usable samples in the position tail" % int(sel.sum()))
    slope, _, quality = fit_rate(t[sel], d[sel])
    return -slope, quality


def trace_to_csv(trace: FrontTrace, path, digits: int | None = None) -> None:
    """Write the pinned CSV columns, one row per sample."""
    if digits is None:
        digits = output_digits()
    fmt = "%%.%dg" % digits
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in trace.samples:
            fh.write(",".join(fmt % row[name] for name in CSV_COLUMNS) + "\n")
