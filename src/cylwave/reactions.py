"""Reaction nonlinearities, their cutoff potentials, and assumption checks.

A model provides f(u, y), its u-derivative, and the potential
``V(u, y) = -int_0^u f(s, y) 1_{[0,1]}(s) ds`` (constant outside [0, 1]).
Built-ins cover the classic cubic bistable, a y-heterogeneous cubic, and a
two-step ("stacked") quintic with an intermediate stable state.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .grids import CylinderGrid


class ReactionError(ValueError):
    pass


class ReactionModel:
    """Base class: subclasses implement f, f_u, and V as numpy ufunc-style maps."""

    def f(self, u, y):
        raise NotImplementedError

    def f_u(self, u, y):
        raise NotImplementedError

    def V(self, u, y):
        raise NotImplementedError

    def max_slope(self, grid: CylinderGrid) -> float:
        """sup |f_u| over [0,1] x cross-section, sampled at 257 levels."""
        us = np.linspace(0.0, 1.0, 257)
        ys = grid.y
        return float(np.max(np.abs(self.f_u(us[:, None], ys[None, :]))))

    def ignition_level(self, grid: CylinderGrid) -> float:
        """Smallest level s in (0, 1], sampled in steps of 1/256, where
        f(s, y) >= 0 at some node.

        f < 0 below it, so a datum under it dies out: it stays below the
        spatially uniform solution of ``U' = max_y f(U, y)``, which decays.
        """
        us = np.linspace(0.0, 1.0, 257)[1:]
        fs = np.broadcast_to(self.f(us[:, None], grid.y[None, :]), (us.size, grid.n_y))
        igniting = np.max(fs, axis=1) >= 0.0
        return float(us[np.argmax(igniting)]) if igniting.any() else 1.0


def eval_f(model: ReactionModel, grid: CylinderGrid, values: np.ndarray) -> np.ndarray:
    """Pointwise reaction term f(values, y) on the grid; fails fast on
    non-finite output."""
    return _finite(model.f(values, grid.y[:, None]), "reaction")


def eval_f_u(model: ReactionModel, grid: CylinderGrid, values: np.ndarray) -> np.ndarray:
    """Pointwise f_u(values, y) on the grid; fails fast on non-finite output."""
    return _finite(model.f_u(values, grid.y[:, None]), "reaction derivative")


def _finite(vals, what: str) -> np.ndarray:
    if not np.isfinite(vals).all():
        raise ReactionError("%s produced non-finite values" % what)
    return vals


def _polyval(p: np.ndarray, x) -> np.ndarray:
    """The polynomial with coefficients ``p`` (highest degree first) at ``x``;
    reproduces ``np.polyval(p, x)`` bit for bit: the same Horner recurrence
    from zero, run in place."""
    y = np.zeros(np.shape(x))
    for pv in p:
        y *= x
        y += pv
    return y if y.ndim else y[()]


def _poly_V(anti_desc: np.ndarray, u) -> np.ndarray:
    """-antiderivative of a polynomial f, cutoff to [0,1]: ``anti_desc`` is
    ``np.polyint`` of f's coefficients (highest degree first), computed once
    per model.  Reproduces ``-np.polyval(anti_desc, np.clip(u, 0, 1))`` bit
    for bit."""
    return -_polyval(anti_desc, np.clip(u, 0.0, 1.0))


@dataclass(frozen=True)
class CubicBistable(ReactionModel):
    """f(u) = u (1 - u) (u - a) with unstable zero a in (0, 1/2)."""

    a: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.a < 0.5:
            raise ReactionError("cubic parameter a must lie in (0, 1/2), got %g" % self.a)
        object.__setattr__(self, "_anti", np.polyint([-1.0, 1.0 + self.a, -self.a, 0.0]))

    def f(self, u, y=None):
        return u * (1.0 - u) * (u - self.a)

    def f_u(self, u, y=None):
        return -3.0 * u ** 2 + 2.0 * (1.0 + self.a) * u - self.a

    def V(self, u, y=None):
        return _poly_V(self._anti, u)

    def exact_speed(self) -> float:
        """Selected speed of the 1D wave (closed form for this family)."""
        return (1.0 - 2.0 * self.a) / np.sqrt(2.0)


@dataclass(frozen=True)
class HeterogeneousCubic(ReactionModel):
    """Cubic with a smoothly y-dependent unstable zero a(y) = a0 + a1 cos(pi s).

    ``s`` is the normalized cross-section coordinate in [0, 1]; keeps the
    cylinder case genuinely y-dependent.
    """

    a0: float = 0.25
    a1: float = 0.1
    y_min: float = 0.0
    y_max: float = 1.0

    def __post_init__(self):
        lo, hi = self.a0 - abs(self.a1), self.a0 + abs(self.a1)
        if not (0.0 < lo and hi < 0.5):
            raise ReactionError("a(y) range [%g, %g] must stay inside (0, 1/2)" % (lo, hi))

    def a_of_y(self, y):
        s = (np.asarray(y, dtype=float) - self.y_min) / (self.y_max - self.y_min)
        return self.a0 + self.a1 * np.cos(np.pi * s)

    def f(self, u, y):
        a = self.a_of_y(y)
        return u * (1.0 - u) * (u - a)

    def f_u(self, u, y):
        a = self.a_of_y(y)
        return -3.0 * u ** 2 + 2.0 * (1.0 + a) * u - a

    def V(self, u, y):
        a = self.a_of_y(y)
        uu = np.clip(u, 0.0, 1.0)
        return uu ** 4 / 4.0 - (1.0 + a) * uu ** 3 / 3.0 + a * uu ** 2 / 2.0


@dataclass(frozen=True)
class StackedBistable(ReactionModel):
    """Two-step quintic: stable states 0, a2, 1 with unstable a1, a3 between.

    f(u) = -scale * u (u - a1)(u - a2)(u - a3)(u - 1); arranging the drive on
    [0, a2] to exceed the drive on [a2, 1] makes the lower front outrun the
    upper one (stacked-front regime).
    """

    a1: float = 0.05
    a2: float = 0.5
    a3: float = 0.8
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.a1 < self.a2 < self.a3 < 1.0:
            raise ReactionError("need 0 < a1 < a2 < a3 < 1")
        roots = np.array([0.0, self.a1, self.a2, self.a3, 1.0])
        poly = -self.scale * np.poly(roots)
        object.__setattr__(self, "_poly", poly)
        object.__setattr__(self, "_dpoly", np.polyder(poly))
        object.__setattr__(self, "_anti", np.polyint(poly))

    def f(self, u, y=None):
        return _polyval(self._poly, u)

    def f_u(self, u, y=None):
        return _polyval(self._dpoly, u)

    def V(self, u, y=None):
        return _poly_V(self._anti, u)


@dataclass(frozen=True)
class LinearModel(ReactionModel):
    """f(u) = mu * u; violates the bistable assumptions, used for eigenvalue checks."""

    mu: float = 0.0

    def f(self, u, y=None):
        return self.mu * np.asarray(u, dtype=float)

    def f_u(self, u, y=None):
        return self.mu * np.ones_like(np.asarray(u, dtype=float))

    def V(self, u, y=None):
        uu = np.clip(u, 0.0, 1.0)
        return -0.5 * self.mu * uu ** 2


@dataclass(frozen=True)
class ShiftedModel(ReactionModel):
    """Reaction seen by the perturbation h = u - v above a cross-section state v.

    f~(h, y) = f(v(y) + h, y) - f(v(y), y), with the matching shifted potential
    V~(h, y) = V(v+h, y) - V(v, y) + f(v, y) 1_{[0,1]}(v) h.  Critical points of
    the shifted energy are exactly the solutions sitting above v.
    """

    base: ReactionModel
    v_values: tuple  # v sampled on the grid's cross-section nodes
    y_nodes: tuple

    def _v(self, y):
        yy = np.asarray(y, dtype=float)
        return np.interp(yy.ravel(), self.y_nodes, self.v_values).reshape(yy.shape)

    def f(self, h, y):
        v = self._v(y)
        return self.base.f(v + h, y) - self.base.f(v, y)

    def f_u(self, h, y):
        v = self._v(y)
        return self.base.f_u(v + h, y)

    def V(self, h, y):
        v = self._v(y)
        chi = ((v >= 0.0) & (v <= 1.0)).astype(float)
        return (
            self.base.V(v + h, y)
            - self.base.V(v, y)
            + chi * self.base.f(v, y) * h
        )


_BUILTINS = {"cubic": CubicBistable, "cubic_y": HeterogeneousCubic,
             "stacked": StackedBistable, "linear": LinearModel}


def make_model(name: str, params: dict | None = None) -> ReactionModel:
    """Built-in model ``name`` with ``params`` over its defaults; a parameter
    the model does not take is an error."""
    try:
        cls = _BUILTINS[name]
    except KeyError:
        raise ReactionError("unknown model %r (known: %s)" % (name, ", ".join(sorted(_BUILTINS))))
    params = params or {}
    taken = {f.name for f in fields(cls)}
    unknown = sorted(set(params) - taken)
    if unknown:
        raise ReactionError("model %r does not take %s (takes: %s)"
                            % (name, ", ".join(unknown), ", ".join(sorted(taken))))
    return cls(**params)


@dataclass
class HypothesesReport:
    zero_state_ok: bool           # f(0, y) = 0 for all sampled y
    upper_state_ok: bool          # f(1, y) <= 0 for all sampled y
    holder_quotient_f: float      # heuristic sup |df| / |du| on the lattice
    holder_quotient_f_u: float
    drive_integral: np.ndarray    # int_0^1 f(u, y) du per cross-section node
    drive_positive: bool
    potential_consistent: bool    # -dV/du matches f on (0,1)

    def passed(self) -> bool:
        return self.zero_state_ok and self.upper_state_ok and self.drive_positive


def check_hypotheses(model: ReactionModel, grid: CylinderGrid) -> HypothesesReport:
    """Sample the structural assumptions on a lattice of 201 levels in
    [0, 1] by the grid's section nodes; f(0) and f(1) may miss their signs
    by 1e-10.

    The regularity quotients are heuristic, report-only figures: pointwise
    sampling cannot certify a smoothness class.
    """
    ys, n_u, tol = grid.y, 201, 1e-10
    us = np.linspace(0.0, 1.0, n_u)
    f0 = np.asarray(model.f(np.zeros_like(ys), ys))
    f1 = np.asarray(model.f(np.ones_like(ys), ys))
    zero_ok = bool(np.max(np.abs(f0)) <= tol)
    upper_ok = bool(np.max(f1) <= tol)

    fu_grid = np.asarray(model.f(us[:, None], ys[None, :]))
    fu_grid = np.broadcast_to(fu_grid, (n_u, ys.size))
    fud_grid = np.broadcast_to(np.asarray(model.f_u(us[:, None], ys[None, :])), (n_u, ys.size))
    du = np.diff(us)[:, None]
    q_f = float(np.max(np.abs(np.diff(fu_grid, axis=0)) / du))
    q_fu = float(np.max(np.abs(np.diff(fud_grid, axis=0)) / du))

    drive = np.trapezoid(fu_grid, us, axis=0)

    # -dV/du = f on (0,1), finite-difference check
    uu = np.linspace(0.05, 0.95, 37)
    h = 1e-6
    ok = True
    for yv in ys[:: max(1, ys.size // 8)]:
        dV = (np.asarray(model.V(uu + h, yv)) - np.asarray(model.V(uu - h, yv))) / (2 * h)
        if np.max(np.abs(-dV - np.asarray(model.f(uu, yv)))) > 1e-6:
            ok = False
    return HypothesesReport(
        zero_state_ok=zero_ok,
        upper_state_ok=upper_ok,
        holder_quotient_f=q_f,
        holder_quotient_f_u=q_fu,
        drive_integral=drive,
        drive_positive=bool(np.min(drive) > 0.0),
        potential_consistent=ok,
    )
