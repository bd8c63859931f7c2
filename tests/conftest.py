"""Shared test plumbing: the acceptance suite's per-criterion report lines,
and the IMEX step's exact energy identity."""

import numpy as np

from cylwave.evolve import flow_weights, weighted_energy
from cylwave.grids import _apply_transport
from cylwave.reactions import eval_f
from cylwave.weighted import WeightedMeasure

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def energy_identity_defect(stepper, old, new) -> tuple[float, int]:
    """Defect of the energy identity of one step ``old -> new`` of ``stepper``.

    The step solves ``(u1 - u0) / dt = A u1 + f(u0)`` on the free nodes, and
    the transport operator A is self-adjoint in W = ``flow_weights`` at the
    frame speed, so with D = u1 - u0 the weighted energy obeys, with no
    truncation error,

        E(u1) - E(u0) = -||D||_W^2 / dt + D.WAD / 2 + sum W (V(u1) - V(u0) + f(u0) D).

    Returns the defect in units of eps times ``sum|terms|``, the sum of the
    absolute values of every node's terms on both sides, together with its
    bound N - 1, N the node count: recursive summation of N terms errs by at
    most (N - 1) eps sum|terms| (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, §4.2), and the few roundings
    inside each term add a few eps of it, far below N - 1.
    """
    g, dt = stepper.grid, stepper.dt
    m = WeightedMeasure(stepper.frame_speed)
    w = flow_weights(g, m)
    u0, u1 = old.u.values, new.u.values
    d = u1 - u0
    y = g.y[:, None]
    v0, v1 = stepper.model.V(u0, y), stepper.model.V(u1, y)
    f0 = eval_f(stepper.model, g, u0)
    au0, au1, ad = (_apply_transport(g, x, m.c) for x in (u0, u1, d))
    lhs = weighted_energy(new.u, stepper.model, m) - weighted_energy(old.u, stepper.model, m)
    rhs = -(w * d * d).sum() / dt + 0.5 * (w * d * ad).sum() + (w * (v1 - v0 + f0 * d)).sum()
    terms = w * (abs(v0) + abs(v1) + 0.5 * abs(u0 * au0) + 0.5 * abs(u1 * au1)
                 + d * d / dt + 0.5 * abs(d * ad) + abs(f0 * d))
    return abs(lhs - rhs) / (np.finfo(float).eps * terms.sum()), g.n_y * g.n_z - 1
