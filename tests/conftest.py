"""Shared test plumbing: the acceptance suite's per-criterion report lines,
the IMEX step's exact energy identity, the slope of a shifted Hermite
cubic, the reference for the translate's and the template's slopes, and the
weight-symmetrized transport operator built by hand, the reference for
``grids.symmetrized_band``."""

import numpy as np
import scipy.sparse as sp

from cylwave.evolve import flow_weights, weighted_energy
from cylwave.grids import _apply_transport, transport_operator
from cylwave.reactions import eval_f
from cylwave.weighted import WeightedMeasure, cell_fraction, shifted_cell

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def cell_slope(a, s):
    """Derivative of the cubic of ``shifted_cell`` arrays ``a`` at offset s:
    exactly ``a1`` at s = 0."""
    v = a[3] * (1.5 * s)
    v += a[2]
    v *= 2 * s
    v += a[1]
    return v


def shifted_slope(y, d, h, R):
    """Derivative of ``shifted_hermite(y, d, h, R)``: zero at nodes moved
    past an end."""
    k, t = cell_fraction(R, h)
    return cell_slope(shifted_cell(y, d, h, k, node=t == 0.0), t * h)


def template_slope(tpl, R):
    """The slope of ``tpl.at(R)``, from the template's own cell for R."""
    dz = tpl.ws.grid.dz
    k, t = cell_fraction(R, dz)
    return cell_slope(tpl.cell(k, t == 0.0), t * dz)


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
    u0, u1 = old.values, new.values
    d = u1 - u0
    y = g.y[:, None]
    v0, v1 = stepper.model.V(u0, y), stepper.model.V(u1, y)
    f0 = eval_f(stepper.model, g, u0)
    au0, au1, ad = (_apply_transport(g, x, m.c) for x in (u0, u1, d))
    lhs = weighted_energy(new, stepper.model, m) - weighted_energy(old, stepper.model, m)
    rhs = -(w * d * d).sum() / dt + 0.5 * (w * d * ad).sum() + (w * (v1 - v0 + f0 * d)).sum()
    terms = w * (abs(v0) + abs(v1) + 0.5 * abs(u0 * au0) + 0.5 * abs(u1 * au1)
                 + d * d / dt + 0.5 * abs(d * ad) + abs(f0 * d))
    return abs(lhs - rhs) / (np.finfo(float).eps * terms.sum()), g.n_y * g.n_z - 1


def symmetrized_by_hand(grid, c, diag):
    """``D (-(transport_operator(grid, c, diag)))_free D^{-1}`` as a dense
    array, D the square roots of ``flow_weights`` at speed c on the free
    nodes, which are numbered section-fastest as in ``symmetrized_band``."""
    free = ~grid.dirichlet_mask  # a rectangle: the axial left end is never pinned
    # the free nodes' raveled (z-fastest) indices, in section-fastest order
    order = np.flatnonzero(free).reshape(int(free[:, 0].sum()), -1).T.ravel()
    w = flow_weights(grid, WeightedMeasure(c)).ravel()[order]
    L = (-transport_operator(grid, c, diag)).tocsr()[order][:, order]
    d = 1.0 / np.sqrt(w)
    return (sp.diags(d) @ (sp.diags(w) @ L) @ sp.diags(d)).toarray()


def band_to_dense(band):
    """The symmetric matrix whose LAPACK lower band storage is ``band``:
    ``band[k, m]`` is its entry (m + k, m) and (m, m + k)."""
    n = band.shape[1]
    dense = np.diag(band[0])
    for k in range(1, band.shape[0]):
        lower = np.diag(band[k, :n - k], -k)
        dense += lower + lower.T
    return dense
