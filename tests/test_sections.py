import os

import numpy as np
import pytest

from cylwave import sections
from cylwave.config import parse_config_file
from cylwave.evolve import Stepper, weighted_energy
from cylwave.grids import CrossSectionField, Field, GridConfig, apply_boundary, build_grid
from cylwave.reactions import CubicBistable, HeterogeneousCubic, LinearModel
from cylwave.scenarios import _plateau_state
from cylwave.sections import (SectionSolverError, check_speed_admissible,
                              find_critical_point, principal_eigenpair, section_energy)
from cylwave.weighted import WeightedMeasure

STACKED_CFG = os.path.join(os.path.dirname(__file__), "..", "configs",
                           "secondary_stacked_dirichlet.cfg")


def grid_1d():
    return build_grid(GridConfig(n_y=1, n_z=401, z_min=-20.0, z_max=20.0))


def interval(n_y, bc="dirichlet", bc_right=None, y_max=1.0):
    return build_grid(GridConfig(n_y=n_y, n_z=17, y_min=0.0, y_max=y_max,
                                 z_min=0.0, z_max=1.0, bc_left=bc,
                                 bc_right=bc if bc_right is None else bc_right,
                                 bc_axial_right="neumann"))


def neumann_interval(n_y=33):
    return interval(n_y, bc="neumann")


def stacked_plateau():
    """Model, grid and plateau of the shipped stacked-front config."""
    cfg = parse_config_file(STACKED_CFG)
    g, m = cfg.make_grid(), cfg.make_model()
    return m, g, _plateau_state(m, g, cfg.plateau_seed)


def stacked_upper_seed(plateau):
    """The seed secondary_speed uses for the critical point above the plateau."""
    v = plateau.v.values
    return CrossSectionField(plateau.v.grid, v + 0.95 * (1.0 - v))


def p1_section_energy(v, model):
    """Trapezoidal V plus the exact integral of |v'|^2/2 for the piecewise
    linear interpolant of the nodes."""
    g = v.grid
    Vv = np.asarray(model.V(v.values, g.y), dtype=float)
    if g.n_y == 1:
        return float(Vv[0])
    grad_sq = np.sum((np.diff(v.values) / g.dy) ** 2) * g.dy
    return float(0.5 * grad_sq + np.sum(g.section_weights() * Vv))


class TestSectionEnergy:
    def test_zero_state(self):
        g = neumann_interval()
        assert section_energy(CrossSectionField(g, np.zeros(g.n_y)), CubicBistable(0.25)) == 0.0

    def test_unit_state_closed_form(self):
        # E[1] = V(1) |Omega| = -1/24 on a unit interval
        g = neumann_interval()
        e = section_energy(CrossSectionField(g, np.ones(g.n_y)), CubicBistable(0.25))
        assert e == pytest.approx(-1.0 / 24.0, abs=1e-12)

    def test_negative_infimum_witnessed(self):
        # with a nonnegative zero-state eigenvalue the admissibility reduces to
        # a negative-energy section state, witnessed by the unit state
        g = neumann_interval()
        m = CubicBistable(0.25)
        nu = principal_eigenpair(m, g).value
        assert nu >= 0.0
        e1 = section_energy(CrossSectionField(g, np.ones(g.n_y)), m)
        assert e1 < 0.0

    @pytest.mark.parametrize("n_y, bc, bc_right", [
        (1, "neumann", None), (9, "neumann", None), (9, "dirichlet", None),
        (9, "dirichlet", "neumann")])
    def test_matches_the_p1_gradient(self, n_y, bc, bc_right):
        g = grid_1d() if n_y == 1 else interval(n_y, bc, bc_right, y_max=2.0)
        model = HeterogeneousCubic(a0=0.25, a1=0.1, y_max=2.0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            v = CrossSectionField(g, rng.uniform(0.0, 1.0, g.n_y))  # pins its ends
            want = p1_section_energy(v, model)
            assert section_energy(v, model) == pytest.approx(want, rel=1e-12)

    def test_pure_1d_mode(self):
        g = grid_1d()
        e = section_energy(CrossSectionField(g, np.array([1.0])), CubicBistable(0.25))
        assert e == pytest.approx(-1.0 / 24.0, abs=1e-15)


class TestPrincipalEigenpair:
    def test_neumann_constant_exact(self):
        # f_u(0) = -a, constant eigenfunction, eigenvalue exactly a
        g = neumann_interval()
        m = CubicBistable(0.25)
        res = principal_eigenpair(m, g)
        assert res.value == pytest.approx(0.25, abs=1e-10)
        spread = np.max(res.eigenfunction.values) - np.min(res.eigenfunction.values)
        assert spread < 1e-9

    @pytest.mark.parametrize("mu", [0.0, 1.0])
    def test_dirichlet_interval_closed_form(self, mu):
        # Dirichlet-Dirichlet: pi^2 - mu; Neumann-Dirichlet: (pi/2)^2 - mu
        for left, exact in (("dirichlet", np.pi ** 2), ("neumann", (np.pi / 2) ** 2)):
            errs = []
            for n_y in (41, 81):
                res = principal_eigenpair(LinearModel(mu=mu), interval(n_y, left, "dirichlet"))
                errs.append(abs(res.value - (exact - mu)))
            assert errs[0] < 0.02
            assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_rayleigh_quotient_consistency(self):
        g = interval(41)
        res = principal_eigenpair(LinearModel(mu=0.0), g)
        psi = res.eigenfunction.values
        w = g.section_weights()
        num = np.sum((np.diff(psi) / g.dy) ** 2) * g.dy
        den = np.sum(w * psi ** 2)
        assert num / den == pytest.approx(res.value, abs=max(1e-9, res.residual * 10))

    def test_eigenfunction_positive_interior(self):
        res = principal_eigenpair(LinearModel(mu=0.0), interval(41))
        assert np.all(res.eigenfunction.values[1:-1] > 0)

    def test_pure_1d(self):
        res = principal_eigenpair(CubicBistable(0.1), grid_1d())
        assert res.value == pytest.approx(0.1, abs=1e-12)


class TestCriticalPoints:
    def test_neumann_cubic_upper_state(self):
        g = neumann_interval()
        cp = find_critical_point(CubicBistable(0.25), g,
                                 CrossSectionField(g, np.full(g.n_y, 0.9)))
        np.testing.assert_allclose(cp.v.values, 1.0, atol=1e-11)
        assert cp.energy == pytest.approx(-1.0 / 24.0, abs=1e-10)
        assert cp.hessian_floor == pytest.approx(0.75, abs=1e-9)  # -f_u(1) = 1 - a
        assert cp.gradient_norm <= 1e-10

    def test_trivial_seed_stays_trivial(self):
        g = neumann_interval()
        cp = find_critical_point(CubicBistable(0.25), g,
                                 CrossSectionField(g, np.zeros(g.n_y)))
        np.testing.assert_allclose(cp.v.values, 0.0, atol=1e-14)
        assert cp.gradient_norm == 0.0

    def test_thin_dirichlet_section_has_no_nontrivial_state(self):
        # on a unit interval the gradient flow from a high seed collapses; the
        # solver reports the collapse instead of failing
        g = interval(41)
        cp = find_critical_point(CubicBistable(0.25), g,
                                 CrossSectionField(g, 0.9 * np.sin(np.pi * g.y)))
        assert cp.collapsed_to_trivial
        assert np.max(np.abs(cp.v.values)) < 1e-8

    def test_wide_dirichlet_section_has_nontrivial_state(self):
        g = build_grid(GridConfig(n_y=81, n_z=17, y_min=0.0, y_max=20.0,
                                  z_min=0.0, z_max=1.0, bc_left="dirichlet",
                                  bc_right="dirichlet", bc_axial_right="neumann"))
        m = CubicBistable(0.1)
        dist = np.minimum(g.y, 20.0 - g.y)
        cp = find_critical_point(m, g, CrossSectionField(g, 0.9 * np.minimum(1.0, dist / 2)))
        assert not cp.collapsed_to_trivial
        assert 0.5 < np.max(cp.v.values) < 1.0
        assert cp.energy < 0.0
        assert cp.hessian_floor > 0.0  # non-degenerate local minimizer

    def test_second_order_condition_at_minimizer(self):
        g = neumann_interval()
        cp = find_critical_point(CubicBistable(0.3), g,
                                 CrossSectionField(g, np.full(g.n_y, 0.8)))
        assert cp.hessian_floor >= 0.0

    @pytest.mark.parametrize("bc_left, bc_right, n_y", [
        ("neumann", "neumann", 81), ("neumann", "dirichlet", 81),
        ("dirichlet", "neumann", 81), ("dirichlet", "dirichlet", 81),
        ("neumann", "neumann", 1)])
    def test_every_boundary_pair(self, bc_left, bc_right, n_y):
        g = interval(n_y, bc_left, bc_right, y_max=20.0) if n_y > 1 else grid_1d()
        m = CubicBistable(0.1)
        # distance to the nearest pinned end; a ramp there keeps the seed smooth
        dist = np.full(g.n_y, np.inf)
        if bc_left == "dirichlet":
            dist = np.minimum(dist, g.y - g.y_min)
        if bc_right == "dirichlet":
            dist = np.minimum(dist, g.y_max - g.y)
        cp = find_critical_point(m, g, CrossSectionField(g, 0.9 * np.minimum(1.0, dist / 2)))
        assert not cp.collapsed_to_trivial
        assert cp.gradient_norm <= 1e-10
        assert cp.hessian_floor == principal_eigenpair(m, g, linearize_at=cp.v).value

    def test_flow_decreases_energy(self, monkeypatch):
        # the solver evaluates the residual once per iterate, seed included
        g = neumann_interval()
        m, gs, plateau = stacked_plateau()
        residual = sections._section_residual
        for model, seed in ((CubicBistable(0.25), CrossSectionField(g, np.full(g.n_y, 0.6))),
                            (m, stacked_upper_seed(plateau))):
            iterates = []

            def spy(model_, grid_, v):
                iterates.append(CrossSectionField(grid_, v.copy()))
                return residual(model_, grid_, v)

            monkeypatch.setattr(sections, "_section_residual", spy)
            cp = find_critical_point(model, seed.grid, seed)
            energies = [section_energy(s, model) for s in iterates]
            assert len(iterates) == cp.iterations + 1
            assert np.all(np.diff(energies) <= 0.0)

    def test_iteration_cap_raises(self, monkeypatch):
        g = neumann_interval()
        monkeypatch.setattr(sections, "PTC_MAX_ITER", 1)
        with pytest.raises(SectionSolverError, match="grad"):
            find_critical_point(CubicBistable(0.25), g, CrossSectionField(g, np.full(g.n_y, 0.6)))

    def test_few_iterations_on_shipped_sections(self):
        m, g, plateau = stacked_plateau()
        upper = find_critical_point(m, g, stacked_upper_seed(plateau))
        gc = build_grid(GridConfig(n_y=17, n_z=451, y_min=0.0, y_max=1.0,
                                   z_min=-30.0, z_max=15.0))
        cyl = find_critical_point(HeterogeneousCubic(a0=0.25, a1=0.1), gc,
                                  CrossSectionField(gc, np.full(17, 0.9)))
        for cp in (plateau, upper, cyl):
            assert cp.gradient_norm <= sections.NEWTON_GRAD_TOL
            assert 1 <= cp.iterations <= 15

    def test_1d_plateau_closed_form(self):
        g = grid_1d()
        cp = find_critical_point(CubicBistable(0.25), g, CrossSectionField(g, np.array([0.9])))
        assert abs(cp.v.values[0] - 1.0) <= 1e-15


class TestAdmissibility:
    def test_slow_trial_speed_admits_negative_energy(self):
        g = grid_1d()
        rep = check_speed_admissible(CubicBistable(0.25), g, 0.1)
        assert rep.discriminant_ok
        assert rep.best_energy < 0.0
        assert rep.admissible

    def test_fast_trial_speed_stays_nonnegative(self):
        g = grid_1d()
        rep = check_speed_admissible(CubicBistable(0.25), g, 1.2, budget_steps=400)
        assert rep.best_energy >= -1e-8
        # above c-dagger no trial field goes below zero energy
        assert not rep.admissible

    @pytest.mark.parametrize("two_d", [False, True])
    def test_best_energy_is_the_lowest_sampled_energy(self, two_d):
        # 100 steps sample the datum, 20 states and the last: 22 states, one
        # full block of ENERGY_BLOCK and a part block
        if two_d:
            g = build_grid(GridConfig(n_y=9, n_z=121, y_max=1.0, z_min=-12.0, z_max=12.0,
                                      bc_left="dirichlet"))
            model = HeterogeneousCubic(a0=0.25, a1=0.1)
        else:
            g, model = grid_1d(), CubicBistable(0.25)
        c, budget = 0.3, 100
        prof = 0.5 * (1.0 - np.tanh(g.z - 0.25 * (g.z_min + g.z_max)))
        state = apply_boundary(Field(g, np.tile(prof, (g.n_y, 1))))
        m = WeightedMeasure(c, z_ref=0.25 * (g.z_min + g.z_max))
        stepper = Stepper(model, g, dt=0.4 / max(1.0, model.max_slope(g)), frame_speed=c)
        energies = [weighted_energy(state, model, m)]
        for k in range(budget):
            state = stepper.step(state)
            if k % 5 == 0 or k == budget - 1:
                energies.append(weighted_energy(state, model, m))
        assert len(energies) == 22 and len(energies) % sections.ENERGY_BLOCK != 0
        rep = check_speed_admissible(model, g, c, budget_steps=budget)
        assert rep.best_energy == min(energies)

    def test_discriminant_always_ok_for_positive_eigenvalue(self):
        g = grid_1d()
        rep = check_speed_admissible(CubicBistable(0.25), g, 1e-3, budget_steps=10)
        assert rep.eigenvalue_at_zero == pytest.approx(0.25, abs=1e-10)
        assert rep.discriminant_ok
