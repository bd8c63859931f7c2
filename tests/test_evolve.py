import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.sparse.linalg import spsolve

from conftest import energy_identity_defect

from cylwave.evolve import (CLIP_FAIL, EvolutionError, Stepper,
                            compare_evolutions, dt_max, flow_weights, weighted_energies,
                            weighted_energy)
from cylwave.grids import (Field, GridConfig, _apply_transport, build_grid, apply_boundary,
                           transport_operator)
from cylwave.reactions import CubicBistable, HeterogeneousCubic, StackedBistable, eval_f
from cylwave.waves import front_seed
from cylwave.weighted import WeightedMeasure, weight_values


def all_neumann_1d(n_z=201, z=(-10.0, 10.0)):
    return build_grid(GridConfig(n_y=1, n_z=n_z, z_min=z[0], z_max=z[1],
                                 bc_axial_right="neumann"))


def front_grid(n_z=601, z=(-25.0, 15.0)):
    return build_grid(GridConfig(n_y=1, n_z=n_z, z_min=z[0], z_max=z[1]))


MODEL = CubicBistable(a=0.25)


class TestStep:
    def test_dt_cap(self):
        g = all_neumann_1d()
        cap = dt_max(MODEL, g)
        assert cap == pytest.approx(0.5 / 0.75, rel=1e-2)  # sup|f_u| at u=1
        with pytest.raises(EvolutionError):
            Stepper(MODEL, g, dt=cap * 1.5)

    def test_zero_equilibrium(self):
        g = all_neumann_1d()
        s = Field(g, np.zeros(g.shape))
        out = Stepper(MODEL, g, 0.1).step(s)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-15)

    def test_unit_equilibrium_neumann(self):
        g = all_neumann_1d()
        s = Field(g, np.ones(g.shape))
        out = Stepper(MODEL, g, 0.1).step(s)
        np.testing.assert_allclose(out.values, 1.0, atol=1e-13)

    def test_unstable_zero_drifts_upward(self):
        g = all_neumann_1d()
        s = Field(g, np.full(g.shape, MODEL.a + 1e-3))
        stepper = Stepper(MODEL, g, 0.1)
        for _ in range(50):
            s = stepper.step(s)
        assert np.min(s.values) > MODEL.a + 2e-3

    def test_2d_step_preserves_equilibria(self):
        g = build_grid(GridConfig(n_y=9, n_z=33, z_min=-2.0, z_max=2.0,
                                  bc_axial_right="neumann"))
        s = Field(g, np.ones(g.shape))
        out = Stepper(MODEL, g, 0.1).step(s)
        np.testing.assert_allclose(out.values, 1.0, atol=1e-13)

    @pytest.mark.parametrize("n_y, bc_left, bc_right, bc_axial_right", [
        (1, "neumann", "neumann", "neumann"),
        (1, "neumann", "neumann", "dirichlet"),
    ] + [(7,) + tags for tags in itertools.product(("neumann", "dirichlet"), repeat=3)])
    def test_step_matches_direct_sparse_solve(self, n_y, bc_left, bc_right, bc_axial_right):
        g = build_grid(GridConfig(n_y=n_y, n_z=33, y_max=2.0, z_min=-3.0, z_max=2.0,
                                  bc_left=bc_left, bc_right=bc_right,
                                  bc_axial_right=bc_axial_right))
        c, dt = 0.37, 0.1
        u = Field(g, np.random.default_rng(3).uniform(0.0, 1.0, g.shape))
        stepper = Stepper(MODEL, g, dt, frame_speed=c)
        out = stepper.step(u)
        rhs = (u.values + dt * eval_f(MODEL, g, u.values)).ravel()
        rhs[g.dirichlet_mask.ravel()] = 0.0
        M = sp.identity(rhs.size, format="csc") - dt * transport_operator(g, c)
        want = spsolve(M.tocsc(), rhs).reshape(g.shape)
        np.testing.assert_allclose(out.values, want, rtol=0, atol=1e-12)
        # a stack of three: each member is its own step, bit for bit
        stack = np.random.default_rng(4).uniform(0.0, 1.0, (3,) + g.shape)
        stack[1] = u.values
        stacked = stepper.advance(stack)
        assert stacked.shape == stack.shape
        for member, v in zip(stacked, stack):
            alone = stepper.step(Field(g, v)).values
            assert np.array_equal(member, alone)

    @pytest.mark.parametrize("n_y, bc", [(1, "neumann"), (7, "dirichlet"), (7, "neumann")])
    def test_step_matches_direct_sparse_solve_at_the_widest_scaling(self, n_y, bc):
        # c = 1 on a 60-wide window: the symmetrizing scale e^{c (z - z_c) / 2}
        # spans e^{-15} to e^{15} over the free nodes
        g = build_grid(GridConfig(n_y=n_y, n_z=241, y_max=2.0, z_min=-40.0, z_max=20.0,
                                  bc_left=bc, bc_right=bc))
        c, dt = 1.0, 0.1
        u = Field(g, np.random.default_rng(5).uniform(0.0, 1.0, g.shape))
        out = Stepper(MODEL, g, dt, frame_speed=c).step(u)
        rhs = (u.values + dt * eval_f(MODEL, g, u.values)).ravel()
        rhs[g.dirichlet_mask.ravel()] = 0.0
        M = sp.identity(rhs.size, format="csc") - dt * transport_operator(g, c)
        want = spsolve(M.tocsc(), rhs).reshape(g.shape)
        np.testing.assert_allclose(out.values, want, rtol=0, atol=1e-12)

    def test_non_finite_solve_fails_the_step(self, monkeypatch):
        from cylwave import evolve

        def nan_solve(*args, **kwargs):
            b = args[-1]
            return np.full_like(b, np.nan), 0

        g = all_neumann_1d()
        stepper = Stepper(MODEL, g, 0.1)
        monkeypatch.setattr(evolve, "dpttrs", nan_solve)
        with pytest.raises(EvolutionError, match="non-finite"):
            stepper.step(Field(g, np.full(g.shape, 0.5)))

    def test_escape_from_unit_interval_fails_the_run(self):
        # a growing reaction pushes the state past 1 by far more than the
        # rounding allowance
        from cylwave.reactions import LinearModel

        g = all_neumann_1d()
        growing = LinearModel(mu=3.0)
        stepper = Stepper(growing, g, dt=0.9 * dt_max(growing, g))
        s = Field(g, np.full(g.shape, 0.9))
        with pytest.raises(EvolutionError, match="left"):
            for _ in range(10):
                s = stepper.step(s)

    @pytest.mark.parametrize("overshoot", [5e-10, 1e-6])
    def test_stack_checks_the_unit_interval_over_every_member(self, overshoot):
        # f = mu u lifts the constant 1 to 1 + dt mu (the Neumann solve keeps
        # constants), while the member at 0.5 stays inside [0, 1]
        from cylwave.reactions import LinearModel

        g = all_neumann_1d()
        dt = 0.1
        stepper = Stepper(LinearModel(mu=overshoot / dt), g, dt)
        stack = np.stack([np.full(g.shape, 0.5), np.ones(g.shape)])
        if overshoot > CLIP_FAIL:
            with pytest.raises(EvolutionError, match="left"):
                stepper.advance(stack)
            return
        new = stepper.advance(stack)
        assert stepper.max_clip == pytest.approx(overshoot, rel=1e-3)
        assert np.array_equal(new[1], np.ones(g.shape))
        alone = Stepper(stepper.model, g, dt).step(Field(g, stack[0]))
        assert np.array_equal(new[0], alone.values)


class TestEnergy:
    def test_zero_field_zero_energy(self):
        g = front_grid()
        assert weighted_energy(Field(g, np.zeros(g.shape)), MODEL,
                               WeightedMeasure(0.3)) == 0.0

    @pytest.mark.parametrize("n_y, bc", [(1, "neumann"), (7, "neumann"), (7, "dirichlet")])
    def test_stacked_energies_are_each_members_energy(self, n_y, bc):
        g = structure_grid(n_y, bc, "dirichlet")
        m = WeightedMeasure(0.37, 1.0)
        rng = np.random.default_rng(12)
        stack = np.array([apply_boundary(Field(g, v)).values
                          for v in rng.uniform(0.0, 1.0, (3,) + g.shape)])
        got = weighted_energies(stack, MODEL, g, m)
        assert got.shape == (3,)
        for e, v in zip(got, stack):
            whole = (flow_weights(g, m) * (MODEL.V(v, g.y[:, None])
                                           - 0.5 * v * _apply_transport(g, v, m.c))).sum()
            assert e == weighted_energy(Field(g, v), MODEL, m) == whole

    def test_gaussian_bump_against_quadrature_oracle(self):
        # independent oracle: adaptive quadrature of the weighted integrand;
        # the grid value converges at second order
        c = 0.3

        def integrand(z):
            uu = np.exp(-z ** 2)
            du = -2 * z * uu
            return np.exp(c * z) * (0.5 * du ** 2 + MODEL.V(uu))

        want, _ = quad(integrand, -20.0, 20.0, limit=200)
        errs = []
        for n_z in (2001, 4001):
            g = front_grid(n_z=n_z, z=(-20.0, 20.0))
            u = Field(g, np.exp(-g.z ** 2)[None, :])
            errs.append(abs(weighted_energy(u, MODEL, WeightedMeasure(c)) - want))
        assert errs[0] < 5e-4 * abs(want)
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)

    def test_energy_monotone_along_flow(self):
        g = front_grid()
        m = WeightedMeasure(0.3536)
        vals = 0.5 * (1 - np.tanh(g.z - 1.0))
        s = apply_boundary(Field(g, vals[None, :]))
        stepper = Stepper(MODEL, g, 0.1, frame_speed=0.3536)
        e_prev = weighted_energy(s, MODEL, m)
        for _ in range(100):
            s = stepper.step(s)
            e = weighted_energy(s, MODEL, m)
            assert e <= e_prev + 1e-10 * max(1.0, abs(e_prev))
            e_prev = e


# 1D, then 2D with Neumann and with Dirichlet sections, each with the axial
# right end pinned and with it Neumann
STRUCTURE_GRIDS = [(1, "neumann", axial) for axial in ("dirichlet", "neumann")] + [
    (7, bc, axial) for bc in ("neumann", "dirichlet") for axial in ("dirichlet", "neumann")]


def structure_grid(n_y, bc, axial_right):
    return build_grid(GridConfig(n_y=n_y, n_z=41, y_max=2.0, z_min=-3.0, z_max=5.0,
                                 bc_left=bc, bc_right=bc, bc_axial_right=axial_right))


def midpoint_flux_energy(u, model, m):
    """The weighted energy as a sum over grid edges: squared differences with
    the fitted flux weights kappa (W_j W_{j+1})^{1/2} along z and plain
    midpoint weights along y, plus ``flow_weights * V``."""
    g = u.grid
    wexp = weight_values(g, m)
    wy = g.section_weights()
    vals = u.values
    a = 0.5 * m.c * g.dz
    kappa = a / np.sinh(a)
    wz_mid = kappa * np.sqrt(wexp[:-1] * wexp[1:])
    dz_sq = ((vals[:, 1:] - vals[:, :-1]) / g.dz) ** 2
    total = 0.5 * (wy[:, None] * wz_mid[None, :] * dz_sq).sum() * g.dz
    if g.n_y > 1:
        dy_sq = ((vals[1:] - vals[:-1]) / g.dy) ** 2
        total += 0.5 * (g.dy * (wexp * g.dz)[None, :] * dy_sq).sum()
    Vv = np.asarray(model.V(vals, g.y[:, None]), dtype=float)
    return float(total + (flow_weights(g, m) * Vv).sum())


class TestGradientStructure:
    """The energy is the potential minus half the quadratic form of the
    transport operator, which ``flow_weights`` make self-adjoint."""

    @pytest.mark.parametrize("n_y, bc, axial_right", STRUCTURE_GRIDS)
    def test_weighted_operator_symmetric_on_free_nodes(self, n_y, bc, axial_right):
        g = structure_grid(n_y, bc, axial_right)
        c = 0.37
        free = ~g.dirichlet_mask.ravel()
        WA = flow_weights(g, WeightedMeasure(c, 1.0)).ravel()[:, None] \
            * transport_operator(g, c).toarray()
        WA = WA[np.ix_(free, free)]
        assert np.max(np.abs(WA - WA.T)) <= 1e-14 * np.max(np.abs(WA))

    @pytest.mark.parametrize("n_y, bc, axial_right", STRUCTURE_GRIDS)
    def test_energy_matches_the_edge_sum(self, n_y, bc, axial_right):
        g = structure_grid(n_y, bc, axial_right)
        rng = np.random.default_rng(11)
        for c, z_ref in ((0.37, 0.0), (1.2, 2.0)):
            m = WeightedMeasure(c, z_ref)
            for _ in range(5):
                u = apply_boundary(Field(g, rng.uniform(0.0, 1.0, g.shape)))
                want = midpoint_flux_energy(u, MODEL, m)
                assert weighted_energy(u, MODEL, m) == pytest.approx(want, rel=1e-12)


def identity_case(name):
    """(model, grid, datum, frame speed, dt) of an energy-identity run."""
    if name == "front_1d":
        g = front_grid()
        return MODEL, g, front_seed(g, 1.0, offset=1.0), 0.3536, 0.2
    if name == "cubic_y_cylinder":
        model = HeterogeneousCubic(a0=0.25, a1=0.1)
        g = build_grid(GridConfig(n_y=17, n_z=201, y_min=0.0, y_max=1.0,
                                  z_min=-10.0, z_max=10.0))
        return model, g, front_seed(g, 1.0 - 0.2 * g.y, offset=1.0), 0.3, dt_max(model, g)
    # the stacked config's half grid, with a wall-tapered plateau
    model = StackedBistable(a1=0.05, a2=0.5, a3=0.7, scale=20.0)
    g = build_grid(GridConfig(n_y=33, n_z=186, y_min=0.0, y_max=16.0, z_min=-25.0,
                              z_max=12.0, bc_left="dirichlet", bc_right="dirichlet"))
    plateau = 0.9 * np.minimum(1.0, np.minimum(g.y, 16.0 - g.y) / 2.0)
    return model, g, front_seed(g, plateau), 0.15, dt_max(model, g)


class TestEnergyIdentity:
    """Each IMEX step keeps the gradient-flow structure exactly: the energy
    identity of ``energy_identity_defect`` holds to rounding."""

    @pytest.mark.parametrize("name", ["front_1d", "cubic_y_cylinder", "stacked_dirichlet"])
    def test_identity_holds_to_rounding(self, name):
        model, g, u0, c, dt = identity_case(name)
        stepper = Stepper(model, g, dt, frame_speed=c)
        state = u0
        for _ in range(25):
            new = stepper.step(state)
            defect, bound = energy_identity_defect(stepper, state, new)
            assert defect <= bound
            state = new
        assert stepper.max_clip == 0.0

    def test_identity_sees_a_one_node_change(self):
        # a step that misses the scheme by 1e-10 at one node breaks the identity
        model, g, u0, c, dt = identity_case("front_1d")
        stepper = Stepper(model, g, dt, frame_speed=c)
        state = u0
        new = stepper.step(state)
        values = new.values.copy()
        values[0, np.argmin(abs(g.z - 1.0))] += 1e-10
        defect, bound = energy_identity_defect(
            stepper, state, Field(g, values))
        assert defect > bound

    def test_stationary_state_is_silent(self):
        g = all_neumann_1d()
        s0 = Field(g, np.ones(g.shape))
        stepper = Stepper(MODEL, g, 0.1, frame_speed=0.5)
        s1 = stepper.step(s0)
        assert np.array_equal(s1.values, s0.values)
        assert energy_identity_defect(stepper, s0, s1)[0] == 0.0


class TestComparison:
    def test_identical_data_trivially_ordered(self):
        g = front_grid(n_z=201, z=(-8.0, 8.0))
        vals = 0.5 * (1 - np.tanh(g.z))
        u = Field(g, vals[None, :])
        rep = compare_evolutions([u, u.copy()], MODEL, horizon=1.0, dt=0.1)
        assert rep.ordered

    def test_shifted_down_pair_stays_ordered(self):
        g = front_grid(n_z=201, z=(-8.0, 8.0))
        hi = 0.5 * (1 - np.tanh(g.z))
        lo = np.maximum(hi - 0.1, 0.0)
        rep = compare_evolutions([Field(g, lo[None, :]), Field(g, hi[None, :])],
                                 MODEL, horizon=2.0, dt=0.1)
        assert rep.ordered
        assert rep.max_violation <= 1e-10

    def test_random_ordered_pairs(self):
        g = front_grid(n_z=101, z=(-4.0, 4.0))
        rng = np.random.default_rng(7)
        for _ in range(10):
            hi = np.clip(rng.uniform(0, 1, g.shape), 0, 1)
            lo = np.clip(hi - np.abs(rng.uniform(0, 0.3, g.shape)), 0, 1)
            rep = compare_evolutions([Field(g, lo), Field(g, hi)], MODEL,
                                     horizon=0.5, dt=0.05, frame_speed=0.2)
            assert rep.ordered

    def test_unordered_input_rejected(self):
        g = front_grid(n_z=101, z=(-4.0, 4.0))
        lo = Field(g, np.full(g.shape, 0.5))
        hi = Field(g, np.full(g.shape, 0.4))
        with pytest.raises(ValueError):
            compare_evolutions([lo, hi], MODEL, horizon=0.5, dt=0.05)

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_data_rejected(self, count, monkeypatch):
        g = front_grid(n_z=101, z=(-4.0, 4.0))
        monkeypatch.setattr(Stepper, "advance", None)  # no step may be taken
        with pytest.raises(ValueError, match="at least two data, got %d" % count):
            compare_evolutions([Field(g, np.full(g.shape, 0.5))] * count, MODEL,
                               horizon=0.5, dt=0.05)

    def test_partial_step_horizon_rejected(self):
        g = front_grid(n_z=101, z=(-4.0, 4.0))
        lo, hi = Field(g, np.full(g.shape, 0.4)), Field(g, np.full(g.shape, 0.5))
        for horizon in (0.02, 0.07):
            with pytest.raises(ValueError, match="horizon = %g is not a whole number "
                                                 "of dt = 0.05 steps" % horizon):
                compare_evolutions([lo, hi], MODEL, horizon=horizon, dt=0.05)

    def test_unordered_middle_pair_rejected(self):
        g = front_grid(n_z=101, z=(-4.0, 4.0))
        lo, mid, hi = (Field(g, np.full(g.shape, c)) for c in (0.2, 0.6, 0.5))
        with pytest.raises(ValueError):
            compare_evolutions([lo, mid, hi], MODEL, horizon=0.5, dt=0.05)
