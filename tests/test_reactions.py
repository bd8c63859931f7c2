import numpy as np
import pytest

from cylwave.grids import GridConfig, build_grid
from cylwave.reactions import (CubicBistable, HeterogeneousCubic, LinearModel,
                               ReactionError, ReactionModel, ShiftedModel,
                               StackedBistable, _poly_V, check_hypotheses,
                               eval_f, eval_f_u, make_model)


def grid_1d(n_z=64):
    return build_grid(GridConfig(n_y=1, n_z=n_z, z_min=-2.0, z_max=2.0))


class TestCubic:
    @pytest.mark.parametrize("u,expected", [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0 / 16.0)])
    def test_pointwise_values(self, u, expected):
        m = CubicBistable(a=0.25)
        assert m.f(u) == pytest.approx(expected, abs=1e-15)

    def test_parameter_range(self):
        with pytest.raises(ReactionError):
            CubicBistable(a=0.6)

    def test_roots_by_sign_change(self):
        m = CubicBistable(a=0.25)
        u = np.linspace(-0.01, 1.01, 2001)
        s = np.sign(m.f(u))
        crossings = u[np.nonzero(np.diff(s))[0]]
        assert len(crossings) == 3
        np.testing.assert_allclose(sorted(crossings), [0.0, 0.25, 1.0], atol=1e-3)

    def test_potential_closed_form(self):
        m = CubicBistable(a=0.25)
        assert m.V(0.0, 0.0) == 0.0
        assert m.V(1.0, 0.0) == pytest.approx(-1.0 / 24.0, abs=1e-15)

    def test_potential_cutoff_plateau(self):
        m = CubicBistable(a=0.25)
        assert m.V(2.0, 0.0) == m.V(1.0, 0.0)
        assert m.V(-0.5, 0.0) == 0.0

    def test_field_evaluation(self):
        g = grid_1d()
        out = eval_f(CubicBistable(a=0.25), g, np.full(g.shape, 0.5))
        np.testing.assert_allclose(out, 1.0 / 16.0)


class TestPolynomials:
    @pytest.mark.parametrize("model, coeffs", [
        (CubicBistable(a=0.3), np.array([-1.0, 1.3, -0.3, 0.0])),
        (StackedBistable(), -np.poly([0.0, 0.05, 0.5, 0.8, 1.0])),
    ], ids=["cubic", "stacked"])
    def test_polynomials_match_numpy_polyval_bitwise(self, model, coeffs):
        anti = np.polyint(coeffs)
        u = np.random.default_rng(5).uniform(-0.5, 1.5, (3, 257))
        u[0, :4] = [0.0, 1.0, -0.0, 0.5]
        want = -np.polyval(anti, np.clip(u, 0.0, 1.0))
        assert np.array_equal(_poly_V(anti, u), want)
        assert np.array_equal(model.V(u), want)
        for x in (0.37, -2.0, 3.0):            # a 0-d input still gives a scalar
            got = model.V(x)
            assert np.ndim(got) == 0 and got == -np.polyval(anti, np.clip(x, 0.0, 1.0))
        if isinstance(model, StackedBistable):  # f and f_u are polynomials too
            assert np.array_equal(model.f(u), np.polyval(coeffs, u))
            assert np.array_equal(model.f_u(u), np.polyval(np.polyder(coeffs), u))


class TestOtherModels:
    def test_heterogeneous_range_validated(self):
        with pytest.raises(ReactionError):
            HeterogeneousCubic(a0=0.45, a1=0.1)

    def test_heterogeneous_varies_with_y(self):
        m = HeterogeneousCubic(a0=0.25, a1=0.1)
        assert m.f(0.5, 0.0) != m.f(0.5, 1.0)

    def test_ignition_level_is_the_lowest_unstable_zero(self):
        assert CubicBistable(a=0.3).ignition_level(grid_1d()) == pytest.approx(0.3, abs=1 / 256)
        g = build_grid(GridConfig(n_y=9, n_z=16, y_min=0.0, y_max=1.0))
        m = HeterogeneousCubic(a0=0.25, a1=0.1, y_min=0.0, y_max=1.0)
        assert m.ignition_level(g) == pytest.approx(0.15, abs=1 / 256)

    def test_stacked_roots(self):
        m = StackedBistable(a1=0.05, a2=0.5, a3=0.7)
        for r in (0.0, 0.05, 0.5, 0.7, 1.0):
            assert m.f(r) == pytest.approx(0.0, abs=1e-14)

    def test_registry(self):
        m = make_model("cubic", {"a": 0.3})
        assert isinstance(m, CubicBistable) and m.a == 0.3
        with pytest.raises(ReactionError, match="unknown model"):
            make_model("nope")
        with pytest.raises(ReactionError, match="does not take label"):
            make_model("cubic", {"label": "x"})

        class NoPotential(ReactionModel):  # V has no default
            def f(self, u, y=None):
                return u * (1.0 - u) * (u - 0.25)

            def f_u(self, u, y=None):
                return -3 * u ** 2 + 2.5 * u - 0.25

        with pytest.raises(NotImplementedError):
            NoPotential().V(0.5, 0.0)

    @pytest.mark.parametrize("name,cls", [("cubic", CubicBistable),
                                          ("cubic_y", HeterogeneousCubic),
                                          ("stacked", StackedBistable),
                                          ("linear", LinearModel)])
    def test_registry_name_gives_class(self, name, cls):
        assert type(make_model(name)) is cls

    def test_shifted_model_zero_is_equilibrium(self):
        base = CubicBistable(a=0.25)
        sm = ShiftedModel(base=base, v_values=(1.0,), y_nodes=(0.5,))
        assert sm.f(0.0, 0.5) == pytest.approx(0.0, abs=1e-15)
        assert sm.V(0.0, 0.5) == pytest.approx(0.0, abs=1e-15)


class TestHypothesesReport:
    def test_cubic_passes_with_positive_drive(self):
        g = grid_1d()
        rep = check_hypotheses(CubicBistable(a=0.25), g)
        assert rep.passed()
        assert rep.potential_consistent
        # int_0^1 u(1-u)(u-a) du = 1/12 - a/6 = 1/24
        np.testing.assert_allclose(rep.drive_integral, 1.0 / 24.0, atol=1e-4)

    def test_negative_drive_flagged(self):
        class TiltedCubic(ReactionModel):
            def f(self, u, y=None):
                return u * (1.0 - u) * (u - 0.6)

            def f_u(self, u, y=None):
                return -3 * u ** 2 + 3.2 * u - 0.6

            def V(self, u, y=None):
                uu = np.clip(u, 0.0, 1.0)
                return uu ** 4 / 4.0 - 1.6 * uu ** 3 / 3.0 + 0.3 * uu ** 2

        rep = check_hypotheses(TiltedCubic(), grid_1d())
        assert rep.zero_state_ok and rep.upper_state_ok
        assert not rep.drive_positive
        assert rep.drive_integral[0] == pytest.approx(1.0 / 12.0 - 0.1, abs=1e-4)

    def test_linear_violates_upper_state(self):
        rep = check_hypotheses(LinearModel(mu=1.0), grid_1d())
        assert rep.zero_state_ok
        assert not rep.upper_state_ok  # f(1) = 1 > 0

    def test_holder_quotient_reported(self):
        rep = check_hypotheses(CubicBistable(a=0.25), grid_1d())
        # Lipschitz-like quotient for a smooth cubic stays modest
        assert 0.0 < rep.holder_quotient_f < 10.0
        assert 0.0 < rep.holder_quotient_f_u < 10.0

    def test_potential_derivative_matches_reaction(self):
        # -dV/du = f on (0,1) for every builtin
        g = grid_1d()
        for m in (CubicBistable(0.25), StackedBistable(), LinearModel(mu=0.5)):
            rep = check_hypotheses(m, g)
            assert rep.potential_consistent

    def test_nonfinite_reaction_fails_fast(self):
        class Bad(ReactionModel):
            def f(self, u, y=None):
                return np.where(np.asarray(u) > 0.5, np.inf, 0.0)

            def f_u(self, u, y=None):
                return np.zeros_like(np.asarray(u, dtype=float))

        g = grid_1d()
        with pytest.raises(ReactionError, match="non-finite"):
            eval_f(Bad(), g, np.full(g.shape, 0.9))

    def test_nonfinite_derivative_fails_fast(self):
        class Bad(ReactionModel):
            def f(self, u, y=None):
                return np.zeros_like(np.asarray(u, dtype=float))

            def f_u(self, u, y=None):
                return np.where(np.asarray(u) > 0.5, np.nan, 0.0)

        g = grid_1d()
        with pytest.raises(ReactionError, match="non-finite"):
            eval_f_u(Bad(), g, np.full(g.shape, 0.9))
