import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from conftest import template_slope

from cylwave.evolve import flow_weights
from cylwave.grids import (CrossSectionField, Field, GridConfig, _apply_axial,
                           _apply_transport, build_grid, half_grid, transport_operator)
from cylwave.reactions import (CubicBistable, HeterogeneousCubic, LinearModel,
                               ShiftedModel, StackedBistable, eval_f_u)
from cylwave.sections import find_critical_point
from cylwave import waves
from cylwave.scenarios import _plateau_state
from cylwave.waves import (SeedBasinError, Template, WaveSolverError, front_seed,
                           load_solution, refine_solution, save_solution,
                           secondary_speed, solve_wave, spectral_gap,
                           translation_profile)
from cylwave.weighted import (WeightedMeasure, cell_fraction, quadrature_weights, translate,
                              weighted_norm_l2)


def wave_grid(n_z=1201, z=(-40.0, 20.0)):
    return build_grid(GridConfig(n_y=1, n_z=n_z, z_min=z[0], z_max=z[1]))


@pytest.fixture(scope="module")
def cubic_wave():
    grid = wave_grid()
    model = CubicBistable(a=0.25)
    ws = solve_wave(model, grid, front_seed(grid, 1.0), c_seed=0.2)
    return model, ws


def exact_cubic_profile(z):
    return 1.0 / (1.0 + np.exp(z / np.sqrt(2.0)))


class TestSolveWave:
    def test_selected_speed_and_profile(self, cubic_wave):
        model, ws = cubic_wave
        assert ws.speed == pytest.approx(model.exact_speed(), abs=1e-4)
        err = np.max(np.abs(ws.profile.values[0] - exact_cubic_profile(ws.grid.z)))
        assert err < 5e-4

    def test_residual_below_newton_tolerance(self, cubic_wave):
        _, ws = cubic_wave
        assert ws.residual <= 1e-8

    def test_factorizations_per_level(self, cubic_wave):
        # 1D keeps the chord: two factorizations serve the half-grid
        # continuation, one the configured grid's Newton
        _, ws = cubic_wave
        assert ws.coarse.factorizations == 2
        assert ws.factorizations == 3

    def test_continuation_counted(self, cubic_wave):
        # the continuation runs on the half grid, Newton on the configured one
        _, ws = cubic_wave
        assert ws.continuation_steps == 10
        assert ws.newton_iterations > 0
        assert ws.factorizations == 3

    def test_continuation_cap_raises(self, monkeypatch):
        g = wave_grid(n_z=401, z=(-20.0, 20.0))
        monkeypatch.setattr(waves, "CONTINUATION_MAX_STEPS", 3)
        with pytest.raises(waves.WaveSolverError, match="in 3 steps: merit [0-9.e-]+$"):
            solve_wave(CubicBistable(a=0.25), g, front_seed(g, 1.0), c_seed=0.2)

    def test_slow_off_centre_seed_comes_back_centred(self):
        # a seed speed far below the wave's and a front 8 units right of the
        # window's centre: the seed is moved to z = 0 once, and the
        # continuation finds the speed with the mid-level pinned there
        model = CubicBistable(a=0.1)
        g = wave_grid(n_z=601, z=(-20.0, 20.0))
        ws = solve_wave(model, g, front_seed(g, 1.0, offset=8.0), c_seed=0.01)
        assert ws.speed == pytest.approx(model.exact_speed(), abs=5e-3)
        assert ws.continuation_steps > 0
        assert ws.normalization_shift == pytest.approx(-8.0, abs=1e-9)
        assert abs(waves._mid_level(g, ws.profile.values)) < 1e-9

    def test_centred_between_nodes(self):
        # z = 0 is not a node of this grid: the linear crossing still lands there
        g = wave_grid(n_z=401)
        ws = solve_wave(CubicBistable(a=0.25), g, front_seed(g, 1.0), c_seed=0.2)
        assert 0.0 not in g.z
        assert abs(waves._mid_level(g, ws.profile.values)) < 1e-9

    def test_window_without_origin_raises(self):
        # the phase condition pins the mid-level at z = 0, which must lie in the window
        g = wave_grid(n_z=401, z=(5.0, 45.0))
        with pytest.raises(waves.WaveSolverError, match="does not contain z = 0"):
            solve_wave(CubicBistable(a=0.25), g, front_seed(g, 1.0, offset=15.0),
                       c_seed=0.2)

    def test_seed_beyond_half_window_raises_basin_error(self):
        # the mid-level at z = -35 on [-40, 20] is 35 from z = 0, beyond the
        # half-window 30 that a translate can reach
        g = wave_grid(n_z=601)
        with pytest.raises(SeedBasinError, match="shift of 35 .* half the window length 30$"):
            solve_wave(CubicBistable(a=0.25), g, front_seed(g, 1.0, offset=-35.0),
                       c_seed=0.2)

    def test_profile_monotone(self, cubic_wave):
        _, ws = cubic_wave
        assert ws.monotone
        d = np.diff(ws.profile.values[0])
        visible = (ws.profile.values[0, :-1] > 1e-12) & (1 - ws.profile.values[0, :-1] > 1e-12)
        assert np.all(d[visible] < 0.0)

    def test_normalization_mid_level_at_origin(self, cubic_wave):
        _, ws = cubic_wave
        g = ws.grid
        j = np.argmin(np.abs(g.z))
        sup = np.max(np.abs(ws.profile.values))
        assert ws.profile.values[0, j] == pytest.approx(0.5 * sup, abs=1e-3)

    def test_decays_at_right_end(self, cubic_wave):
        _, ws = cubic_wave
        assert abs(ws.profile.values[0, -1]) < 1e-6
        assert abs(ws.profile.values[0, -2]) < 1e-6

    def test_plateau_matches_section_state(self, cubic_wave):
        model, ws = cubic_wave
        cp = find_critical_point(model, ws.grid,
                                 CrossSectionField(ws.grid, np.array([0.9])))
        assert np.max(np.abs(ws.plateau.values - cp.v.values)) < 1e-6
        assert cp.energy < 0.0

    def test_front_seed_takes_every_plateau_form(self):
        g = build_grid(GridConfig(n_y=5, n_z=33, y_max=1.0, z_min=-4.0, z_max=4.0))
        plat = np.linspace(0.2, 0.6, 5)
        want = front_seed(g, plat).values
        np.testing.assert_array_equal(front_seed(g, CrossSectionField(g, plat)).values, want)
        np.testing.assert_array_equal(front_seed(g, 0.5).values,
                                      front_seed(g, np.full(5, 0.5)).values)
        with pytest.raises(ValueError):
            front_seed(g, np.ones(4))

    def test_seed_independence(self, cubic_wave):
        model, ws = cubic_wave
        g = ws.grid
        for offset, steepness, c_seed in [(-3.0, 0.6, 0.45), (5.0, 2.0, 0.05)]:
            ws2 = solve_wave(model, g, front_seed(g, 1.0, offset=offset, steepness=steepness),
                             c_seed=c_seed)
            assert abs(ws2.speed - ws.speed) < 1e-6
            assert np.max(np.abs(ws2.profile.values - ws.profile.values)) < 1e-6

    def test_speed_refinement_second_order(self):
        model = CubicBistable(a=0.25)
        speeds = []
        for n_z in (301, 601, 1201):
            g = wave_grid(n_z=n_z)
            speeds.append(solve_wave(model, g, front_seed(g, 1.0), 0.2).speed)
        e1 = abs(speeds[0] - speeds[1])
        e2 = abs(speeds[1] - speeds[2])
        assert e1 / e2 == pytest.approx(4.0, rel=0.5)

    def test_collapse_detected_for_subcritical_seed(self):
        g = wave_grid(n_z=401, z=(-20.0, 20.0))
        model = CubicBistable(a=0.45)
        # a narrow low bump dies; there is no front to freeze, and the check
        # says so before the seed's mid-level is looked for
        vals = 0.3 * np.exp(-((g.z) / 0.5) ** 2)
        with pytest.raises(SeedBasinError, match="not front-like"):
            solve_wave(model, g, Field(g, vals[None, :]), c_seed=0.1)

    def test_non_front_like_seed_rejected_before_any_step(self, monkeypatch):
        # a plateau of 0.5 barely above the threshold 0.45 has positive
        # section energy: the seed is no front, and no step is taken
        g = wave_grid(n_z=401, z=(-20.0, 20.0))
        calls = []
        monkeypatch.setattr(waves, "_newton_polish", lambda *a, **k: calls.append(a))
        with pytest.raises(SeedBasinError, match="not front-like"):
            waves.freeze_frame(CubicBistable(a=0.45), g, front_seed(g, 0.5), c_seed=0.1)
        assert calls == []

    def test_collapse_inside_continuation_raises(self, monkeypatch):
        # a decaying reaction pulls a unit front toward zero; the in-loop
        # check names the collapse after at least one accepted step (the
        # start and every accepted iterate build their own phase vector)
        g = wave_grid(n_z=401, z=(-20.0, 20.0))
        phases = []

        def counted(*args, _inner=waves._phase_vector):
            phases.append(args)
            return _inner(*args)

        monkeypatch.setattr(waves, "_phase_vector", counted)
        with pytest.raises(SeedBasinError, match="collapsed toward zero"):
            waves._newton_polish(LinearModel(mu=-1.0), g, front_seed(g, 1.0).values,
                                 0.2, tau=waves.TAU0)
        assert len(phases) >= 2

    def test_zero_mode_defect_shrinks_second_order(self, cubic_wave):
        model, base = cubic_wave

        def defect(ws):
            g = ws.grid
            A = transport_operator(g, ws.speed)
            fu = eval_f_u(model, g, ws.profile.values).ravel()
            img = (A @ ws.profile_dz.ravel() + fu * ws.profile_dz.ravel())
            img[g.dirichlet_mask.ravel()] = 0.0
            m = ws.measure(0.0)
            return (weighted_norm_l2(Field(g, img.reshape(g.shape)), m)
                    / weighted_norm_l2(Field(g, ws.profile_dz), m))

        d_coarse = defect(base)
        mid = refine_solution(base, wave_grid(n_z=2401), model)
        d_mid = defect(mid)
        assert d_coarse / d_mid == pytest.approx(4.0, rel=0.4)
        # at dz = 0.004 the linearization annihilates the discrete
        # translational mode to within 1e-6 of the mode's norm
        fine = refine_solution(mid, wave_grid(n_z=15001), model)
        assert defect(fine) <= 1e-6


class TestTwoLevels:
    def test_continuation_on_the_half_grid_newton_on_the_configured(self, monkeypatch):
        g = wave_grid(n_z=601)
        calls = []
        for name in ("freeze_frame", "refine_solution"):
            def spy(*args, _inner=getattr(waves, name), _name=name, **kwargs):
                calls.append((_name, args[1].n_z))
                return _inner(*args, **kwargs)
            monkeypatch.setattr(waves, name, spy)
        ws = solve_wave(CubicBistable(a=0.25), g, front_seed(g, 1.0), c_seed=0.2)
        assert calls == [("freeze_frame", 301), ("refine_solution", 601)]
        assert ws.grid == g and ws.residual <= waves.RESIDUAL_LIMIT

    @pytest.mark.parametrize("n_z", [400, 29])
    def test_grid_without_half_grid_solves_on_one_level(self, n_z):
        g = wave_grid(n_z=n_z, z=(-20.0, 20.0))
        assert half_grid(g) is None
        model = CubicBistable(a=0.25)
        ws = solve_wave(model, g, front_seed(g, 1.0), c_seed=0.2)
        assert np.isnan(ws.speed_err_est)
        assert ws.continuation_steps > 0 and ws.newton_iterations == 0
        assert ws.speed == pytest.approx(model.exact_speed(), rel=0.2)

    @pytest.mark.parametrize("n_z", [601, 1201])
    def test_estimate_against_the_closed_form(self, cubic_wave, n_z):
        # (c_h - c_2h) / 3 is the correction that Richardson extrapolation
        # adds: speed + speed_err_est lies within 5% of it from (1 - 2a)/sqrt(2)
        model, ws = cubic_wave
        if n_z != ws.grid.n_z:
            g = wave_grid(n_z=n_z)
            ws = solve_wave(model, g, front_seed(g, 1.0), c_seed=0.2)
        exact = model.exact_speed()
        assert ws.speed_err_est < 0.0
        assert abs(ws.speed - exact + ws.speed_err_est) <= 0.05 * abs(ws.speed_err_est)

    def test_secondary_half_grid_is_its_own_discretization(self, monkeypatch):
        # the half-grid level is the secondary wave of that grid, shifted by
        # that grid's own plateau: bit for bit what secondary_speed gives
        # there, on one level (802 / 2 + 1 = 402 nodes is even)
        model = StackedBistable(a1=0.05, a2=0.5, a3=0.7)
        g = build_grid(GridConfig(n_y=1, n_z=803, z_min=-35.0, z_max=15.0))
        h = half_grid(g)
        assert h is not None and half_grid(h) is None
        v = find_critical_point(model, g, CrossSectionField(g, np.array([0.55])))
        coarse = []
        refine = waves.refine_solution

        def spy(ws, grid, m):
            coarse.append(ws.speed)
            return refine(ws, grid, m)

        monkeypatch.setattr(waves, "refine_solution", spy)
        res = secondary_speed(model, g, v, c_seed=0.03)
        v_h = find_critical_point(model, h, CrossSectionField(h, v.v.values[::2]))
        direct = secondary_speed(model, h, v_h, c_seed=0.03)
        assert res.applicable and direct.applicable
        assert coarse == [direct.speed]
        assert np.isnan(direct.speed_err_est)
        assert res.speed_err_est == (res.speed - direct.speed) / 3.0

    @pytest.mark.parametrize("change", [dict(bc_left="dirichlet", bc_right="dirichlet"),
                                        dict(bc_axial_right="neumann")])
    def test_refinement_keeps_every_grid_field_but_resolutions(self, change):
        # a Neumann-section wave carried onto Dirichlet section ends, or onto
        # a Neumann right end, would converge to another problem's wave
        model = CubicBistable(a=0.25)
        g = build_grid(GridConfig(n_y=5, n_z=201, y_min=0.0, y_max=16.0,
                                  z_min=-25.0, z_max=12.0))
        ws = solve_wave(model, g, front_seed(g, 1.0), c_seed=0.2)
        fine = build_grid(replace(g, n_y=9, n_z=401, **change))
        with pytest.raises(WaveSolverError, match="only in resolution"):
            refine_solution(ws, fine, model)


class TestTemplate:
    def test_memo_matches_fresh_spline(self, cubic_wave):
        _, ws = cubic_wave
        tpl = ws.template
        # R = 25 runs part of the window past z_min, where the slope is zero
        for R in (0.3, 25.0, 0.3):
            fresh = Template(ws)
            np.testing.assert_array_equal(tpl.at(R), fresh.at(R))
            np.testing.assert_array_equal(template_slope(tpl, R), template_slope(fresh, R))

    def test_cell_cache_is_bounded_and_read_only(self, cubic_wave):
        _, ws = cubic_wave
        tpl = Template(ws)
        g = ws.grid
        for R in np.linspace(-3.0, 3.0, 241):
            tpl.at(R)
        # one cell is kept: the last one asked for
        k, t = cell_fraction(3.0, g.dz)
        assert tpl._cell[0] == (k, t == 0.0)
        cell = tpl.cell(-7)
        assert tpl.cell(-7) is cell
        assert cell.shape == (4,) + g.shape
        with pytest.raises(ValueError):
            cell[1, 0, 0] = 1.0
        assert tpl.cell(-7, node=True) is not cell

    def test_matches_scipy_cubic_spline(self, cubic_wave):
        # oracle: scipy's not-a-knot spline, clipped to the window, with a
        # zero derivative beyond it (a node moved onto an end to within
        # rounding counts as inside); values to 1e-14, slopes to 1e-12 of their max
        _, ws = cubic_wave
        g = ws.grid
        spline = CubicSpline(g.z, ws.profile.values, axis=1)
        dspline = spline.derivative()
        tpl = Template(ws)
        dz_scale = np.max(np.abs(dspline(g.z)))
        for R in (0.0, 1e-12, -1e-12, 0.3, -0.3, 20 * g.dz, -7 * g.dz, 25.0, -25.0):
            zq = g.z - R
            at = spline(np.clip(zq, g.z_min, g.z_max))
            dz = dspline(np.clip(zq, g.z_min, g.z_max))
            tol = 1e-12 * g.dz
            dz[:, (zq < g.z_min - tol) | (zq > g.z_max + tol)] = 0.0
            assert np.max(np.abs(tpl.at(R) - at)) <= 1e-14
            assert np.max(np.abs(template_slope(tpl, R) - dz)) <= 1e-12 * dz_scale


class TestSpectralGap:
    def test_zero_mode_and_gap(self, cubic_wave):
        model, ws = cubic_wave
        gap = spectral_gap(ws, model)
        assert abs(gap.zero_mode_value) <= 1e-6 * gap.scale
        assert gap.alignment >= 0.999
        assert gap.gap > 0.0
        # pinned from a dense-eigensolver oracle run at this resolution
        assert gap.gap == pytest.approx(0.28998, abs=5e-4)
        assert max(gap.residual_zero, gap.residual_gap) <= gap.residual_tol

    def test_rayleigh_consistency(self, cubic_wave):
        model, ws = cubic_wave
        gap = spectral_gap(ws, model)
        assert gap.residual_zero <= 1e-9 * max(1.0, abs(gap.zero_mode_value))
        assert gap.residual_gap <= 1e-8

    @pytest.mark.parametrize("case", ["1d", "dirichlet_section"])
    def test_matches_dense_eigensolver(self, case):
        # independent oracle: the two lowest eigenvalues of the symmetrized
        # operator from a dense symmetric eigensolver on a coarse grid
        import scipy.sparse as sp

        if case == "1d":
            model = CubicBistable(a=0.25)
            g = wave_grid(n_z=401)
            ws = solve_wave(model, g, front_seed(g, 1.0), 0.2)
        else:
            model = StackedBistable(a1=0.05, a2=0.5, a3=0.7, scale=20.0)
            g = build_grid(GridConfig(n_y=5, n_z=201, y_min=0.0, y_max=16.0,
                                      z_min=-25.0, z_max=12.0, bc_left="dirichlet",
                                      bc_right="dirichlet"))
            plateau = _plateau_state(model, g, 0.55)
            ws = solve_wave(model, g, front_seed(g, plateau.v), 0.15)
        free = ~g.dirichlet_mask.ravel()
        A = transport_operator(g, ws.speed)
        fu = eval_f_u(model, g, ws.profile.values).ravel()
        w = flow_weights(g, ws.measure(0.0)).ravel()
        L = (-(A + sp.diags(fu))).tocsr()[free][:, free]
        wf = w[free]
        d = 1.0 / np.sqrt(wf)
        S = (sp.diags(d) @ (sp.diags(wf) @ L) @ sp.diags(d)).toarray()
        ev = np.linalg.eigvalsh(0.5 * (S + S.T))
        gap = spectral_gap(ws, model)
        assert gap.zero_mode_value == pytest.approx(ev[0], abs=1e-10)
        assert gap.gap == pytest.approx(ev[1], rel=1e-10)
        assert max(gap.residual_zero, gap.residual_gap) <= gap.residual_tol

    def test_repeatable(self, cubic_wave):
        model, ws = cubic_wave
        assert spectral_gap(ws, model) == spectral_gap(ws, model)

    def test_gap_err_est_matches_the_finer_extrapolation(self, cubic_wave, tmp_path):
        # the gap verb's two-level estimate, from K_h and K_2h, against the
        # Richardson extrapolation from K_h and K_h/2 (second order)
        import os

        from cylwave.config import parse_config_file
        from cylwave.scenarios import run_scenario

        model, ws = cubic_wave
        config = os.path.join(os.path.dirname(__file__), "..", "configs",
                              "gap_cubic_a25.cfg")
        res = run_scenario(parse_config_file(config), str(tmp_path)).results
        k_h, err_est = res["gap"], res["gap_err_est"]
        assert k_h == spectral_gap(ws, model).gap  # the verb solved this wave
        k_half = spectral_gap(refine_solution(ws, wave_grid(n_z=2401), model), model).gap
        assert abs(k_h + err_est - (k_half + (k_half - k_h) / 3.0)) <= 0.05 * abs(err_est)

    @staticmethod
    def _no_convergence(monkeypatch):
        from scipy.sparse.linalg import ArpackNoConvergence

        def eigsh(*args, **kwargs):
            raise ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

        monkeypatch.setattr(waves.spla, "eigsh", eigsh)

    def test_early_stop_fails_the_residual_gate(self, tmp_path, monkeypatch):
        # ARPACK stopped after one restart at tol 0.1 returns a gap 7% high;
        # its Ritz vectors are still orthonormal and the zero mode still
        # aligned, so only the residual can tell
        import os

        from cylwave.config import parse_config_file
        from cylwave.scenarios import run_scenario

        eigsh, runs = waves.spla.eigsh, []

        def early(*args, **kwargs):
            runs.append(eigsh(*args, **dict(kwargs, tol=0.1, ncv=4, maxiter=1)))
            return runs[-1]

        monkeypatch.setattr(waves.spla, "eigsh", early)
        config = os.path.join(os.path.dirname(__file__), "..", "configs",
                              "gap_cubic_a25.cfg")
        manifest = run_scenario(parse_config_file(config), str(tmp_path))
        checks = {name: ok for name, ok, _ in manifest.assertions}
        assert manifest.results["gap"] > 1.05 * 0.28998
        assert checks["zero_mode_aligned"] and not checks["gap_residual_small"]
        # the former gate, |v_gap . v_zero| <= 1e-10, passes on this run
        X = runs[0][1] / np.linalg.norm(runs[0][1], axis=0)
        assert abs(X[:, 0] @ X[:, 1]) <= 1e-10

    def test_no_convergence_is_a_solver_error(self, cubic_wave, monkeypatch):
        model, ws = cubic_wave
        self._no_convergence(monkeypatch)
        with pytest.raises(WaveSolverError, match="No convergence"):
            spectral_gap(ws, model)

    def test_no_convergence_fails_the_gap_verb(self, tmp_path, capsys, monkeypatch):
        import os

        from cylwave.cli import main
        from cylwave.scenarios import read_manifest

        self._no_convergence(monkeypatch)
        out = tmp_path / "out"
        config = os.path.join(os.path.dirname(__file__), "..", "configs",
                              "gap_cubic_a25.cfg")
        assert main(["gap", "--config", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("scenario failed: WaveSolverError: ")
        assert read_manifest(out / "manifest.txt")["run"]["passed"] == "false"


class TestTranslationProfile:
    def test_distance_vanishes_at_origin(self, cubic_wave):
        _, ws = cubic_wave
        rep = translation_profile(ws)
        assert rep.distances[np.nonzero(rep.radii == 0.0)[0][0]] == 0.0

    def test_small_shift_slope_matches_dz_norm(self, cubic_wave):
        # symmetrized +/-R ratio kills the first correction term
        _, ws = cubic_wave
        rep = translation_profile(ws, radii=np.array([-0.05, 0.0, 0.05]))
        sym = 0.5 * (rep.distances[0] + rep.distances[2]) / 0.05
        assert sym == pytest.approx(rep.dz_norm, rel=5e-3)

    def test_two_sided_linear_band(self, cubic_wave):
        _, ws = cubic_wave
        rep = translation_profile(ws)
        assert 0.0 < rep.ratio_lower <= rep.ratio_upper
        assert rep.ratio_upper < 10.0 * rep.ratio_lower

    def test_monotone_in_shift_magnitude(self, cubic_wave):
        _, ws = cubic_wave
        rep = translation_profile(ws)
        assert rep.monotone_in_abs_R
        assert rep.min_distance_outside >= rep.ratio_lower * 1.0 * (1 - 1e-9)


    @pytest.mark.parametrize("two_d", [False, True])
    def test_distances_are_the_per_radius_norms(self, cubic_wave, two_d):
        _, ws = cubic_wave
        if two_d:
            g = build_grid(GridConfig(n_y=5, n_z=201, y_min=0.0, y_max=16.0,
                                      z_min=-25.0, z_max=12.0))
            ws = solve_wave(CubicBistable(a=0.25), g, front_seed(g, 1.0), c_seed=0.2)
        rep = translation_profile(ws)
        m = ws.measure(z_ref=0.0)
        want = [weighted_norm_l2(Field(ws.grid, translate(ws.profile, float(r)).values
                                       - ws.profile.values), m) for r in rep.radii]
        # and the sum as a whole-array pass over each difference
        w = quadrature_weights(ws.grid, m)
        sums = [math.sqrt((w * (translate(ws.profile, float(r)).values
                                - ws.profile.values) ** 2).sum()) for r in rep.radii]
        assert rep.radii.size == 45
        assert rep.distances.tolist() == want == sums

    def test_radius_past_half_the_window_refused(self, cubic_wave):
        _, ws = cubic_wave
        with pytest.raises(ValueError, match="translation -30 exceeds half"):
            translation_profile(ws, radii=np.array([0.5, -30.0]))


class TestSecondarySpeed:
    def test_neumann_cubic_not_applicable(self, cubic_wave):
        model, ws = cubic_wave
        cp = find_critical_point(model, ws.grid,
                                 CrossSectionField(ws.grid, np.array([0.9])))
        res = secondary_speed(model, ws.grid, cp)
        assert not res.applicable
        assert res.note == "not applicable: no room above the plateau"

    def test_shifted_functional_vanishes_at_zero(self):
        from cylwave.evolve import weighted_energy

        g = wave_grid(n_z=401, z=(-20.0, 20.0))
        sm = ShiftedModel(base=CubicBistable(0.25), v_values=(1.0,), y_nodes=(g.y[0],))
        val = weighted_energy(Field(g, np.zeros(g.shape)), sm, WeightedMeasure(0.3))
        assert val == 0.0

    def test_stacked_front_hierarchy(self):
        # two-step nonlinearity: the front invading the intermediate plateau
        # from above is strictly slower than the primary front
        model = StackedBistable(a1=0.05, a2=0.5, a3=0.7)
        g = build_grid(GridConfig(n_y=1, n_z=1001, z_min=-35.0, z_max=15.0))
        v = find_critical_point(model, g, CrossSectionField(g, np.array([0.55])))
        assert v.v.values[0] == pytest.approx(0.5, abs=1e-10)
        ws = solve_wave(model, g, front_seed(g, v.v), c_seed=0.1)
        res = secondary_speed(model, g, v, c_seed=0.03)
        assert res.applicable
        assert res.speed < ws.speed
        assert np.max(res.upper_state.values) == pytest.approx(0.5, abs=1e-8)
        # regression values from this configuration's oracle runs
        assert ws.speed == pytest.approx(0.14633, abs=2e-4)
        assert res.speed == pytest.approx(0.07922, abs=2e-4)
        # both fronts come back centred
        assert abs(waves._mid_level(g, ws.profile.values)) < 1e-10
        assert abs(waves._mid_level(g, res.wave.values)) < 1e-10

    def test_far_off_seed_is_not_applicable(self, monkeypatch):
        # the secondary wave's seed placed as far off as in
        # test_seed_beyond_half_window_raises_basin_error: the seed is outside
        # the basin, and the solve's error reaches the caller, not a waiver
        model = StackedBistable(a1=0.05, a2=0.5, a3=0.7)
        g = wave_grid(n_z=601)
        v = find_critical_point(model, g, CrossSectionField(g, np.array([0.55])))
        seed = waves.front_seed
        monkeypatch.setattr(waves, "front_seed",
                            lambda grid, plateau: seed(grid, plateau, offset=-35.0))
        with pytest.raises(SeedBasinError, match="half the window length 30"):
            secondary_speed(model, g, v, c_seed=0.03)


class TestHeterogeneous2D:
    def test_wave_on_cylinder(self, monkeypatch):
        g = build_grid(GridConfig(n_y=17, n_z=451, y_min=0.0, y_max=1.0,
                                  z_min=-30.0, z_max=15.0))
        model = HeterogeneousCubic(a0=0.25, a1=0.1)
        cp = find_critical_point(model, g, CrossSectionField(g, np.full(17, 0.9)))
        assembled = []

        def spy(*args):
            assembled.append(args)
            return transport_operator(*args)

        # residuals are matrix-free: the operator is assembled only to be factored
        monkeypatch.setattr(waves, "transport_operator", spy)
        ws = solve_wave(model, g, front_seed(g, cp.v), c_seed=0.2)
        assert len(assembled) == ws.factorizations
        assert ws.monotone
        assert ws.residual <= 1e-8
        # speed sits inside the range of the frozen-coefficient extremes
        lo = CubicBistable(0.35).exact_speed()
        hi = CubicBistable(0.15).exact_speed()
        assert lo < ws.speed < hi
        gap = spectral_gap(ws, model)
        assert gap.gap > 0.0 and gap.alignment >= 0.999
        assert ws.factorizations == 3
        assert ws.continuation_steps >= 2


class TestNewtonPolish:
    def test_best_iterate_at_the_roundoff_floor(self, cubic_wave, monkeypatch):
        # NEWTON_TOL = 1e-14 lies below the ~2e-13 rounding floor of sup|G| on this
        # grid: the polish must stop there with the best iterate it saw
        # instead of wandering on to max_iter (the phase stays at the 1e-16
        # rounding level, so sup|G| is the merit)
        model, ws = cubic_wave
        g = ws.grid
        true_residual = waves._wave_residual
        seen = []

        def spy(*args):
            r = true_residual(*args)
            seen.append(float(np.max(np.abs(r))))
            return r

        monkeypatch.setattr(waves, "_wave_residual", spy)
        monkeypatch.setattr(waves, "NEWTON_TOL", 1e-14)
        u, c, iterations, _ = waves._newton_polish(model, g, ws.profile.values, ws.speed)
        merit = float(np.max(np.abs(true_residual(model, g, u, c))))
        assert merit == min(seen)
        assert iterations <= 10 and len(seen) <= 100

    def test_translated_wave_is_recentred(self):
        # the phase pins the mid-level: a polish from the wave moved by 6
        # re-centres it
        g = build_grid(GridConfig(n_y=17, n_z=451, y_min=0.0, y_max=1.0,
                                  z_min=-30.0, z_max=15.0))
        model = HeterogeneousCubic(a0=0.25, a1=0.1)
        cp = find_critical_point(model, g, CrossSectionField(g, np.full(17, 0.9)))
        ws = solve_wave(model, g, front_seed(g, cp.v), c_seed=0.2)
        u, c, _, _ = waves._newton_polish(model, g, translate(ws.profile, 6.0).values,
                                          ws.speed)
        assert c == pytest.approx(ws.speed, rel=1e-10)
        assert np.max(np.abs(u - ws.profile.values)) <= 1e-10

    def test_continuation_refactors_within_one_call(self):
        # the stacked config's primary wave on its 33x186 half grid: the
        # chord from the seed stops quartering the merit on the way, so one
        # continuation factors its block again (3 times over 8 steps), and
        # lands on the speed solve_wave's half-grid level finds
        g = build_grid(GridConfig(n_y=65, n_z=371, y_min=0.0, y_max=16.0,
                                  z_min=-25.0, z_max=12.0, bc_left="dirichlet",
                                  bc_right="dirichlet"))
        model = StackedBistable(a1=0.05, a2=0.5, a3=0.7, scale=20.0)
        seed = front_seed(g, _plateau_state(model, g, 0.55).v)
        coarse = half_grid(g)
        c, _, steps, _, factorizations = waves.freeze_frame(
            model, coarse, Field(coarse, seed.values[::2, ::2]), 0.15)
        assert (coarse.n_y, coarse.n_z) == (33, 186)
        assert factorizations >= 2 and steps > factorizations
        assert c == solve_wave(model, g, seed, 0.15).coarse.speed

    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    def test_speed_derivative_from_the_axial_bands(self, bc):
        # dG/dc differences the axial product alone; the full transport's
        # difference adds the c-free section product A_y u to both terms.
        # With a = A_z(c +- hc) u and b = A_y u, each rounded sum is off by at
        # most eps/2 |a + b|, and each subtraction by eps/2 of its result,
        # so the two quotients differ by at most
        # eps/2 (|a+ + b| + |a- + b| + 2 |a+ - a-|) / (2 hc), plus the
        # quotients' own rounding
        g = build_grid(GridConfig(n_y=9, n_z=65, y_max=3.0, z_min=-6.0, z_max=4.0,
                                  bc_left=bc, bc_right=bc))
        u = np.random.default_rng(5).uniform(-1.0, 1.0, g.shape)
        c = 0.37
        hc = 1e-7 * (1.0 + c)
        Gc = waves._speed_derivative(g, u, c, hc)
        assert not Gc[g.dirichlet_mask].any()
        full = (_apply_transport(g, u, c + hc) - _apply_transport(g, u, c - hc)) / (2 * hc)
        a_plus, a_minus = _apply_axial(g, u, c + hc), _apply_axial(g, u, c - hc)
        b = _apply_transport(g, u, 0.0) - _apply_axial(g, u, 0.0)
        eps = np.finfo(float).eps
        bound = (0.5 * eps * (np.abs(a_plus + b) + np.abs(a_minus + b)
                              + 2.0 * np.abs(a_plus - a_minus)) / (2 * hc)
                 + 2.0 * eps * np.abs(full))
        free = ~g.dirichlet_mask
        assert np.all(np.abs(Gc - full)[free] <= bound[free])
        # the pinned nodes of the full difference are zero as well
        assert not full[g.dirichlet_mask].any()

    @pytest.mark.parametrize("c_seed", [0.1485, 0.149625, 0.15, 0.1515])
    def test_stacked_newton_path(self, monkeypatch, c_seed):
        # (steps, factorizations) of every Newton solve of the stacked config's
        # two waves, each on its 33x186 half grid and then on the 65x371 grid,
        # the same for every seed speed within 1% of the shipped 0.15
        g = build_grid(GridConfig(n_y=65, n_z=371, y_min=0.0, y_max=16.0,
                                  z_min=-25.0, z_max=12.0, bc_left="dirichlet",
                                  bc_right="dirichlet"))
        model = StackedBistable(a1=0.05, a2=0.5, a3=0.7, scale=20.0)
        plateau = _plateau_state(model, g, 0.55)
        counts, polish = [], waves._newton_polish

        def spy(model, grid, *args, **kwargs):
            values, c, iterations, factorizations = polish(model, grid, *args, **kwargs)
            counts.append((grid.shape, iterations, factorizations))
            return values, c, iterations, factorizations

        monkeypatch.setattr(waves, "_newton_polish", spy)
        solve_wave(model, g, front_seed(g, plateau.v), c_seed)
        res = secondary_speed(model, g, plateau, c_seed=c_seed)
        assert res.applicable
        assert counts == [((33, 186), 8, 3), ((65, 371), 4, 1),
                          ((33, 186), 9, 3), ((65, 371), 6, 1)]
        # the secondary wave counts both of its levels, as WaveSolution does
        (_, steps, coarse_f), (_, iterations, fine_f) = counts[2:]
        assert (res.continuation_steps, res.newton_iterations, res.factorizations) == (
            steps, iterations, coarse_f + fine_f)

    def test_stacked_config_speeds_unchanged(self, tmp_path):
        # values of the shipped stacked config with one factorization per
        # Newton iteration; the chord polish stops within NEWTON_TOL of them
        import os

        from cylwave.config import parse_config_file
        from cylwave.scenarios import read_manifest, run_scenario

        cfg = os.path.join(os.path.dirname(__file__), "..", "configs",
                           "secondary_stacked_dirichlet.cfg")
        assert run_scenario(parse_config_file(cfg), str(tmp_path)).passed()
        results = read_manifest(tmp_path / "manifest.txt")["results"]
        assert float(results["speed"]) == pytest.approx(0.66245342726189937, rel=1e-9)
        assert float(results["secondary_speed"]) == pytest.approx(
            0.079826484056131686, rel=1e-9)


class TestSerialization:
    def test_round_trip_bit_identical(self, cubic_wave, tmp_path):
        _, ws = cubic_wave
        path = tmp_path / "wave.txt"
        save_solution(ws, path)
        back = load_solution(path)
        assert back.speed == ws.speed
        assert back.normalization_shift == ws.normalization_shift
        assert np.array_equal(back.profile.values, ws.profile.values)
        assert np.array_equal(back.plateau.values, ws.plateau.values)
        assert back.grid == ws.grid
        assert back.monotone == ws.monotone

    def test_round_trip_2d_dirichlet_section(self, tmp_path):
        g = build_grid(GridConfig(n_y=5, n_z=40, y_min=-0.3, y_max=2.7, z_min=-12.5,
                                  z_max=7.25, bc_left="dirichlet", bc_right="dirichlet",
                                  bc_axial_right="neumann"))
        plateau = CrossSectionField(g, np.sin(np.pi * (g.y - g.y_min) / 3.0))
        profile = front_seed(g, plateau, steepness=0.7)
        ws = waves.WaveSolution(grid=g, speed=0.3, profile=profile,
                                profile_dz=np.gradient(profile.values, g.dz, axis=1),
                                residual=1e-12, normalization_shift=-0.1,
                                plateau=plateau, monotone=True)
        path = tmp_path / "wave.txt"
        save_solution(ws, path)
        header = path.read_text().splitlines()[:15]
        assert header == [
            "# cylwave wave solution v1",
            "speed = 0.29999999999999999",
            "residual = 9.9999999999999998e-13",
            "normalization_shift = -0.10000000000000001",
            "monotone = true",
            "n_y = 5",
            "n_z = 40",
            "y_min = -0.29999999999999999",
            "y_max = 2.7000000000000002",
            "z_min = -12.5",
            "z_max = 7.25",
            "bc_left = dirichlet",
            "bc_right = dirichlet",
            "bc_axial_left = neumann",
            "bc_axial_right = neumann",
        ]
        back = load_solution(path)
        assert back.grid == g
        assert (back.speed, back.residual, back.normalization_shift) == (0.3, 1e-12, -0.1)
        assert np.array_equal(back.profile.values, profile.values)
        assert np.array_equal(back.plateau.values, plateau.values)
        assert back.profile.values[[0, -1]].max() == 0.0
        assert back.profile.values[1:-1, -1].min() > 0.0  # the axial end is free
