import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from cylwave.evolve import flow_weights
from cylwave.grids import (CrossSectionField, Field, GridConfig, build_grid,
                           transport_operator)
from cylwave.reactions import (CubicBistable, HeterogeneousCubic, ShiftedModel,
                               StackedBistable, eval_f_u)
from cylwave.sections import find_critical_point
from cylwave import waves
from cylwave.waves import (SeedBasinError, Template, front_position, front_seed,
                           load_solution, refine_solution, save_solution,
                           secondary_speed, solve_wave, spectral_gap,
                           translation_profile)
from cylwave.weighted import WeightedMeasure, translate, weighted_norm_l2


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

    def test_one_factorization(self, cubic_wave):
        # 1D shares the chord polish: the first factorization serves the
        # polish and its re-polishes
        _, ws = cubic_wave
        assert ws.factorizations == 1

    def test_centering_that_never_converges_raises(self, monkeypatch):
        # a mid-level that no translation moves must not be returned as centred
        g = wave_grid(n_z=401, z=(-20.0, 20.0))
        monkeypatch.setattr(waves, "_mid_level_position", lambda grid, values: 0.05)
        with pytest.raises(waves.WaveSolverError, match="mid-level"):
            solve_wave(CubicBistable(a=0.25), g, front_seed(g, 1.0), c_seed=0.2)

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

    def test_seed_independence(self, cubic_wave):
        model, ws = cubic_wave
        g = ws.grid
        ws2 = solve_wave(model, g, front_seed(g, 1.0, offset=-3.0, steepness=0.6),
                         c_seed=0.45)
        assert abs(ws2.speed - ws.speed) < 1e-6
        assert np.max(np.abs(ws2.profile.values - ws.profile.values)) < 1e-6

    def test_speed_independent_of_time_step(self, cubic_wave):
        # the step size steers only the freezing phase; Newton owns the result
        model, ws = cubic_wave
        g = ws.grid
        ws2 = solve_wave(model, g, front_seed(g, 1.0), c_seed=0.2, dt=0.25)
        assert ws2.speed == pytest.approx(ws.speed, abs=1e-9)

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
        # a narrow low bump dies; there is no front to freeze
        vals = 0.3 * np.exp(-((g.z) / 0.5) ** 2)
        with pytest.raises(SeedBasinError):
            solve_wave(model, g, Field(g, vals[None, :]), c_seed=0.1)

    def test_zero_mode_defect_shrinks_second_order(self, cubic_wave):
        model, base = cubic_wave

        def defect(ws):
            g = ws.grid
            A = transport_operator(g, ws.speed)
            fu = eval_f_u(model, ws.profile).values.ravel()
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


class TestTemplate:
    def test_memo_matches_fresh_spline(self, cubic_wave):
        _, ws = cubic_wave
        tpl = ws.template
        # R = 25 runs part of the window past z_min, where dz_at is zero
        for R in (0.3, 25.0, 0.3):
            fresh = Template(ws)
            np.testing.assert_array_equal(tpl.at(R), fresh.at(R))
            np.testing.assert_array_equal(tpl.dz_at(R), fresh.dz_at(R))
        assert tpl.at(0.3) is tpl.at(0.3)
        with pytest.raises(ValueError):
            tpl.at(0.3)[0, 0] = 1.0
        with pytest.raises(ValueError):
            tpl.dz_at(0.3)[0, 0] = 1.0

    def test_matches_scipy_cubic_spline(self, cubic_wave):
        # oracle: scipy's not-a-knot spline, clipped to the window, with a
        # zero derivative beyond it (a node moved onto an end to within
        # rounding counts as inside); values to 1e-14, dz_at to 1e-12 of its max
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
            assert np.max(np.abs(tpl.dz_at(R) - dz)) <= 1e-12 * dz_scale


class TestSpectralGap:
    def test_zero_mode_and_gap(self, cubic_wave):
        model, ws = cubic_wave
        gap = spectral_gap(ws, model)
        assert abs(gap.zero_mode_value) <= 1e-6 * gap.scale
        assert gap.alignment >= 0.999
        assert gap.gap_positive
        # pinned from a dense-eigensolver oracle run at this resolution
        assert gap.gap == pytest.approx(0.28998, abs=5e-4)
        assert gap.constraint_residual <= 1e-10

    def test_rayleigh_consistency(self, cubic_wave):
        model, ws = cubic_wave
        gap = spectral_gap(ws, model)
        assert gap.residual_zero <= 1e-9 * max(1.0, abs(gap.zero_mode_value))
        assert gap.residual_gap <= 1e-8

    def test_matches_dense_eigensolver(self):
        # independent oracle: dense symmetric eigensolver on a coarse grid
        import scipy.sparse as sp

        model = CubicBistable(a=0.25)
        g = wave_grid(n_z=401)
        ws = solve_wave(model, g, front_seed(g, 1.0), 0.2)
        free = ~g.dirichlet_mask.ravel()
        A = transport_operator(g, ws.speed)
        fu = eval_f_u(model, ws.profile).values.ravel()
        w = flow_weights(g, ws.measure(0.0)).ravel()
        L = (-(A + sp.diags(fu))).tocsr()[free][:, free]
        wf = w[free]
        d = 1.0 / np.sqrt(wf)
        S = (sp.diags(d) @ (sp.diags(wf) @ L) @ sp.diags(d)).toarray()
        ev = np.linalg.eigvalsh(0.5 * (S + S.T))
        gap = spectral_gap(ws, model)
        assert gap.zero_mode_value == pytest.approx(ev[0], abs=1e-8)
        assert gap.gap == pytest.approx(ev[1], abs=1e-6)


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


class TestSecondarySpeed:
    def test_neumann_cubic_not_applicable(self, cubic_wave):
        model, ws = cubic_wave
        cp = find_critical_point(model, ws.grid,
                                 CrossSectionField(ws.grid, np.array([0.9])))
        res = secondary_speed(model, ws.grid, cp)
        assert not res.applicable
        assert "not applicable" in res.note

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
        assert abs(waves._mid_level_position(g, ws.profile.values)) < 1e-10
        assert abs(waves._mid_level_position(g, res.wave.values)) < 1e-10


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
        assert gap.gap_positive and gap.alignment >= 0.999
        # the first factorization serves the whole polish and its re-polishes
        assert ws.factorizations == 1
        assert ws.newton_iterations >= 2


class TestNewtonPolish:
    def test_best_iterate_at_the_roundoff_floor(self, cubic_wave, monkeypatch):
        # tol = 1e-14 lies below the ~2e-13 rounding floor of sup|G| on this
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
        work = waves._NewtonWork()
        u, c = waves._newton_polish(model, g, ws.profile.values, ws.speed,
                                    ws.profile.values, tol=1e-14, work=work)
        merit = float(np.max(np.abs(true_residual(model, g, u, c))))
        assert merit == min(seen)
        assert work.iterations <= 10 and len(seen) <= 100

    def test_stale_factorization_is_replaced(self):
        # a factorization kept from a wave 6 units away makes chord steps
        # that do not halve the merit; the polish must re-factor and land
        # where a fresh polish from the same start lands
        g = build_grid(GridConfig(n_y=17, n_z=451, y_min=0.0, y_max=1.0,
                                  z_min=-30.0, z_max=15.0))
        model = HeterogeneousCubic(a0=0.25, a1=0.1)
        cp = find_critical_point(model, g, CrossSectionField(g, np.full(17, 0.9)))
        ws = solve_wave(model, g, front_seed(g, cp.v), c_seed=0.2)
        far = translate(ws.profile, 6.0).values
        stale = waves._NewtonWork()
        waves._newton_polish(model, g, far, ws.speed, far, work=stale)
        assert stale.factorizations == 1
        start, c0 = translate(ws.profile, 0.3).values, 1.02 * ws.speed
        u_clean, c_clean = waves._newton_polish(model, g, start, c0, start)
        u, c = waves._newton_polish(model, g, start, c0, start, work=stale)
        assert stale.factorizations >= 2
        assert c == pytest.approx(c_clean, rel=1e-10)
        assert np.max(np.abs(u - u_clean)) <= 1e-10

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


class TestFrontPosition:
    def test_mid_level_crossing(self):
        g = wave_grid(n_z=401, z=(-20.0, 20.0))
        vals = 0.5 * (1 - np.tanh(g.z - 3.0))
        pos = front_position(Field(g, vals[None, :]))
        assert pos == pytest.approx(3.0, abs=0.05)

    def test_vanished_state_raises(self):
        g = wave_grid(n_z=401, z=(-20.0, 20.0))
        with pytest.raises(SeedBasinError):
            front_position(Field(g, np.zeros(g.shape)))


class TestRewindowing:
    def test_shift_cells_fills_plateau_and_zero(self):
        from cylwave.waves import _shift_cells

        vals = np.vstack([np.linspace(1.0, 0.0, 11)])
        left = _shift_cells(vals, 2)   # data moves left, zero fill on the right
        assert np.array_equal(left[0, :9], vals[0, 2:])
        assert np.all(left[0, 9:] == 0.0)
        right = _shift_cells(vals, -2)  # plateau fill on the left
        assert np.array_equal(right[0, 2:], vals[0, :9])
        assert np.all(right[0, :2] == vals[0, 0])

    def test_rewindow_recentres_and_counts_cells(self):
        from cylwave.evolve import EvolutionState
        from cylwave.waves import _rewindow, front_position

        g = wave_grid(n_z=401, z=(-20.0, 20.0))
        vals = 0.5 * (1 - np.tanh(g.z - 15.0))  # front well inside the margin band
        state = EvolutionState(0.0, Field(g, vals[None, :]), 0.3)
        pos = front_position(state.u)
        out, shifted = _rewindow(state, pos)
        assert shifted
        assert out.window_shift > 0
        assert abs(front_position(out.u)) < 2.0  # recentred
        inside, unchanged = _rewindow(out, front_position(out.u))
        assert not unchanged

    def test_freeze_rewindows_runaway_front(self):
        # a sluggish speed adaptation lets the front run into the margin; the
        # solver must re-center it and still find the right speed
        from cylwave.waves import freeze_frame

        model = CubicBistable(a=0.1)
        g = wave_grid(n_z=601, z=(-20.0, 20.0))
        seed = front_seed(g, 1.0, offset=8.0)
        c, frozen, _ = freeze_frame(model, g, seed, c_seed=0.01, gain=0.02)
        assert c == pytest.approx(model.exact_speed(), abs=5e-3)
        assert front_position(Field(g, frozen.values)) < g.z_max - 9.0
