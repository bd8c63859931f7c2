import math

import numpy as np
import pytest

from conftest import shifted_slope, template_slope

from cylwave import evolve, tracking, weighted
from cylwave.evolve import EvolutionError, Stepper, weighted_energy
from cylwave.grids import (CrossSectionField, Field, GridConfig, axial_derivative,
                           build_grid)
from cylwave.reactions import CubicBistable
from cylwave.sections import find_critical_point
from cylwave.tracking import (CSV_COLUMNS, BracketError, CellSums, ConvexityError,
                              FitError, FrontState, FrontTrace, TrackingLossError, _columns,
                              default_fit_window, fit_decay, fit_position_tail, fit_rate,
                              locate_front, mismatch, mismatch_derivatives, track,
                              trace_to_csv, z_delta)
from cylwave.waves import front_seed, solve_wave
from cylwave.weighted import (cell_fraction, offset_resolution,
                              quadrature_weights, shifted_hermite, spline_slopes,
                              translate, weighted_norm_h2, weighted_norm_l2)


@pytest.fixture(scope="module")
def wave():
    grid = build_grid(GridConfig(n_y=1, n_z=1201, z_min=-40.0, z_max=20.0))
    model = CubicBistable(a=0.25)
    return model, solve_wave(model, grid, front_seed(grid, 1.0), c_seed=0.2)


def synthetic_trace(times, m_values, speed=0.35):
    n = len(times)
    samples = np.zeros(n, dtype=FrontTrace.FIELDS)
    samples["t"] = times
    samples["m"] = m_values
    samples["R"] = 0.0
    return FrontTrace(speed=speed, samples=samples)


class TestMismatch:
    def test_zero_at_perfect_match(self, wave):
        _, ws = wave
        assert mismatch(ws.profile, ws, 0.0) < 1e-30

    def test_translation_equivariance(self, wave):
        _, ws = wave
        shifted = translate(ws.profile, 0.3)
        assert mismatch(shifted, ws, 0.3) < 1e-12

    def test_quadratic_expansion(self, wave):
        _, ws = wave
        g = ws.grid
        eps = 1e-3
        phi = np.exp(-g.z ** 2)[None, :]
        u = Field(g, ws.profile.values + eps * phi)
        m = ws.measure(0.0)
        expect = 0.5 * eps ** 2 * weighted_norm_l2(Field(g, phi), m) ** 2
        assert mismatch(u, ws, 0.0, m=m) == pytest.approx(expect, rel=1e-12)

    def test_range_guard(self, wave):
        _, ws = wave
        with pytest.raises(ValueError):
            mismatch(ws.profile, ws, 31.0)


class TestMismatchDerivatives:
    def test_values_at_the_wave(self, wave):
        _, ws = wave
        m = ws.measure(0.0)
        h1, h2 = mismatch_derivatives(ws.profile, ws, 0.0, m=m)
        dzn = weighted_norm_l2(Field(ws.grid, ws.profile_dz), m)
        assert abs(h1) < 1e-12
        assert h2 == pytest.approx(dzn ** 2, rel=2e-3)

    def test_first_derivative_matches_finite_difference(self, wave):
        # h' is the exact R-derivative of the interpolated mismatch: the
        # centered difference converges at O(delta^2) with no floor
        _, ws = wave
        g = ws.grid
        rng = np.random.default_rng(3)
        m = ws.measure(0.0)
        worst = {0.01: 0.0, 0.005: 0.0}
        for _ in range(20):
            pert = 0.05 * rng.standard_normal(g.shape)
            pert *= np.exp(-((g.z - rng.uniform(-3, 3)) / 4) ** 2)[None, :]
            u = Field(g, np.clip(ws.profile.values + pert, 0.0, 1.0))
            R = rng.uniform(-0.5, 0.5)
            h1, _ = mismatch_derivatives(u, ws, R, m=m)
            for d in worst:
                fd = (mismatch(u, ws, R + d, m=m) - mismatch(u, ws, R - d, m=m)) / (2 * d)
                worst[d] = max(worst[d], abs(fd - h1))
        assert worst[0.01] < 5e-6
        assert worst[0.01] / max(worst[0.005], 1e-300) == pytest.approx(4.0, rel=0.4)

    def test_second_derivative_identity_defect_is_second_order(self):
        # the transported identity for h'' differs from the true second
        # derivative by an integration-by-parts defect that shrinks ~4x per
        # axial refinement
        model = CubicBistable(a=0.25)
        defects = []
        for n_z in (601, 1201):
            g = build_grid(GridConfig(n_y=1, n_z=n_z, z_min=-40.0, z_max=20.0))
            ws = solve_wave(model, g, front_seed(g, 1.0), 0.2)
            m = ws.measure(0.0)
            u = Field(g, np.clip(ws.profile.values
                                 + 0.03 * np.exp(-(g.z / 5.0) ** 2)[None, :], 0, 1))
            _, h2 = mismatch_derivatives(u, ws, 0.11, m=m)
            d = 0.02
            fd = (mismatch(u, ws, 0.11 + d, m=m) - 2 * mismatch(u, ws, 0.11, m=m)
                  + mismatch(u, ws, 0.11 - d, m=m)) / d ** 2
            defects.append(abs(fd - h2))
        assert defects[0] / defects[1] == pytest.approx(4.0, rel=0.5)

    def test_curvature_floor_near_the_wave(self, wave):
        # qualitative lower bound: h'' stays above half the squared derivative
        # norm for small deviations and translations
        _, ws = wave
        g = ws.grid
        m = ws.measure(0.0)
        dzn_sq = weighted_norm_l2(Field(g, ws.profile_dz), m) ** 2
        rng = np.random.default_rng(11)
        for eps in (0.0, 0.02, 0.05):
            for R in (-0.25, -0.1, 0.0, 0.1, 0.25):
                pert = eps * rng.standard_normal(g.shape)
                pert *= np.exp(-(g.z / 6.0) ** 2)[None, :]
                u = Field(g, np.clip(ws.profile.values + pert, 0, 1))
                _, h2 = mismatch_derivatives(u, ws, R, m=m)
                assert h2 >= 0.5 * dzn_sq


def array_derivatives(u, ws, R, m):
    """(h', h'', sum |w u d_z T_R profile|) from whole-grid arrays: the spline
    translate and its derivative by ``shifted_hermite``, summed over the grid
    rather than regrouped into per-cell dot products."""
    g = ws.grid
    y = ws.profile.values
    d = spline_slopes(y, g.dz)
    w = quadrature_weights(g, m)
    T, Tz = shifted_hermite(y, d, g.dz, R), shifted_slope(y, d, g.dz, R)
    uz = axial_derivative(u.values, g)
    h1 = float((w * (u.values - T) * Tz).sum())
    h2 = m.c * h1 + float((w * uz * Tz).sum())
    return h1, h2, float(np.abs(w * u.values * Tz).sum())


class TestCellSums:
    """The per-cell polynomial form of h, h', h'' against the array formulas."""

    def check(self, u, ws, R, m):
        h1, h2, scale = array_derivatives(u, ws, R, m)
        c1, c2 = mismatch_derivatives(u, ws, R, m=m)
        assert abs(c1 - h1) <= 1e-12 * abs(h1)
        assert abs(c2 - h2) <= 1e-12 * abs(h2)
        hval, s1, s2, floor = CellSums(u, ws, m).row(0, m.z_ref)(R)
        assert (s1, s2) == (c1, c2)
        assert hval == pytest.approx(mismatch(u, ws, R, m=m), rel=1e-12)
        # the rounding bound of the cell form is at least the old floor
        assert floor >= np.finfo(float).eps * scale * (1 - 1e-12)

    def perturbed(self, ws, rng, amplitude=0.05):
        g = ws.grid
        pert = amplitude * rng.standard_normal(g.shape)
        pert *= np.exp(-((g.z - rng.uniform(-3, 3)) / 4) ** 2)[None, :]
        return Field(g, np.clip(ws.profile.values + pert, 0.0, 1.0))

    def test_random_perturbations(self, wave):
        _, ws = wave
        rng = np.random.default_rng(21)
        for _ in range(20):
            self.check(self.perturbed(ws, rng), ws, rng.uniform(-1, 1),
                       ws.measure(rng.uniform(-0.5, 0.5)))

    def test_translation_on_a_node(self, wave):
        # t = 0: a node moved exactly onto the right end keeps the end slope
        _, ws = wave
        rng = np.random.default_rng(22)
        for R in (0.0, 7 * ws.grid.dz, -3 * ws.grid.dz):
            self.check(self.perturbed(ws, rng), ws, R, ws.measure(0.0))

    def test_nodes_past_the_window_ends(self, wave):
        # |R| = 25 of the half window 30 moves 500 nodes past one end
        _, ws = wave
        rng = np.random.default_rng(23)
        for R in (25.013, -25.013, 25.0, -25.0):
            self.check(self.perturbed(ws, rng), ws, R, ws.measure(0.0))

    def test_near_a_translate(self, wave):
        # u within 1e-6 of T_R profile at a non-node R: h cancels in the
        # cell form to an error of order eps S, h' stays within its floor,
        # and the tracker returns h summed over the grid
        _, ws = wave
        g = ws.grid
        rng = np.random.default_rng(25)
        R = 0.4321
        m = ws.measure(R)
        pert = 1e-6 * rng.standard_normal(g.shape) * np.exp(-(g.z / 4.0) ** 2)[None, :]
        u = Field(g, ws.template.at(R) + pert)
        sums = CellSums(u, ws, m)
        hval, c1, _, floor = sums.row(0, m.z_ref)(R)
        k, t = cell_fraction(R, g.dz)
        assert t != 0.0
        S = sums._sums((k, False))[0]
        eps = np.finfo(float).eps
        assert abs(hval - mismatch(u, ws, R, m=m)) <= 16 * eps * S
        assert abs(c1 - array_derivatives(u, ws, R, m)[0]) <= floor
        fs = locate_front(u, ws, 0.0)
        assert fs.deviation_sq == 2 * mismatch(u, ws, fs.position, m=fs.measure)

    def test_two_dimensional_grid(self):
        g = build_grid(GridConfig(n_y=5, n_z=301, y_min=0.0, y_max=1.0,
                                  z_min=-20.0, z_max=10.0))
        ws = solve_wave(CubicBistable(a=0.25), g, front_seed(g, 1.0), c_seed=0.2)
        rng = np.random.default_rng(24)
        for R in (0.37, -0.81, 4 * g.dz, 12.04):
            self.check(self.perturbed(ws, rng), ws, R, ws.measure(0.2))


class TestLocateFront:
    def test_recovers_exact_translation(self, wave):
        _, ws = wave
        u = translate(ws.profile, 0.3)
        fs = locate_front(u, ws, 0.0)
        assert fs.position == pytest.approx(0.3, abs=1e-6)
        assert fs.curvature > 0

    def test_equivariance(self, wave):
        _, ws = wave
        g = ws.grid
        bump = 0.02 * np.exp(-(g.z / 3.0) ** 2)[None, :]
        u = Field(g, np.clip(ws.profile.values + bump, 0, 1))
        base = locate_front(u, ws, 0.0).position
        for shift in (0.4, -0.35):
            moved = translate(Field(g, u.values), shift)
            found = locate_front(moved, ws, 0.0).position
            assert found - base == pytest.approx(shift, abs=1e-6)

    def test_orthogonality_at_optimum(self, wave):
        _, ws = wave
        g = ws.grid
        bump = 0.05 * np.exp(-((g.z - 1.0) / 2.0) ** 2)[None, :]
        u = Field(g, np.clip(ws.profile.values + bump, 0, 1))
        fs = locate_front(u, ws, 0.0)
        dzn = weighted_norm_l2(Field(g, ws.profile_dz), fs.measure)
        assert fs.ortho_residual <= 1e-8 * np.sqrt(fs.deviation_sq) * dzn

    def test_newton_matches_dense_scan(self, wave):
        _, ws = wave
        g = ws.grid
        bump = 0.04 * np.exp(-((g.z + 2.0) / 3.0) ** 2)[None, :]
        u = Field(g, np.clip(ws.profile.values + bump, 0, 1))
        fs = locate_front(u, ws, 0.0)
        m = fs.measure
        scan_R = np.linspace(fs.position - 0.2, fs.position + 0.2, 81)
        scan_h = [mismatch(u, ws, r, m=m) for r in scan_R]
        assert abs(scan_R[int(np.argmin(scan_h))] - fs.position) <= 0.01

    @pytest.mark.parametrize("R0", [-8.0, 8.0])
    def test_optimum_between_adjacent_floats(self, wave, R0):
        # T_R0 profile moved by half a float spacing of R: no float meets the
        # relative test or the floor, and Newton steps alternate between the
        # floats on either side of the optimum
        _, ws = wave
        g = ws.grid
        slope = template_slope(ws.template, R0)
        u = Field(g, ws.template.at(R0) - 0.5 * math.ulp(R0) * slope)
        for seed in (R0, 0.0):
            fs = locate_front(u, ws, seed)
            assert not fs.capped
            assert abs(fs.position - R0) <= offset_resolution(R0, g.dz)

    def test_cap_is_flagged(self, wave):
        # one Newton step (clipped to length 1) cannot reach R = 1.5
        _, ws = wave
        u = translate(ws.profile, 1.5)
        fs = locate_front(u, ws, 0.0, max_iter=1)
        assert fs.capped
        assert fs.iterations == 2
        full = locate_front(u, ws, 0.0)
        assert not full.capped
        assert full.position == pytest.approx(1.5, abs=1e-6)

    def test_passed_sums_give_the_same_state(self, wave):
        _, ws = wave
        u = Field(ws.grid, translate(ws.profile, 0.7).values
                  + 1e-3 * np.exp(-ws.grid.z ** 2)[None, :])
        plain = locate_front(u, ws, 0.0)
        given = locate_front(u, ws, 0.0, sums=CellSums(u, ws, ws.measure(0.0)))
        assert given == plain

    @pytest.mark.parametrize("level", [0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
    def test_far_state_error(self, wave, level):
        # a constant state has no front: u_z = 0, so h'' = c h' is rounding
        _, ws = wave
        u = Field(ws.grid, np.full(ws.grid.shape, level))
        with pytest.raises((ConvexityError, BracketError)):
            locate_front(u, ws, 0.0)


class TestZDelta:
    def test_sentinel_when_matching(self, wave):
        _, ws = wave
        assert z_delta(ws.profile, ws, 0.0, 0.01) == float("-inf")

    def test_locates_injected_column(self, wave):
        _, ws = wave
        g = ws.grid
        vals = ws.profile.values.copy()
        j = int(np.argmin(np.abs(g.z - 5.0)))
        vals[:, j] = np.clip(vals[:, j] + 0.1, 0, 1)
        assert z_delta(Field(g, vals), ws, 0.0, 0.05) == pytest.approx(g.z[j])

    def test_positive_delta_required(self, wave):
        _, ws = wave
        with pytest.raises(ValueError):
            z_delta(ws.profile, ws, 0.0, 0.0)


class TestTrack:
    def test_wave_itself_is_a_fixed_point(self, wave):
        model, ws = wave
        trace = track(model, ws, ws.profile.copy(), dt=0.1, horizon=2.0)
        np.testing.assert_allclose(trace.samples["R"], 0.0, atol=1e-10)
        np.testing.assert_allclose(trace.samples["m"], 0.0, atol=1e-20)

    def test_every_tracker_call_is_counted(self, wave):
        model, ws = wave
        u0 = front_seed(ws.grid, 1.0, offset=1.0, steepness=0.8)
        every = track(model, ws, u0, dt=0.1, horizon=3.0)
        iters = every.samples["tracker_iters"]
        assert iters.min() >= 1
        assert every.tracker_iters_max == iters.max()
        assert every.tracker_cap_hits == 0

    def test_translated_wave_tracks_constant_position(self, wave):
        model, ws = wave
        u0 = translate(ws.profile, 0.5)
        trace = track(model, ws, u0, dt=0.1, horizon=2.0)
        np.testing.assert_allclose(trace.samples["R"], 0.5, atol=1e-4)
        assert np.nanmax(np.abs(trace.samples["dRdt_fd"][1:])) < 2e-3

    def test_front_like_run_rate_regression(self, wave):
        # regression: decay rate of a standard front-like run, pinned from an
        # oracle run and consistent with the spectral gap (~0.29)
        model, ws = wave
        u0 = front_seed(ws.grid, 1.0, offset=2.0, steepness=1.0)
        trace = track(model, ws, u0, dt=0.05, horizon=40.0)
        sigma, quality = fit_decay(trace)
        assert quality >= 0.99
        assert sigma == pytest.approx(0.308, abs=0.02)

    def test_step_path_calls_neither_gradient_nor_polyval(self, monkeypatch):
        # on 401-node arrays NumPy's general routines cost more in call
        # overhead than in arithmetic; the step path uses its own kernels
        grid = build_grid(GridConfig(n_y=1, n_z=401, z_min=-25.0, z_max=15.0))
        model = CubicBistable(a=0.25)
        ws = solve_wave(model, grid, front_seed(grid, 1.0), c_seed=0.2)
        u0 = front_seed(grid, 1.0, offset=1.0, steepness=0.8)

        def refuse(*args, **kwargs):
            raise AssertionError("a NumPy routine was called on the step path")

        monkeypatch.setattr(np, "gradient", refuse)
        monkeypatch.setattr(np, "polyval", refuse)
        trace = track(model, ws, u0, dt=0.1, horizon=1.0)
        assert trace.samples.size == 11

    def test_quotient_matches_position_rate_at_first_order(self, wave):
        # the explicit translation-rate quotient and the finite difference of
        # the tracked position agree to O(dt)
        model, ws = wave
        g = ws.grid
        u0 = front_seed(g, 1.0, offset=1.0, steepness=0.8)
        gaps = []
        for dt in (0.1, 0.05):
            trace = track(model, ws, u0, dt=dt, horizon=6.0)
            s = trace.samples
            sel = s["t"] > 1.0
            gaps.append(np.nanmax(np.abs(s["dRdt_fd"][sel] - s["dRdt_quotient"][sel])))
        assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.5)


class TestTrack2D:
    def test_heterogeneous_cylinder_run(self):
        from cylwave.grids import CrossSectionField
        from cylwave.reactions import HeterogeneousCubic
        from cylwave.sections import find_critical_point

        g = build_grid(GridConfig(n_y=17, n_z=451, y_min=0.0, y_max=1.0,
                                  z_min=-30.0, z_max=15.0))
        model = HeterogeneousCubic(a0=0.25, a1=0.1)
        cp = find_critical_point(model, g, CrossSectionField(g, np.full(17, 0.9)))
        ws = solve_wave(model, g, front_seed(g, cp.v), c_seed=0.2)
        u0 = front_seed(g, cp.v, offset=1.0, steepness=0.8)
        trace = track(model, ws, u0, dt=0.25, horizon=30.0)
        sigma, quality = fit_decay(trace)
        assert sigma > 0 and quality >= 0.98
        m = trace.samples["m"]
        dzn = weighted_norm_l2(Field(g, ws.profile_dz), ws.measure(0.0))
        bound = 1e-8 * np.sqrt(np.maximum(m, 1e-300)) * dzn
        assert np.all(trace.samples["ortho_residual"] <= bound)


class TestTrackingErrors:
    def test_initial_template_mismatch_raises(self, wave):
        _, ws = wave
        far = Field(ws.grid, np.full(ws.grid.shape, 0.5))
        with pytest.raises((ConvexityError, BracketError)):
            track(CubicBistable(a=0.25), ws, far, dt=0.1, horizon=1.0)


class TestFits:
    def test_exact_synthetic_decay(self):
        t = np.linspace(0.0, 20.0, 201)
        trace = synthetic_trace(t, 3.0 * np.exp(-0.8 * t))
        sigma, quality = fit_decay(trace, window=(0.0, 20.0))
        assert sigma == pytest.approx(0.4, abs=1e-12)
        assert quality == pytest.approx(1.0, abs=1e-12)

    def test_noisy_synthetic_decay(self):
        rng = np.random.default_rng(5)
        t = np.linspace(0.0, 20.0, 401)
        m = 3.0 * np.exp(-0.8 * t) * (1.0 + 0.01 * rng.standard_normal(t.size))
        sigma, quality = fit_decay(synthetic_trace(t, m), window=(0.0, 20.0))
        assert sigma == pytest.approx(0.4, rel=0.05)
        assert quality > 0.99

    def test_nonpositive_values_rejected(self):
        t = np.linspace(0.0, 5.0, 60)
        m = np.exp(-t)
        m[30] = 0.0
        with pytest.raises(FitError):
            fit_decay(synthetic_trace(t, m), window=(0.0, 5.0))

    def test_too_few_samples_rejected(self):
        t = np.linspace(0.0, 5.0, 10)
        with pytest.raises(FitError):
            fit_decay(synthetic_trace(t, np.exp(-t)), window=(0.0, 5.0))

    def test_default_window_excludes_transient_and_floor(self):
        t = np.linspace(0.0, 40.0, 801)
        m = np.exp(-t) + 1e-9
        trace = synthetic_trace(t, m)
        lo, hi = default_fit_window(trace)
        assert lo > 0.0
        assert hi < 40.0
        assert m[np.searchsorted(t, hi)] >= 9.9e-8  # 100x the floor

    def test_position_tail_fits_against_the_limit(self):
        # R tends to 2 at the rate sigma of m; the last row is still 1.7e-4 above it
        t = np.linspace(0.0, 20.0, 401)
        R = 2.0 + 0.5 * np.exp(-0.4 * t)
        # m as stored, referenced at each row's own R: rebased, exp(-0.8 t)
        trace = synthetic_trace(t, np.exp(-0.8 * t - 0.35 * (R - R[0])))
        trace.samples["R"] = R
        trace.samples["dRdt_fd"] = -0.2 * np.exp(-0.4 * t)
        with pytest.raises(FitError, match="fit_decay"):
            fit_position_tail(trace)
        fit_decay(trace, window=(0.0, 20.0))
        assert trace.R_infinity == pytest.approx(2.0, abs=1e-14)
        rate, quality = fit_position_tail(trace)
        assert rate == pytest.approx(0.4, rel=1e-9)
        assert quality == pytest.approx(1.0, abs=1e-12)

    def test_fit_rate_r2(self):
        t = np.linspace(0, 10, 50)
        slope, _, r2 = fit_rate(t, np.exp(-0.3 * t))
        assert slope == pytest.approx(-0.3, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)


class TestCsv:
    def test_columns_and_round_trip(self, wave, tmp_path):
        model, ws = wave
        u0 = front_seed(ws.grid, 1.0, offset=0.5)
        trace = track(model, ws, u0, dt=0.1, horizon=1.0)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,R,m,phi,dRdt_fd,dRdt_quotient,h2c_norm,z_delta"
        assert len(lines) == trace.samples.size + 1
        back = np.genfromtxt(path, delimiter=",", names=True)
        np.testing.assert_allclose(back["m"], trace.samples["m"], rtol=0, atol=0)

    def test_bytes_match_per_value_formatting(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CYLWAVE_PRECISION", raising=False)
        rng = np.random.default_rng(51)
        trace = synthetic_trace(np.linspace(0.0, 0.4, 5), np.exp(-rng.uniform(0, 30, 5)))
        for name in ("R", "phi", "dRdt_fd", "dRdt_quotient", "h2c_norm", "z_delta"):
            trace.samples[name] = rng.standard_normal(5) * 10.0 ** rng.integers(-20, 20, 5)
        trace.samples["dRdt_fd"][0] = np.nan
        trace.samples["z_delta"][1] = -np.inf
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        want = ",".join(CSV_COLUMNS) + "\n" + "".join(
            ",".join("%.17g" % float(row[name]) for name in CSV_COLUMNS) + "\n"
            for row in trace.samples)
        assert path.read_bytes() == want.encode()


# --- the block analysis against the row-by-row references ------------------

MODEL = CubicBistable(a=0.25)
COLUMNS = ("m", "phi", "dRdt_fd", "dRdt_quotient", "h2c_norm")


@pytest.fixture(scope="module", params=["1d", "neumann_5x301", "dirichlet_section"])
def section_wave(request):
    """Waves on a 1D grid, a 5 x 301 Neumann cylinder and a Dirichlet section."""
    if request.param == "1d":
        g = build_grid(GridConfig(n_y=1, n_z=401, z_min=-25.0, z_max=15.0))
        plateau = 1.0
    elif request.param == "neumann_5x301":
        g = build_grid(GridConfig(n_y=5, n_z=301, z_min=-20.0, z_max=10.0))
        plateau = 1.0
    else:
        g = build_grid(GridConfig(n_y=9, n_z=301, y_max=16.0, z_min=-20.0, z_max=10.0,
                                  bc_left="dirichlet", bc_right="dirichlet"))
        plateau = find_critical_point(MODEL, g, CrossSectionField(g, np.full(9, 0.9))).v
    return solve_wave(MODEL, g, front_seed(g, plateau), c_seed=0.2)


def perturbed_states(ws, rng, n):
    """n perturbed translates of the profile, stacked, zero at pinned nodes."""
    g = ws.grid
    out = np.empty((n,) + g.shape)
    for i in range(n):
        pert = 0.05 * rng.standard_normal(g.shape)
        pert *= np.exp(-((g.z - rng.uniform(-3, 3)) / 4) ** 2)[None, :]
        out[i] = np.clip(ws.template.at(rng.uniform(-0.6, 0.6)) + pert, 0.0, 1.0)
    out[:, g.dirichlet_mask] = 0.0
    return out


def assert_close_to_scale(got, want, rtol=1e-13):
    """Equal within rtol of the largest |want|, column by column."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    scale = np.abs(want).max(axis=0)
    assert np.all(np.abs(got - want) <= rtol * scale), np.abs(got - want).max(axis=0) / scale


@pytest.fixture(scope="module")
def small_wave():
    grid = build_grid(GridConfig(n_y=1, n_z=401, z_min=-25.0, z_max=15.0))
    return solve_wave(MODEL, grid, front_seed(grid, 1.0), c_seed=0.2)


class TestBlockSums:
    def test_rows_match_one_state_sums(self, section_wave):
        ws = section_wave
        g = ws.grid
        rng = np.random.default_rng(31)
        u = perturbed_states(ws, rng, 6)
        uz = axial_derivative(u, g)
        block = CellSums(u, ws, ws.measure(0.2), uz)
        got, want = [], []
        for i in range(u.shape[0]):
            z_ref = rng.uniform(-0.5, 0.5)
            alone = CellSums(Field(g, u[i]), ws, ws.measure(z_ref), uz[i]).row(0, z_ref)
            row = block.row(i, z_ref)
            assert row.dz_norm == pytest.approx(
                weighted_norm_l2(Field(g, ws.profile_dz), ws.measure(z_ref)), rel=1e-14)
            for R in (rng.uniform(-1, 1), 5 * g.dz, 0.0):
                got.append(row(R))
                want.append(alone(R))
        assert_close_to_scale(got, want)

    def test_u_z_defaults_to_the_axial_derivative(self, section_wave):
        ws = section_wave
        g = ws.grid
        u = perturbed_states(ws, np.random.default_rng(34), 3)
        m = ws.measure(0.1)
        for values, state in ((u, u), (u[0], Field(g, u[0]))):
            given = CellSums(state, ws, m, axial_derivative(values, g))
            plain = CellSums(state, ws, m)
            assert np.array_equal(plain.wuz, given.wuz)
            for i in range(len(given.u)):
                for R in (0.37, -0.81, 4 * g.dz):
                    assert plain.row(i, -0.2)(R) == given.row(i, -0.2)(R)

    def test_one_row_block_is_scaled_by_exactly_one(self, wave):
        _, ws = wave
        g = ws.grid
        u = Field(g, perturbed_states(ws, np.random.default_rng(32), 1)[0])
        m = ws.measure(0.37)
        row = CellSums(u, ws, m).row(0, 0.37)
        assert row.scale == 1.0
        for R in (0.123, -0.77, 3 * g.dz):
            assert row(R)[1:3] == mismatch_derivatives(u, ws, R, m=m)

    def test_locate_front_on_a_block_row(self, section_wave):
        ws = section_wave
        g = ws.grid
        u = perturbed_states(ws, np.random.default_rng(33), 4)
        block = CellSums(u, ws, ws.measure(-0.1), axial_derivative(u, g))
        for i in range(u.shape[0]):
            alone = locate_front(Field(g, u[i]), ws, 0.05)
            fs = locate_front(Field(g, u[i]), ws, 0.05, sums=block, row=i)
            assert fs.position == pytest.approx(alone.position, abs=1e-12)
            assert fs.deviation_sq == pytest.approx(alone.deviation_sq, rel=1e-10)
            assert fs.deviation_sq == 2 * mismatch(Field(g, u[i]), ws, fs.position,
                                                   m=fs.measure)
            assert fs.measure == alone.measure
            assert not fs.capped


def reference_row(model, ws, t, u, fs, u_z=None, prev=None, dt=None):
    """One trace row from whole-grid references at the row's own R:
    ``mismatch``, ``weighted_energy``, ``weighted_norm_h2`` and ``z_delta``."""
    R = fs.position
    mm = ws.measure(z_ref=R)
    fd = quotient = np.nan
    if prev is not None:
        w = quadrature_weights(ws.grid, mm)
        tdz = template_slope(ws.template, R)
        fd = (R - prev[1]) / dt
        quotient = (-float((w * (u.values - prev[0]) / dt * tdz).sum())
                    / float((w * u_z * tdz).sum()))
    dev = Field(ws.grid, u.values - ws.template.at(R))
    return (t, R, 2 * mismatch(u, ws, R, m=mm), weighted_energy(u, model, mm), fd,
            quotient, weighted_norm_h2(dev, mm), z_delta(u, ws, R),
            fs.ortho_residual, fs.ortho_floor, fs.iterations)


def row_by_row(model, ws, u0, dt, n_steps):
    """The trace tracked one state at a time: each state's own one-state
    ``locate_front`` call and the reference columns."""
    stepper = Stepper(model, ws.grid, dt, ws.speed)
    t, u = 0.0, u0
    fs = locate_front(u0, ws, 0.0)
    rows = [reference_row(model, ws, 0.0, u0, fs)]
    for _ in range(n_steps):
        prev = (u.values, fs.position)
        t, u = t + dt, stepper.step(u)
        uz = axial_derivative(u.values, ws.grid)
        fs = locate_front(u, ws, fs.position)
        rows.append(reference_row(model, ws, t, u, fs, uz, prev, dt))
    return np.array(rows, dtype=FrontTrace.FIELDS)


class TestBlockColumns:
    def test_rows_match_the_references(self, section_wave):
        ws = section_wave
        g = ws.grid
        rng = np.random.default_rng(41)
        u, before = perturbed_states(ws, rng, 5), perturbed_states(ws, rng, 5)
        R = rng.uniform(-0.5, 0.5, 5)
        R[2] = 4 * g.dz  # a translation by whole cells
        R_prev = R - rng.uniform(-0.01, 0.01, 5)
        uz = axial_derivative(u, g)
        cols = _columns(MODEL, ws, u, uz, R, (before, R_prev), 0.1)
        want = np.array([reference_row(MODEL, ws, 0.0, Field(g, u[i]),
                                       FrontState(position=R[i], curvature=0.0,
                                                  ortho_residual=0.0,
                                                  measure=ws.measure(R[i]),
                                                  ortho_floor=0.0,
                                                  u=Field(g, u[i]), ws=ws),
                                       uz[i], (before[i], R_prev[i]), 0.1)
                         for i in range(5)], dtype=FrontTrace.FIELDS)
        for name, col in zip(COLUMNS, cols):
            assert_close_to_scale(col, want[name])
        assert np.array_equal(cols[5], want["z_delta"])

    def test_a_row_does_not_depend_on_the_other_rows(self, section_wave):
        ws = section_wave
        g = ws.grid
        rng = np.random.default_rng(42)
        u, before = perturbed_states(ws, rng, 6), perturbed_states(ws, rng, 6)
        R = rng.uniform(-0.5, 0.5, 6)
        uz = axial_derivative(u, g)
        full = np.array(_columns(MODEL, ws, u, uz, R, (before, R - 0.01), 0.1))
        for keep in ([0], [5], [1, 3, 4]):
            part = _columns(MODEL, ws, u[keep], uz[keep], R[keep],
                            (before[keep], R[keep] - 0.01), 0.1)
            assert np.array(part).tobytes() == full[:, keep].tobytes()


class TestTrackBlocks:
    @pytest.mark.parametrize("n_steps", [17, 37])
    def test_blocks_match_row_by_row(self, small_wave, n_steps):
        # 17 steps end on a block of one row, 37 on a block of five
        ws = small_wave
        u0 = front_seed(ws.grid, 1.0, offset=1.0, steepness=0.8)
        trace = track(MODEL, ws, u0, dt=0.1, horizon=0.1 * n_steps)
        want = row_by_row(MODEL, ws, u0, 0.1, n_steps)
        got = trace.samples
        assert got.size == n_steps + 1
        assert np.array_equal(got["t"], want["t"])
        np.testing.assert_allclose(got["R"], want["R"], rtol=0, atol=1e-12)
        for name in COLUMNS:
            fin = np.isfinite(want[name])
            assert np.array_equal(np.isfinite(got[name]), fin)
            assert_close_to_scale(got[name][fin], want[name][fin])
        assert np.array_equal(got["z_delta"], want["z_delta"])
        assert np.array_equal(got["tracker_iters"], want["tracker_iters"])

    def test_one_row_blocks_are_the_one_state_tracker(self, small_wave, monkeypatch):
        ws = small_wave
        u0 = front_seed(ws.grid, 1.0, offset=1.0, steepness=0.8)
        monkeypatch.setattr(tracking, "BLOCK_ROWS", 1)
        got = track(MODEL, ws, u0, dt=0.1, horizon=2.0).samples
        want = row_by_row(MODEL, ws, u0, 0.1, 20)
        for name in ("R", "ortho_residual", "tracker_iters"):
            assert got[name].tobytes() == want[name].tobytes()

    def test_columns_skip_the_row_references(self, small_wave, monkeypatch):
        # the columns are one pass over the block, not per-row calls, and no
        # tracker call sums its deviation over the grid (nothing reads it)
        ws = small_wave
        u0 = front_seed(ws.grid, 1.0, offset=1.0, steepness=0.8)

        def refuse(*args, **kwargs):
            raise AssertionError("a row reference was called by track")

        for module, name in ((evolve, "weighted_energy"), (weighted, "weighted_norm_h2"),
                             (tracking, "z_delta"), (tracking, "mismatch")):
            monkeypatch.setattr(module, name, refuse)
            monkeypatch.setattr(tracking, name, refuse, raising=False)
        assert track(MODEL, ws, u0, dt=0.1, horizon=2.0).samples.size == 21


class TestTrackInputsAndFailures:
    @pytest.fixture
    def steps(self, monkeypatch):
        """Count the steps taken; ``fail_at`` makes that step raise."""
        log = {"n": 0, "fail_at": None}
        original = Stepper.step

        def step(self, u):
            log["n"] += 1
            if log["n"] == log["fail_at"]:
                raise EvolutionError("injected step failure")
            return original(self, u)

        monkeypatch.setattr(Stepper, "step", step)
        return log

    @pytest.fixture
    def fronts(self, monkeypatch):
        """Count the tracker calls; ``fail_at`` makes that call raise (the
        initial call is number 0)."""
        log = {"n": -1, "fail_at": None}
        original = tracking.locate_front

        def locate(*args, **kwargs):
            log["n"] += 1
            if log["n"] == log["fail_at"]:
                raise ConvexityError("injected tracker failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(tracking, "locate_front", locate)
        return log

    def test_partial_step_horizon_refused_before_any_step(self, small_wave, steps):
        ws = small_wave
        with pytest.raises(ValueError, match="horizon = 0.25 is not a whole number"):
            track(MODEL, ws, ws.profile.copy(), dt=0.1, horizon=0.25)
        assert steps["n"] == 0

    def test_step_failure_after_tracking_the_rows_before_it(self, small_wave, steps, fronts):
        ws = small_wave
        steps["fail_at"] = 21  # the fifth step of the second block
        with pytest.raises(TrackingLossError, match="t=2: injected step failure"):
            track(MODEL, ws, ws.profile.copy(), dt=0.1, horizon=4.0)
        assert fronts["n"] == 20

    def test_earlier_tracker_failure_wins(self, small_wave, steps, fronts):
        ws = small_wave
        steps["fail_at"], fronts["fail_at"] = 21, 19
        with pytest.raises(TrackingLossError, match="t=1.9: injected tracker failure"):
            track(MODEL, ws, ws.profile.copy(), dt=0.1, horizon=4.0)

    def test_earlier_step_failure_wins(self, small_wave, steps, fronts):
        ws = small_wave
        steps["fail_at"], fronts["fail_at"] = 21, 22
        with pytest.raises(TrackingLossError, match="t=2: injected step failure"):
            track(MODEL, ws, ws.profile.copy(), dt=0.1, horizon=4.0)
        assert fronts["n"] == 20
