import numpy as np
import pytest

from cylwave.grids import Field, GridConfig, axial_derivative, build_grid
from cylwave.reactions import CubicBistable
from cylwave.tracking import (BracketError, ConvexityError, FitError,
                              FrontTrace, default_fit_window,
                              fit_decay, fit_rate, locate_front, mismatch,
                              mismatch_derivatives, track, trace_to_csv,
                              z_delta)
from cylwave.waves import front_seed, solve_wave
from cylwave.weighted import translate, weighted_norm_l2


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
    return FrontTrace(speed=speed, samples=samples, dt=times[1] - times[0])


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

    def test_precomputed_u_z_gives_the_same_state(self, wave):
        _, ws = wave
        u = Field(ws.grid, translate(ws.profile, 0.7).values
                  + 1e-3 * np.exp(-ws.grid.z ** 2)[None, :])
        plain = locate_front(u, ws, 0.0)
        given = locate_front(u, ws, 0.0, u_z=axial_derivative(u.values, u.grid))
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
        # sampling keeps the same rows, bit for bit in every column, and
        # counts every call
        sparse = track(model, ws, u0, dt=0.1, horizon=3.0, sample_every=4)
        kept = every.samples[np.r_[0:iters.size:4, iters.size - 1]]
        assert sparse.samples.tobytes() == kept.tobytes()
        assert sparse.tracker_iters_max == every.tracker_iters_max

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

    def test_precision_env_override(self, wave, tmp_path, monkeypatch):
        model, ws = wave
        u0 = front_seed(ws.grid, 1.0, offset=0.5)
        trace = track(model, ws, u0, dt=0.1, horizon=0.5)
        monkeypatch.setenv("CYLWAVE_PRECISION", "6")
        p6 = tmp_path / "p6.csv"
        trace_to_csv(trace, p6)
        cell = p6.read_text().splitlines()[1].split(",")[2]
        assert len(cell.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) <= 7
