"""Acceptance suite: every criterion at its stated tolerance.

Each criterion test prints one PASS/FAIL line (bypassing capture, so the
lines appear under a plain ``pytest`` run).  The moving-frame convergence run
is shared by the criteria that refer to it and by the tracker-work checks at
the end.
"""

import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import energy_identity_defect, record_acceptance

from cylwave.evolve import Stepper, weighted_energy
from cylwave.grids import Field, GridConfig, build_grid, apply_boundary
from cylwave.reactions import CubicBistable, LinearModel
from cylwave.sections import principal_eigenpair
from cylwave.tracking import (BLOCK_ROWS, CellSums, fit_decay, fit_position_tail, fit_rate,
                              locate_front, mismatch, mismatch_derivatives, track)
from cylwave.waves import front_seed, solve_wave, spectral_gap, translation_profile
from cylwave.weighted import translate, weighted_norm_l2

DZ = 0.05
WINDOW = (-40.0, 20.0)


def report(criterion: int, ok: bool, detail: str) -> None:
    line = "criterion %2d: %s  %s" % (criterion, "PASS" if ok else "FAIL", detail)
    record_acceptance(line)
    print(line)
    assert ok, line


def wave_grid(dz=DZ):
    n_z = int(round((WINDOW[1] - WINDOW[0]) / dz)) + 1
    return build_grid(GridConfig(n_y=1, n_z=n_z, z_min=WINDOW[0], z_max=WINDOW[1]))


@pytest.fixture(scope="module")
def cubic_wave():
    grid = wave_grid()
    model = CubicBistable(a=0.25)
    return model, solve_wave(model, grid, front_seed(grid, 1.0), c_seed=0.2)


@pytest.fixture(scope="module")
def converge_run(cubic_wave):
    model, ws = cubic_wave
    u0 = front_seed(ws.grid, 1.0, offset=2.0, steepness=1.0)
    # front-like admissibility: the datum stays above plateau - alpha on the left
    left = u0.values[:, ws.grid.z <= ws.grid.z_min + 5.0]
    assert np.min(left) >= np.min(ws.plateau.values) - 0.1
    t0 = time.perf_counter()
    trace = track(model, ws, u0, dt=0.05, horizon=60.0)
    elapsed = time.perf_counter() - t0
    sigma, quality = fit_decay(trace)
    return model, ws, u0, trace, elapsed


def test_criterion_1_exact_wave_recovery():
    worst_c = worst_p = worst_t = worst_x = 0.0
    for a in (0.1, 0.25, 0.45):
        model = CubicBistable(a=a)
        grid = wave_grid()
        t0 = time.perf_counter()
        ws = solve_wave(model, grid, front_seed(grid, 1.0), c_seed=0.2)
        elapsed = time.perf_counter() - t0
        c_err = abs(ws.speed - (1 - 2 * a) / np.sqrt(2))
        # the extrapolated speed's error, relative to the two-level estimate
        x_err = abs(ws.speed + ws.speed_err_est - (1 - 2 * a) / np.sqrt(2))
        worst_x = max(worst_x, x_err / abs(ws.speed_err_est))

        def sup_err(R):
            exact = 1.0 / (1.0 + np.exp((grid.z - R) / np.sqrt(2)))
            return float(np.max(np.abs(ws.profile.values[0] - exact)))

        p_err = minimize_scalar(sup_err, bounds=(-0.5, 0.5), method="bounded").fun
        worst_c, worst_p, worst_t = max(worst_c, c_err), max(worst_p, p_err), max(worst_t, elapsed)
    ok = worst_c <= 1e-3 and worst_x <= 0.05 and worst_p <= 1e-3 and worst_t <= 60.0
    report(1, ok, "speed err %.2e (<=1e-3), extrapolated speed err %.3f of the "
                  "estimate (<=0.05), profile err %.2e (<=1e-3), %.1fs/case"
           % (worst_c, worst_x, worst_p, worst_t))


def test_criterion_2_global_convergence(converge_run):
    model, ws, u0, trace, elapsed = converge_run
    sigma, quality = trace.sigma_fit, trace.fit_quality
    rate_r, q_r = fit_position_tail(trace)
    t = trace.samples["t"]
    sel = (t >= trace.fit_window[0]) & (t <= trace.fit_window[1])
    slope_h, _, q_h = fit_rate(t[sel], trace.rebased("h2c_norm")[sel])
    ok = (sigma > 0 and quality >= 0.99
          and rate_r > 0 and q_r >= 0.95
          and slope_h < 0 and q_h >= 0.95
          and elapsed <= 300.0)
    report(2, ok, "sigma %.3f (q %.4f), R-tail rate %.3f (q %.3f), "
                  "H2 rate %.3f (q %.3f), %.0fs"
           % (sigma, quality, rate_r, q_r, -slope_h, q_h, elapsed))


def test_position_rate_holds_when_dt_halves(converge_run):
    # the position's rate is a property of the flow, not of the step: with
    # dt halved it moves by -1.3% (0.2949 -> 0.2911) fitted against
    # R_infinity, but by +4.8% (0.3073 -> 0.3220) against the last row,
    # which reads R's drift after the deviation reaches its floor
    model, ws, u0, trace, _ = converge_run
    half = track(model, ws, u0, dt=0.025, horizon=60.0)
    fit_decay(half)
    rate, _ = fit_position_tail(trace)
    rate_half, _ = fit_position_tail(half)
    assert abs(rate_half - rate) <= 0.02 * rate, (rate, rate_half)


def test_criterion_3_energy_machinery(cubic_wave, converge_run):
    model, ws = cubic_wave
    phi_wave = weighted_energy(ws.profile, model, ws.measure(z_ref=0.0))

    _, _, _, trace, _ = converge_run
    phi = trace.rebased("phi")
    increases = np.diff(phi) - 1e-10 * np.maximum(1.0, np.abs(phi[:-1]))
    monotone = bool(np.all(increases <= 0.0))

    # every step's exact energy identity, to rounding
    stepper = Stepper(model, ws.grid, 0.2, ws.speed)
    state = front_seed(ws.grid, 1.0, offset=1.0, steepness=0.8)
    defect = 0.0
    for _ in range(40):
        new = stepper.step(state)
        step_defect, bound = energy_identity_defect(stepper, state, new)
        defect, state = max(defect, step_defect), new
    ok = abs(phi_wave) <= 1e-6 and monotone and defect <= bound
    report(3, ok, "energy[wave] %.2e (<=1e-6), per-step monotone %s, "
                  "energy identity defect %.0f eps*scale (<=%d)"
           % (phi_wave, monotone, defect, bound))


def test_criterion_4_spectral_structure(cubic_wave):
    model, ws = cubic_wave
    gap1 = spectral_gap(ws, model)
    grid2 = wave_grid(dz=DZ / 2)
    ws2 = solve_wave(model, grid2, front_seed(grid2, 1.0), c_seed=0.2)
    gap2 = spectral_gap(ws2, model)
    drift = abs(gap1.gap - gap2.gap) / gap2.gap
    ok = (abs(gap1.zero_mode_value) <= 1e-6 * gap1.scale
          and gap1.alignment >= 0.999
          and gap1.gap > 0 and drift <= 0.05)
    report(4, ok, "lambda0 %.1e (<= %.1e), align %.6f, K %.4f, refinement drift %.2e"
           % (gap1.zero_mode_value, 1e-6 * gap1.scale, gap1.alignment, gap1.gap, drift))


def test_criterion_5_tracker_geometry(cubic_wave, converge_run):
    model, ws = cubic_wave
    _, _, _, trace, _ = converge_run

    m = trace.samples["m"]
    dzn = weighted_norm_l2(Field(ws.grid, ws.profile_dz), ws.measure(0.0))
    bound = 1e-8 * np.sqrt(np.maximum(m, 1e-300)) * dzn
    ortho_ok = bool(np.all(trace.samples["ortho_residual"] <= bound))

    mm = ws.measure(0.0)
    rng = np.random.default_rng(99)
    delta = 0.05
    worst1 = worst2 = 0.0
    for _ in range(100):
        pert = rng.uniform(0.0, 0.08) * rng.standard_normal(ws.grid.shape)
        pert *= np.exp(-((ws.grid.z - rng.uniform(-4, 4)) / rng.uniform(2, 6)) ** 2)[None, :]
        u = Field(ws.grid, np.clip(ws.profile.values + pert, 0, 1))
        R = rng.uniform(-0.4, 0.4)
        h1, h2 = mismatch_derivatives(u, ws, R, m=mm)
        fd1 = (mismatch(u, ws, R + delta, m=mm) - mismatch(u, ws, R - delta, m=mm)) / (2 * delta)
        fd2 = (mismatch(u, ws, R + delta, m=mm) - 2 * mismatch(u, ws, R, m=mm)
               + mismatch(u, ws, R - delta, m=mm)) / delta ** 2
        worst1 = max(worst1, abs(fd1 - h1))
        worst2 = max(worst2, abs(fd2 - h2))
    fd_ok = worst1 <= 0.05 * delta ** 2 and worst2 <= 0.02 * delta ** 2

    bump = 0.02 * np.exp(-(ws.grid.z / 3.0) ** 2)[None, :]
    u = Field(ws.grid, np.clip(ws.profile.values + bump, 0, 1))
    base = locate_front(u, ws, 0.0).position
    eq_err = 0.0
    for shift in (0.4, -0.35):
        found = locate_front(translate(u, shift), ws, 0.0).position
        eq_err = max(eq_err, abs(found - base - shift))
    ok = ortho_ok and fd_ok and eq_err <= 1e-6
    report(5, ok, "orthogonality %s, h'/h'' FD err %.1e/%.1e (<= %.1e/%.1e), "
                  "equivariance err %.1e (<=1e-6)"
           % (ortho_ok, worst1, worst2, 0.05 * delta ** 2, 0.02 * delta ** 2, eq_err))


def test_criterion_6_translation_norm_law(cubic_wave):
    model, ws = cubic_wave
    m = ws.measure(z_ref=0.0)
    n0 = weighted_norm_l2(ws.profile, m)
    worst = 0.0
    for eta in (0.5, -0.5, 1.0, -1.0):
        n1 = weighted_norm_l2(translate(ws.profile, eta), m)
        factor = np.exp(0.5 * ws.speed * eta)
        worst = max(worst, abs(n1 - factor * n0) / (factor * n0))
    rep = translation_profile(ws, radii=np.linspace(-1.0, 1.0, 41))
    ok = worst <= 1e-6 and rep.monotone_in_abs_R
    report(6, ok, "shift-law rel dev %.2e (<=1e-6), 41-point monotone %s"
           % (worst, rep.monotone_in_abs_R))


def test_criterion_7_eigenvalue_closed_forms():
    def interval(n_y):
        return build_grid(GridConfig(n_y=n_y, n_z=17, y_min=0.0, y_max=1.0,
                                     z_min=0.0, z_max=1.0, bc_left="dirichlet",
                                     bc_right="dirichlet", bc_axial_right="neumann"))

    ratios, errs = [], []
    for mu in (0.0, 1.0):
        e = [abs(principal_eigenpair(LinearModel(mu=mu), interval(n)).value
                 - (np.pi ** 2 - mu)) for n in (41, 81)]
        errs.append(e[0])
        ratios.append(e[0] / e[1])
    neumann = build_grid(GridConfig(n_y=33, n_z=17, y_min=0.0, y_max=1.0,
                                    z_min=0.0, z_max=1.0, bc_axial_right="neumann"))
    nu = principal_eigenpair(CubicBistable(0.25), neumann).value
    ok = (max(errs) < 0.02 and all(3.0 <= r <= 5.0 for r in ratios)
          and abs(nu - 0.25) <= 1e-10)
    report(7, ok, "Dirichlet errs %s shrink x%s, Neumann |nu - a| = %.1e (<=1e-10)"
           % (["%.1e" % e for e in errs], ["%.2f" % r for r in ratios], abs(nu - 0.25)))


def test_criterion_8_comparison_principle(cubic_wave, converge_run):
    model, ws = cubic_wave
    g = build_grid(GridConfig(n_y=1, n_z=201, z_min=-5.0, z_max=5.0))
    stepper = Stepper(model, g, 0.05, frame_speed=0.2)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        hi = np.clip(rng.uniform(0, 1, g.shape), 0, 1)
        lo = np.clip(hi - np.abs(rng.uniform(0, 0.4, g.shape)), 0, 1)
        s_lo = apply_boundary(Field(g, lo))
        s_hi = apply_boundary(Field(g, hi))
        for _ in range(20):
            s_lo, s_hi = stepper.step(s_lo), stepper.step(s_hi)
            worst = max(worst, float(np.max(s_lo.values - s_hi.values)))

    _, ws2, u0, _, _ = converge_run
    sep = 5.0
    lo0 = Field(ws2.grid, np.minimum(u0.values, translate(ws2.profile, -sep).values))
    hi0 = Field(ws2.grid, np.maximum(u0.values, translate(ws2.profile, +sep).values))
    tri = [apply_boundary(f) for f in (lo0, u0, hi0)]
    stepper2 = Stepper(model, ws2.grid, 0.05, ws2.speed)
    worst_tri = 0.0
    for _ in range(1200):
        tri = [stepper2.step(s) for s in tri]
        worst_tri = max(worst_tri,
                        float(np.max(tri[0].values - tri[1].values)),
                        float(np.max(tri[1].values - tri[2].values)))
    ok = worst <= 1e-10 and worst_tri <= 1e-10
    report(8, ok, "200 random pairs max violation %.1e, sandwich %.1e (<=1e-10)"
           % (worst, worst_tri))


def test_criterion_9_secondary_speed_geometry(tmp_path):
    from cylwave.config import parse_config_file
    from cylwave.scenarios import read_manifest, run_scenario
    import os

    cfg_path = os.path.join(os.path.dirname(__file__), "..", "configs",
                            "secondary_stacked_dirichlet.cfg")
    manifest = run_scenario(parse_config_file(cfg_path), str(tmp_path))
    parsed = read_manifest(tmp_path / "manifest.txt")
    if manifest.note and "not applicable" in manifest.note:
        ok = manifest.passed() and "not applicable" in parsed["run"]["note"]
        report(9, ok, "waived: %s (manifest note recorded)" % manifest.note)
    else:
        margin = float(parsed["results"]["margin"])
        ok = manifest.passed() and margin > 0
        report(9, ok, "primary speed %.4f > secondary %.4f, margin %.4f"
               % (float(parsed["results"]["speed"]),
                  float(parsed["results"]["secondary_speed"]), margin))


def test_criterion_10_mismatch_frontier_retreats(converge_run):
    _, _, _, trace, _ = converge_run
    t = trace.samples["t"]
    zd = trace.samples["z_delta"]
    finite = np.isfinite(zd)
    coeffs = np.polyfit(t[finite], zd[finite], 1)
    b = -float(coeffs[0])
    resid = zd[finite] - np.polyval(coeffs, t[finite])
    envelope_gap = float(np.max(resid))
    ok = finite.sum() >= 5 and b > 0
    report(10, ok, "%d finite samples, retreat rate b = %.3f (>0), envelope offset %.2f"
           % (int(finite.sum()), b, envelope_gap))


def test_tracker_work_on_the_convergence_run(converge_run):
    # every tracker call stops on a test, none at max_iter, and the whole run
    # averages at most four (h', h'') evaluations per step
    _, _, _, trace, _ = converge_run
    steps = trace.samples.size - 1
    iters = trace.samples["tracker_iters"]
    assert trace.tracker_cap_hits == 0
    assert trace.tracker_iters_max == int(iters.max())
    assert int(iters.sum()) <= 4 * steps


def test_tracker_stops_at_the_roundoff_floor(converge_run):
    # the last states of the run sit at the lattice-pinning floor, where |h'|
    # stalls at rounding level (a stopping test on 1e-12 * scale alone runs 3
    # of these 10 calls to max_iter); each must stop within a few evaluations.
    # The run stops at a block end, so its last BLOCK_ROWS states are one
    # block, whose sums are referenced at the R before it
    model, ws, u0, trace, _ = converge_run
    assert trace.stop_time is not None
    R = trace.samples["R"]
    start = R.size - 1 - BLOCK_ROWS
    stepper = Stepper(model, ws.grid, 0.05, ws.speed)
    states = [u0]
    for k in range(1, R.size):
        states = states[-BLOCK_ROWS:] + [stepper.step(states[-1])]
    block = np.array([s.values for s in states[1:]])
    sums = CellSums(block, ws, ws.measure(z_ref=float(R[start])))
    for i in range(BLOCK_ROWS - 10, BLOCK_ROWS):
        k = start + 1 + i
        fs = locate_front(states[1 + i], ws, float(R[k - 1]), sums=sums, row=i)
        assert fs.position == R[k]  # replays the run's own call
        assert not fs.capped
        assert fs.iterations <= 8
