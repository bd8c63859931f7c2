"""Scenario orchestration: build, run, persist, and summarize experiments.

Each scenario writes its outputs plus a manifest (flat text, stable key
order) listing every emitted file with size and digest, the config echo, the
summary scalars, and each acceptance assertion's outcome.  A run "passes"
when every assertion holds (waived assertions count as passes and carry an
explicit note).
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .evolve import compare_evolutions
from .grids import CrossSectionField, CylinderGrid, Field, apply_boundary
from .reactions import ReactionModel, check_hypotheses
from .sections import CriticalPoint, check_speed_admissible, find_critical_point
from .tracking import (FLOOR_EFOLDS, fit_decay, fit_efolds, fit_position_tail, fit_rate,
                       trace_to_csv, track)
from .waves import (FLOAT_FORMAT, WaveSolution, front_seed, save_solution,
                    secondary_speed, solve_wave, spectral_gap, translation_profile)
from .weighted import translate, weighted_norm_l2


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return FLOAT_FORMAT % x
    return str(x)


@dataclass
class RunManifest:
    scenario: str
    config_echo: dict
    results: dict = field(default_factory=dict)
    assertions: list = field(default_factory=list)  # (name, bool, detail)
    files: list = field(default_factory=list)       # (name, bytes, sha256)
    wall_time: float = 0.0
    note: str = ""
    error: str = ""  # "<Type>: <message>" of the exception that ended the run

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.assertions.append((name, bool(ok), detail))
        return bool(ok)

    def passed(self) -> bool:
        return not self.error and all(ok for _, ok, _ in self.assertions)

    def add_file(self, out_dir: str, name: str) -> None:
        path = os.path.join(out_dir, name)
        blob = Path(path).read_bytes()
        self.files.append((name, len(blob), hashlib.sha256(blob).hexdigest()))


def write_manifest(manifest: RunManifest, out_dir: str) -> str:
    lines = ["[run]"]
    lines.append("scenario = %s" % manifest.scenario)
    lines.append("code_version = %s" % __version__)
    lines.append("wall_time_s = %.3f" % manifest.wall_time)
    lines.append("passed = %s" % _fmt(manifest.passed()))
    if manifest.error:
        lines.append("error = %s" % manifest.error)
    if manifest.note:
        lines.append("note = %s" % manifest.note)
    lines.append("[config]")
    for sec in sorted(manifest.config_echo):
        for key in sorted(manifest.config_echo[sec]):
            lines.append("%s.%s = %s" % (sec, key, _fmt(manifest.config_echo[sec][key])))
    lines.append("[results]")
    for key in sorted(manifest.results):
        lines.append("%s = %s" % (key, _fmt(manifest.results[key])))
    lines.append("[assertions]")
    for name, ok, detail in manifest.assertions:
        suffix = (" # " + detail) if detail else ""
        lines.append("%s = %s%s" % (name, "pass" if ok else "fail", suffix))
    lines.append("[files]")
    for name, size, digest in manifest.files:
        lines.append("%s = %d sha256:%s" % (name, size, digest))
    path = os.path.join(out_dir, "manifest.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def read_manifest(path) -> dict:
    """Parse a manifest back into {section: {key: value-string}} (+ notes)."""
    out: dict[str, dict] = {}
    section = None
    for line in Path(path).read_text().split("\n"):
        if not line.strip():
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            out[section] = {}
            continue
        key, _, value = line.partition("=")
        out[section][key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------------------
# initial data


def build_initial(cfg: ExperimentConfig, grid: CylinderGrid,
                  plateau: CrossSectionField) -> Field:
    """The configured front-like datum, plus uniform noise of the configured
    amplitude (drawn from ``seed``) when that amplitude is positive."""
    p = cfg.initial_params
    vals = front_seed(grid, p["amplitude"] * plateau.values, p["offset"], p["steepness"]).values
    if p["noise"] > 0:
        rng = np.random.default_rng(cfg.seed)
        vals = vals + p["noise"] * rng.uniform(-1.0, 1.0, size=vals.shape)
    vals = np.clip(vals, 0.0, 1.0)
    return apply_boundary(Field(grid, vals))


def sandwich_pair(u0: Field, ws: WaveSolution, separation: float) -> tuple[Field, Field]:
    """Barrier pair: min/max of the datum against translated wave profiles.

    The lower barrier is min(u0, T_{-separation} profile) and the upper is
    max(u0, T_{+separation} profile); both straddle u0 by construction.
    """
    lo = np.minimum(u0.values, translate(ws.profile, -separation).values)
    hi = np.maximum(u0.values, translate(ws.profile, +separation).values)
    return (apply_boundary(Field(u0.grid, lo)), apply_boundary(Field(u0.grid, hi)))


def _plateau_state(model: ReactionModel, grid: CylinderGrid,
                   level: float) -> CriticalPoint:
    """Critical point the front connects to on the left.

    Dirichlet sections get a wall-tapered seed at the requested level;
    Neumann sections a constant one.
    """
    pinned = grid.dirichlet_mask[:, 0]  # the axial left end is never pinned
    dist = np.full(grid.n_y, np.inf)
    if pinned[0]:
        dist = np.minimum(dist, grid.y - grid.y_min)
    if pinned[-1]:
        dist = np.minimum(dist, grid.y_max - grid.y)
    vals = level * np.minimum(1.0, dist / 2.0)
    return find_critical_point(model, grid, CrossSectionField(grid, vals))


# ---------------------------------------------------------------------------
# scenarios


def run_scenario(cfg: ExperimentConfig, out_dir: str) -> RunManifest:
    os.makedirs(out_dir, exist_ok=True)
    manifest = RunManifest(scenario=cfg.scenario, config_echo=cfg.raw)
    t0 = time.perf_counter()
    runner = {
        "wave": _run_wave,
        "converge": _run_converge,
        "gap": _run_gap,
        "secondary_speed": _run_secondary,
        "comparison": _run_comparison,
        "hypotheses": _run_hypotheses,
    }[cfg.scenario]
    try:
        runner(cfg, cfg.make_grid(), cfg.make_model(), out_dir, manifest)
    except BaseException as exc:  # an interrupted run did not pass either
        manifest.error = "%s: %s" % (type(exc).__name__, str(exc).replace("\n", " "))
        raise
    finally:
        # the manifest lists every emitted file except itself (its own digest
        # cannot appear in its own content)
        manifest.wall_time = time.perf_counter() - t0
        write_manifest(manifest, out_dir)
    return manifest


def _solve_configured_wave(cfg: ExperimentConfig, grid, model):
    plateau = _plateau_state(model, grid, cfg.plateau_seed)
    seed = front_seed(grid, plateau.v)
    ws = solve_wave(model, grid, seed, cfg.c_seed)
    return plateau, ws


def _run_wave(cfg, grid, model, out_dir, manifest):
    plateau, ws = _solve_configured_wave(cfg, grid, model)
    rep = translation_profile(ws)
    save_solution(ws, os.path.join(out_dir, "wave.txt"))
    manifest.add_file(out_dir, "wave.txt")
    manifest.results.update({
        "speed": ws.speed,
        "speed_err_est": ws.speed_err_est,
        "residual": ws.residual,
        "normalization_shift": ws.normalization_shift,
        "plateau_energy": plateau.energy,
        "translation_ratio_lower": rep.ratio_lower,
        "translation_ratio_upper": rep.ratio_upper,
        "dz_norm": rep.dz_norm,
    })
    manifest.check("residual_below_tolerance", ws.residual <= 1e-8,
                   "%.3g" % ws.residual)
    manifest.check("profile_monotone", ws.monotone)
    manifest.check("plateau_matches_section_state",
                   float(np.max(np.abs(ws.plateau.values - plateau.v.values))) <= 1e-6)
    manifest.check("plateau_energy_negative", plateau.energy < 0.0,
                   "%.3g" % plateau.energy)
    manifest.check("translation_distance_monotone", rep.monotone_in_abs_R)


def _run_converge(cfg, grid, model, out_dir, manifest):
    plateau, ws = _solve_configured_wave(cfg, grid, model)
    u0 = build_initial(cfg, grid, plateau.v)

    # left-plateau admissibility of the datum: min over the left edge >= v - 0.1
    left = u0.values[:, grid.z <= grid.z_min + 5.0]
    inidat_ok = bool(np.min(left - (plateau.v.values[:, None] - 0.1)) >= 0.0)
    manifest.check("initial_datum_left_plateau", inidat_ok)

    trace = track(model, ws, u0, cfg.dt, cfg.horizon)
    trace_to_csv(trace, os.path.join(out_dir, "trace.csv"))
    manifest.add_file(out_dir, "trace.csv")

    # the cap ended a run that stopped at no floor: stop_time is nan
    stopped = trace.stop_time is not None
    manifest.results.update({
        "stop_rate": trace.stop_rate,
        "stop_time": trace.stop_time if stopped else float("nan"),
    })
    manifest.check("floor_reached_before_cap", stopped,
                   "stop at t = %.6g" % trace.stop_time if stopped
                   else "cap %.6g reached first" % float(trace.samples["t"][-1]))

    sigma, quality = fit_decay(trace)
    efolds = fit_efolds(trace)
    manifest.results.update({
        "speed": ws.speed,
        "speed_err_est": ws.speed_err_est,
        "sigma": sigma,
        "fit_quality": quality,
        "fit_window_lo": trace.fit_window[0],
        "fit_window_hi": trace.fit_window[1],
        "fit_efolds": efolds,
        "R_infinity": trace.R_infinity,
        "tracker_iters_max": trace.tracker_iters_max,
        "tracker_cap_hits": trace.tracker_cap_hits,
    })
    manifest.check("tracker_no_cap_hits", trace.tracker_cap_hits == 0,
                   "%d capped calls" % trace.tracker_cap_hits)
    manifest.check("sigma_positive", sigma > 0.0, "%.4g" % sigma)
    manifest.check("fit_quality", quality >= 0.99, "%.4f" % quality)
    manifest.check("fit_window_efolds", efolds >= FLOOR_EFOLDS,
                   "%.3g vs %.3g" % (efolds, FLOOR_EFOLDS))

    t = trace.samples["t"]
    sel = (t >= trace.fit_window[0]) & (t <= trace.fit_window[1])
    rate_r, q_r = fit_position_tail(trace)
    manifest.results["R_tail_quality"] = q_r
    manifest.results["R_tail_rate"] = rate_r
    manifest.check("R_converges", rate_r > 0.0 and q_r >= 0.95,
                   "rate %.3g quality %.3f" % (rate_r, q_r))

    h2 = trace.rebased("h2c_norm")[sel]
    slope_h, _, q_h = fit_rate(t[sel], h2)
    manifest.results["h2c_quality"] = q_h
    manifest.check("h2c_log_linear_decay", slope_h < 0.0 and q_h >= 0.95,
                   "rate %.3g quality %.3f" % (-slope_h, q_h))

    phi = trace.rebased("phi")
    dphi = np.diff(phi)
    tol = 1e-10 * np.maximum(1.0, np.abs(phi[:-1]))
    manifest.check("energy_monotone", bool(np.all(dphi <= tol)),
                   "max increase %.3g" % float(dphi.max()))

    # relative to the deviation, floored per row by the rounding floor of
    # |h'| at which the tracker stopped
    ortho = trace.samples["ortho_residual"]
    m = trace.samples["m"]
    dzn = weighted_norm_l2(Field(grid, ws.profile_dz), ws.measure(0.0))
    bound = np.maximum(1e-8 * np.sqrt(np.maximum(m, 1e-300)) * dzn,
                       trace.samples["ortho_floor"])
    manifest.check("orthogonality_residual", bool(np.all(ortho <= bound)))

    zd = trace.samples["z_delta"]
    finite = np.isfinite(zd)
    if finite.sum() >= 5:
        coeffs = np.polyfit(t[finite], zd[finite], 1)
        b = -float(coeffs[0])
        manifest.results["z_delta_retreat_rate"] = b
        manifest.check("z_delta_retreats", b > 0.0, "b = %.4g" % b)
    else:
        manifest.results["z_delta_retreat_rate"] = float("nan")
        manifest.check("z_delta_retreats", False, "too few finite samples")

    drift = np.max(np.abs(trace.samples["R"] - trace.samples["R"][0]))
    m0 = float(np.sqrt(trace.samples["m"][0]))
    manifest.results["max_R_drift"] = float(drift)
    manifest.check("R_drift_bounded", drift <= 10.0 * max(m0, 1e-12),
                   "%.3g vs 10*%.3g" % (drift, m0))


def _run_gap(cfg, grid, model, out_dir, manifest):
    """The gap K_h of the configured wave, and of the half-grid wave that
    ``solve_wave`` carried to it, K_2h: ``gap_err_est = (K_h - K_2h) / 3``
    is the Richardson estimate of K_h's error (the scheme is second order).
    The two levels must agree within 5% of K_h; a grid without a half grid
    has no second level and fails that check."""
    plateau, ws = _solve_configured_wave(cfg, grid, model)
    gap = spectral_gap(ws, model)
    if ws.coarse is None:
        err_est, drift, detail = float("nan"), float("nan"), "one level: no half grid"
    else:
        gap_2h = spectral_gap(ws.coarse, model).gap
        err_est, drift = (gap.gap - gap_2h) / 3.0, abs(gap.gap - gap_2h) / abs(gap.gap)
        detail = "drift %.3g" % drift
    manifest.results.update({
        "speed": ws.speed,
        "speed_err_est": ws.speed_err_est,
        "zero_mode_value": gap.zero_mode_value,
        "gap": gap.gap,
        "gap_err_est": err_est,
        "alignment": gap.alignment,
        "scale": gap.scale,
    })
    manifest.check("zero_mode_small", abs(gap.zero_mode_value) <= 1e-6 * gap.scale,
                   "%.3g vs %.3g" % (gap.zero_mode_value, 1e-6 * gap.scale))
    manifest.check("zero_mode_aligned", gap.alignment >= 0.999, "%.6f" % gap.alignment)
    manifest.check("gap_positive", gap.gap > 0.0, "%.4g" % gap.gap)
    manifest.check("gap_levels_agree", drift <= 0.05, detail)
    manifest.check("gap_residual_small", gap.residual_gap <= gap.residual_tol,
                   "%.3g vs %.3g" % (gap.residual_gap, gap.residual_tol))


def _run_secondary(cfg, grid, model, out_dir, manifest):
    """Primary and secondary speeds over the configured plateau, each with
    its two-level estimate.  Both waves depend on the plateau and are
    solved one after the other.
    """
    plateau, ws = _solve_configured_wave(cfg, grid, model)
    sec = secondary_speed(model, grid, plateau, c_seed=cfg.c_seed)
    manifest.results["plateau_max"] = float(np.max(plateau.v.values))
    manifest.results["speed"] = ws.speed
    manifest.results["speed_err_est"] = ws.speed_err_est
    manifest.results["secondary_speed_err_est"] = sec.speed_err_est
    if not sec.applicable:
        manifest.note = sec.note
        manifest.results["secondary_speed"] = float("nan")
        manifest.check("secondary_speed_below_primary", True,
                       "waived: " + sec.note)
        return
    manifest.results["secondary_speed"] = sec.speed
    manifest.results["margin"] = ws.speed - sec.speed
    manifest.check("secondary_speed_below_primary", sec.speed < ws.speed,
                   "margin %.4g" % (ws.speed - sec.speed))


def _run_comparison(cfg, grid, model, out_dir, manifest):
    plateau, ws = _solve_configured_wave(cfg, grid, model)
    u0 = build_initial(cfg, grid, plateau.v)
    lo, hi = sandwich_pair(u0, ws, cfg.initial_params["separation"])
    rep = compare_evolutions([lo, u0, hi], model, cfg.horizon, cfg.dt, ws.speed)
    manifest.results["max_ordering_violation"] = rep.max_violation
    manifest.check("sandwich_ordered", rep.ordered, "%.3g" % rep.max_violation)


def _run_hypotheses(cfg, grid, model, out_dir, manifest):
    rep = check_hypotheses(model, grid)
    adm = check_speed_admissible(model, grid, cfg.c_trial)
    manifest.results.update({
        "zero_state_ok": rep.zero_state_ok,
        "upper_state_ok": rep.upper_state_ok,
        "drive_integral_min": float(np.min(rep.drive_integral)),
        "holder_quotient_f": rep.holder_quotient_f,
        "holder_quotient_f_u": rep.holder_quotient_f_u,
        "eigenvalue_at_zero": adm.eigenvalue_at_zero,
        "admissible_best_energy": adm.best_energy,
        "discriminant_ok": adm.discriminant_ok,
    })
    manifest.check("structural_assumptions", rep.passed())
    manifest.check("potential_consistent", rep.potential_consistent)
