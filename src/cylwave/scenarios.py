"""Scenario orchestration: build, run, persist, and summarize experiments.

Each scenario writes its outputs plus a manifest (flat text, stable key
order) listing every emitted file with size and digest, the config echo, the
summary scalars, and each acceptance assertion's outcome.  A run "passes"
when every assertion holds (waived assertions count as passes and carry an
explicit note).
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, output_digits
from .evolve import compare_evolutions
from .grids import CrossSectionField, CylinderGrid, Field, apply_boundary
from .reactions import ReactionModel, check_hypotheses
from .sections import (CriticalPoint, check_speed_admissible, find_critical_point,
                       principal_eigenpair)
from .tracking import (fit_decay, fit_position_tail, fit_rate,
                       trace_to_csv, track)
from .waves import (WaveSolution, front_seed, save_solution, secondary_speed,
                    solve_wave, spectral_gap, translation_profile)
from .weighted import translate, weighted_norm_l2


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return ("%%.%dg" % output_digits()) % x
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
# initial data families


def build_initial(cfg: ExperimentConfig, grid: CylinderGrid,
                  plateau: CrossSectionField | None) -> Field:
    """Construct the configured initial datum (single-field families)."""
    p = cfg.initial_params
    rng = np.random.default_rng(cfg.seed)
    plat = plateau.values if plateau is not None else 1.0
    vals = front_seed(grid, p["amplitude"] * plat, p["offset"], p["steepness"]).values
    if cfg.initial_family == "plateau_noise" and p["noise"] > 0:
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
        runner(cfg, out_dir, manifest)
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


def _run_wave(cfg, out_dir, manifest):
    grid, model = cfg.make_grid(), cfg.make_model()
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


def _run_converge(cfg, out_dir, manifest):
    grid, model = cfg.make_grid(), cfg.make_model()
    plateau, ws = _solve_configured_wave(cfg, grid, model)
    u0 = build_initial(cfg, grid, plateau.v)

    # left-plateau admissibility of the datum: min over the left edge >= v - alpha
    left = u0.values[:, grid.z <= grid.z_min + 5.0]
    inidat_ok = bool(np.min(left - (plateau.v.values[:, None] - cfg.alpha)) >= 0.0)
    manifest.check("initial_datum_left_plateau", inidat_ok)

    trace = track(model, ws, u0, cfg.dt, cfg.horizon, delta=cfg.delta,
                  sample_every=cfg.sample_every)
    trace_to_csv(trace, os.path.join(out_dir, "trace.csv"))
    manifest.add_file(out_dir, "trace.csv")

    sigma, quality = fit_decay(trace)
    manifest.results.update({
        "speed": ws.speed,
        "speed_err_est": ws.speed_err_est,
        "sigma": sigma,
        "fit_quality": quality,
        "fit_window_lo": trace.fit_window[0],
        "fit_window_hi": trace.fit_window[1],
        "R_infinity": trace.R_infinity,
        "tracker_iters_max": trace.tracker_iters_max,
        "tracker_cap_hits": trace.tracker_cap_hits,
    })
    manifest.check("tracker_no_cap_hits", trace.tracker_cap_hits == 0,
                   "%d capped calls" % trace.tracker_cap_hits)
    manifest.check("sigma_positive", sigma > 0.0, "%.4g" % sigma)
    manifest.check("fit_quality", quality >= 0.99, "%.4f" % quality)

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


def _run_gap(cfg, out_dir, manifest):
    """The gap K_h of the configured wave, and of the half-grid wave that
    ``solve_wave`` carried to it, K_2h: ``gap_err_est = (K_h - K_2h) / 3``
    is the Richardson estimate of K_h's error (the scheme is second order).
    The two levels must agree within 5% of K_h; a grid without a half grid
    has no second level and fails that check."""
    grid, model = cfg.make_grid(), cfg.make_model()
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
    manifest.check("gap_positive", gap.gap_positive, "%.4g" % gap.gap)
    manifest.check("gap_levels_agree", drift <= 0.05, detail)
    manifest.check("constraint_orthogonal", gap.constraint_residual <= 1e-10)


# OpenBLAS takes its thread count from the first of these that holds a
# positive integer when it loads, and starts one thread per CPU when none does
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_threads():
    """OpenBLAS's thread count as its environment sets it, or None if unset."""
    for name in _BLAS_THREAD_VARIABLES:
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return None


def _secondary(*args, **kwargs):
    """``secondary_speed`` in the worker, looked up by name there (a wrapper
    bound here at run time still runs).  An exception that would not
    unpickle becomes a ``RuntimeError`` naming it, chained to it."""
    try:
        return secondary_speed(*args, **kwargs)
    except Exception as exc:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            raise RuntimeError("the worker process raised %r, which does not pickle"
                               % exc) from exc
        raise


@contextlib.contextmanager
def _started_secondary(*args, **kwargs):
    """Start ``secondary_speed(*args, **kwargs)`` beside the caller's own work
    and yield a function that returns its result.

    The call runs in a forked worker process only where that process finds
    a CPU left idle: this process may use two or more CPUs, it was not
    itself started by ``multiprocessing`` (a ``sweep`` pool process, whose
    siblings take the other CPUs), and OpenBLAS runs one thread (unpinned,
    this process's BLAS threads already use every CPU).  Otherwise
    ``secondary_speed`` runs in-process when its result is asked for.

    The worker is the one process of a fork-context ``ProcessPoolExecutor``,
    which forks it before it starts its manager thread, so this process runs
    one thread at the fork (the CLI and ``sweep``'s pool processes start no
    other): the fork copies only the forking thread.  The arguments are
    pickled on the way in (tens of kB).  The result, or the exception with
    its own type and message chained to the worker's traceback, comes back
    through the executor, whose thread reads it as soon as it is sent.  The
    context exits after the worker has finished, also when the caller
    leaves without the result.  A worker that dies raises
    ``BrokenProcessPool``, a ``RuntimeError``.
    """
    if (len(os.sched_getaffinity(0)) < 2 or multiprocessing.parent_process() is not None
            or _blas_threads() != 1):
        yield lambda: secondary_speed(*args, **kwargs)
        return
    with concurrent.futures.ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("fork")) as pool:
        yield pool.submit(_secondary, *args, **kwargs).result


def _run_secondary(cfg, out_dir, manifest):
    """Primary and secondary speeds over the configured plateau, each with
    its two-level estimate.

    Both waves depend only on the plateau, so the secondary one
    (``secondary_speed``) is solved in a forked worker process while this
    process solves the primary one, where the worker finds an idle CPU (see
    ``_started_secondary``); elsewhere both run here, one after the other.
    The worker still pays with both waves on two levels: on 2 CPUs the
    stacked config's ``solve_s`` was 0.23 s with it and 0.35 s in-process,
    and a start costs about 10 ms.  Spans and profilers of this process
    do not see the worker.
    """
    grid, model = cfg.make_grid(), cfg.make_model()
    plateau = _plateau_state(model, grid, cfg.plateau_seed)
    with _started_secondary(model, grid, plateau, c_seed=cfg.c_seed) as secondary:
        ws = solve_wave(model, grid, front_seed(grid, plateau.v), cfg.c_seed)
        sec = secondary()
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


def _run_comparison(cfg, out_dir, manifest):
    grid, model = cfg.make_grid(), cfg.make_model()
    plateau, ws = _solve_configured_wave(cfg, grid, model)
    u0 = build_initial(cfg, grid, plateau.v)
    lo, hi = sandwich_pair(u0, ws, cfg.initial_params["separation"])
    rep = compare_evolutions([lo, u0, hi], model, cfg.horizon, cfg.dt, ws.speed)
    manifest.results["max_ordering_violation"] = rep.max_violation
    manifest.check("sandwich_ordered", rep.ordered, "%.3g" % rep.max_violation)


def _run_hypotheses(cfg, out_dir, manifest):
    grid, model = cfg.make_grid(), cfg.make_model()
    rep = check_hypotheses(model, grid)
    nu = principal_eigenpair(model, grid)
    adm = check_speed_admissible(model, grid, cfg.c_trial)
    manifest.results.update({
        "zero_state_ok": rep.zero_state_ok,
        "upper_state_ok": rep.upper_state_ok,
        "drive_integral_min": float(np.min(rep.drive_integral)),
        "holder_quotient_f": rep.holder_quotient_f,
        "holder_quotient_f_u": rep.holder_quotient_f_u,
        "eigenvalue_at_zero": nu.value,
        "admissible_best_energy": adm.best_energy,
        "discriminant_ok": adm.discriminant_ok,
    })
    manifest.check("structural_assumptions", rep.passed())
    manifest.check("potential_consistent", rep.potential_consistent)
