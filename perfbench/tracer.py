"""Spans and counters recorded at the public entry points of cylwave's layers.

The wrapping happens from outside the package: every entry point listed in
``ENTRY_POINTS`` is replaced by a timing wrapper in each cylwave module that
binds it (names imported with ``from ... import`` have one binding per
importing module), and the two ``Stepper`` methods are wrapped once on the
class.  A span records its name, its start and end, and the span that was
open when it started; counters come from the entry points' public return
values only.  ``summarize`` turns the spans of one process into the
per-layer metrics.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

# (module, attribute, span name); the span name's prefix is the layer
ENTRY_POINTS = [
    ("cylwave.config", "parse_config_file", "config.parse"),
    ("cylwave.scenarios", "run_scenario", "scenarios.run"),
    ("cylwave.scenarios", "write_manifest", "scenarios.io"),
    ("cylwave.waves", "save_solution", "scenarios.io"),
    ("cylwave.tracking", "trace_to_csv", "scenarios.io"),
    ("cylwave.grids", "transport_operator", "grids.operator"),
    ("cylwave.weighted", "translate", "weighted.translate"),
    ("cylwave.weighted", "weighted_inner", "weighted.norm"),
    ("cylwave.weighted", "weighted_norm_l2", "weighted.norm"),
    ("cylwave.weighted", "weighted_norm_h1", "weighted.norm"),
    ("cylwave.weighted", "weighted_norm_h2", "weighted.norm"),
    ("cylwave.sections", "find_critical_point", "sections.critical_point"),
    ("cylwave.sections", "principal_eigenpair", "sections.eigen"),
    ("cylwave.sections", "check_speed_admissible", "sections.admissible"),
    ("cylwave.evolve", "weighted_energy", "evolve.energy"),
    ("cylwave.waves", "freeze_frame", "waves.freeze"),
    ("cylwave.waves", "solve_wave", "waves.solve"),
    ("cylwave.waves", "refine_solution", "waves.refine"),
    ("cylwave.waves", "spectral_gap", "waves.gap"),
    ("cylwave.waves", "secondary_speed", "waves.secondary"),
    ("cylwave.tracking", "track", "tracking.track"),
    ("cylwave.tracking", "locate_front", "tracking.locate"),
    ("cylwave.tracking", "mismatch_derivatives", "tracking.deriv"),
    ("cylwave.tracking", "z_delta", "tracking.z_delta"),
]

LAYERS = ("cli", "config", "scenarios", "waves", "tracking", "evolve",
          "sections", "grids", "weighted")

# the tracker's stopping test, as written in tracking.locate_front
TRACKER_RTOL = 1e-12


class Tracer:
    """In-memory spans ``(parent, name, start, end)`` plus counters."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self._stack: list = []

    def wrap(self, fn, name, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (parent, name, t0, clock())
                stack.pop()
            if on_return is not None:
                on_return(self, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every entry point at every binding inside the cylwave package."""
        from cylwave import evolve, scenarios  # noqa: F401  (loads every module)

        hooks = {"waves.freeze": _count_freeze_steps,
                 "waves.gap": _count_gap_iterations,
                 "sections.eigen": _count_eigen_iterations,
                 "tracking.locate": _count_cap_hit}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "cylwave" or n.startswith("cylwave.")]
        for mod_name, attr, name in ENTRY_POINTS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self.wrap(original, name, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        cls = evolve.Stepper
        cls.__init__ = self.wrap(cls.__init__, "evolve.factor")
        cls.step = self.wrap(cls.step, "evolve.step", _count_nodes_per_step)
        manifest = scenarios.RunManifest
        manifest.add_file = self.wrap(manifest.add_file, "scenarios.io")


def _count_freeze_steps(tracer, result, args, kwargs):
    tracer.counters["waves.freeze_steps"] += result[2]


def _count_gap_iterations(tracer, result, args, kwargs):
    tracer.counters["waves.gap_iters"] += result.iterations


def _count_eigen_iterations(tracer, result, args, kwargs):
    tracer.counters["sections.eigen_iters"] += result.iterations


def _count_nodes_per_step(tracer, result, args, kwargs):
    grid = args[0].grid
    tracer.counters["evolve.node_updates"] += grid.n_y * grid.n_z


def _count_cap_hit(tracer, result, args, kwargs):
    """Recompute locate_front's stopping test from the returned FrontState.

    The loop stops once ``|h'| <= 1e-12 * sqrt(2 h) * ||profile_dz||_w``; a
    state that still fails the test used up the iteration cap.
    """
    from cylwave.weighted import quadrature_weights

    u, ws = args[0], args[1]
    w = quadrature_weights(u.grid, result.measure)
    dz_norm = math.sqrt(float((w * ws.profile_dz ** 2).sum()))
    tol = TRACKER_RTOL * max(math.sqrt(result.deviation_sq) * dz_norm, 1e-30)
    if result.ortho_residual > tol:
        tracer.counters["tracking.cap_hits"] += 1


def _outermost(spans, names):
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    out = []
    for parent, name, t0, t1 in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][1] not in names:
            p = spans[p][0]
        if p < 0:
            out.append((parent, name, t0, t1))
    return out


def _total(spans, *names):
    return sum(t1 - t0 for _, _, t0, t1 in _outermost(spans, set(names)))


def summarize(spans, counters, import_s):
    """Per-layer metrics of one process from its spans and counters."""
    spans = [tuple(s) for s in spans]
    n = defaultdict(int)
    child_time = [0.0] * len(spans)
    deriv_per_locate = defaultdict(int)
    for parent, name, t0, t1 in spans:
        n[name] += 1
        if parent >= 0:
            child_time[parent] += t1 - t0
            if name == "tracking.deriv" and spans[parent][1] == "tracking.locate":
                deriv_per_locate[parent] += 1
    self_s = defaultdict(float)
    for (parent, name, t0, t1), inner in zip(spans, child_time):
        self_s[name.split(".")[0]] += (t1 - t0) - inner

    freeze_in_solve = sum(t1 - t0 for p, name, t0, t1 in spans
                          if name == "waves.freeze" and p >= 0
                          and spans[p][1] == "waves.solve")
    iters = list(deriv_per_locate.values())
    m = {
        "init.import_s": import_s,
        "config.parse_s": _total(spans, "config.parse"),
        "scenarios.run_s": _total(spans, "scenarios.run"),
        "scenarios.io_s": _total(spans, "scenarios.io"),
        "grids.operator_n": n["grids.operator"],
        "grids.operator_s": _total(spans, "grids.operator"),
        "weighted.translate_n": n["weighted.translate"],
        "weighted.translate_s": _total(spans, "weighted.translate"),
        "weighted.norm_s": _total(spans, "weighted.norm"),
        "sections.critical_point_s": _total(spans, "sections.critical_point"),
        "sections.eigen_s": _total(spans, "sections.eigen"),
        "sections.eigen_iters": counters.get("sections.eigen_iters", 0),
        "sections.admissible_s": _total(spans, "sections.admissible"),
        "evolve.factor_n": n["evolve.factor"],
        "evolve.factor_s": _total(spans, "evolve.factor"),
        "evolve.step_n": n["evolve.step"],
        "evolve.step_s": _total(spans, "evolve.step"),
        "evolve.node_updates": counters.get("evolve.node_updates", 0),
        "evolve.energy_s": _total(spans, "evolve.energy"),
        "waves.freeze_s": _total(spans, "waves.freeze"),
        "waves.freeze_steps": counters.get("waves.freeze_steps", 0),
        "waves.polish_s": _total(spans, "waves.solve") - freeze_in_solve,
        "waves.secondary_s": _total(spans, "waves.secondary"),
        "waves.refine_s": _total(spans, "waves.refine"),
        "waves.gap_s": _total(spans, "waves.gap"),
        "waves.gap_iters": counters.get("waves.gap_iters", 0),
        "tracking.track_s": _total(spans, "tracking.track"),
        "tracking.locate_n": n["tracking.locate"],
        "tracking.locate_s": _total(spans, "tracking.locate"),
        "tracking.deriv_evals": sum(iters),
        "tracking.iters_max": max(iters, default=0),
        "tracking.cap_hits": counters.get("tracking.cap_hits", 0),
    }
    for layer in LAYERS:
        m[layer + ".self_s"] = self_s[layer]
    return m


def combine(per_process):
    """Metrics of one repetition: the sum over its processes, plus ratios."""
    m = defaultdict(float)
    for metrics in per_process:
        for key, value in metrics.items():
            if key == "tracking.iters_max":
                m[key] = max(m[key], value)
            else:
                m[key] += value
    m["tracking.iters_mean"] = (m["tracking.deriv_evals"] / m["tracking.locate_n"]
                                if m["tracking.locate_n"] else 0.0)
    # computed, not measured: nodes advanced per second of implicit stepping
    m["evolve.node_updates_per_s"] = (m["evolve.node_updates"] / m["evolve.step_s"]
                                      if m["evolve.step_s"] > 0 else 0.0)
    return dict(m)
