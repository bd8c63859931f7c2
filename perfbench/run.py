"""Benchmark of the cylwave CLI: time to a verified result, end to end and per layer.

    python3 perfbench/run.py --workload converge_1d --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
load is a closed loop from one process: each CLI invocation runs in a fresh
interpreter and starts only after the previous one exited.  A run first
launches the CLI a few times up to the point where the scenario would start
(set-up launches), then repeats the workload until ``--seconds`` have passed.
Every invocation must exit 0, pass every assertion in its manifest, match
the reference results in ``workloads.py`` and list the same ``[files]``
digests as the first invocation with the same seed.

``--trace 0`` prints the end-to-end metrics: medians over the run's
repetitions, with the times scaled to a reference host speed measured by a
fixed probe kernel run between repetitions (see ``PROBE_REF_S``; the raw
times are in the ``# diag`` line).  ``--trace 1`` alternates untraced and
traced repetitions and prints the per-layer metrics of the traced ones
(``tracer.py``), unscaled; the difference in wall time between the two
kinds is reported as ``trace.overhead_s``.  ``--workload all`` runs every
workload, interleaved in rounds.  Diagnostic lines start with ``#``; the
last line of standard output is the JSON result.  BLAS thread pools are
pinned to one thread in the benchmark and its children.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)  # before numpy starts its BLAS pool

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

import tracer  # noqa: E402
from workloads import WORKLOADS, check, seeded_config  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

SETUP_LAUNCHES = 3
INVOCATION_TIMEOUT_S = 100.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "max_rss_mb": "MB",
              "pass_frac": "ratio", "speed_rel_err": "ratio"}
PER_LAYER = {
    "init.import_s": "s", "config.parse_s": "s", "cli.self_s": "s",
    "scenarios.run_s": "s", "scenarios.io_s": "s", "scenarios.self_s": "s",
    "evolve.factor_n": "count", "evolve.factor_s": "s", "evolve.step_n": "count",
    "evolve.step_s": "s", "evolve.node_updates_per_s": "1/s",
    "evolve.energy_s": "s", "evolve.self_s": "s",
    "waves.freeze_s": "s", "waves.freeze_steps": "count", "waves.polish_s": "s",
    "waves.secondary_s": "s", "waves.refine_s": "s", "waves.gap_s": "s",
    "waves.gap_iters": "count", "waves.self_s": "s",
    "tracking.locate_n": "count", "tracking.locate_s": "s",
    "tracking.deriv_evals": "count", "tracking.iters_mean": "count",
    "tracking.iters_max": "count", "tracking.cap_hits": "count",
    "tracking.track_s": "s", "tracking.self_s": "s",
    "weighted.translate_n": "count", "weighted.translate_s": "s",
    "weighted.norm_s": "s", "weighted.self_s": "s",
    "sections.critical_point_s": "s", "sections.eigen_s": "s",
    "sections.eigen_iters": "count", "sections.admissible_s": "s",
    "sections.self_s": "s", "grids.operator_n": "count", "grids.operator_s": "s",
    "grids.self_s": "s", "config.self_s": "s", "trace.overhead_s": "s",
}
# per-layer values that must repeat exactly for a given seed
COUNTERS = [k for k, unit in PER_LAYER.items() if unit == "count"]


# On a shared 2-vCPU cloud host (Xeon, 2.1 GHz) the speed of a vCPU switched
# between two states, within seconds and over minutes, as other tenants
# loaded the same cores; raw times of repeated runs spread by up to 30%.
# End-to-end times are therefore scaled to a reference host speed by
# (PROBE_REF_S / median probe-kernel time of the run) ** PROBE_EXPONENT.  The
# probe samples the host before every repetition, for a tenth of the
# previous repetition's time, and once more at the end of the run; the
# median follows the state the host spent most of the run in.  The probe
# kernel slows more than the workloads do: across 29 runs of the three
# workloads, log raw time against log probe time had slopes 0.55-0.67.
PROBE_REF_S = 0.015
PROBE_EXPONENT = 0.6
PROBE_SHARE = 0.1
PROBE_MIN_S = 0.25


def _probe_operands(ny=40, nz=100):
    """I - 0.05 (2D Laplacian + advection) and a vector of one cylinder row."""
    def line(n, h, c):
        return sp.diags([np.full(n - 1, 1 / h**2 - c / (2 * h)), np.full(n, -2 / h**2),
                         np.full(n - 1, 1 / h**2 + c / (2 * h))], [-1, 0, 1])
    a = sp.kronsum(line(nz, 0.1, 0.3), line(ny, 0.25, 0.0))
    m = (sp.identity(ny * nz) - 0.05 * a).tocsc()
    return m, np.linspace(0.0, 1.0, ny * nz), np.linspace(0.0, 1.0, 1201)


PROBE_OPERANDS = _probe_operands()


def _probe_kernel():
    """One pass of a fixed kernel mixing the kinds of work cylwave does: a
    sparse LU with solves, NumPy on short vectors, and interpreter work."""
    m, rhs, v = PROBE_OPERANDS
    t = time.perf_counter()
    lu = spla.splu(m)
    for _ in range(10):
        lu.solve(rhs)
    for _ in range(100):
        v = np.sqrt(v * v + 1.0) - 0.5 * v
    counts = {}
    for i in range(5000):
        counts[i & 63] = counts.get(i & 63, 0) + i
    return time.perf_counter() - t


def host_probe(seconds):
    """Seconds per probe-kernel pass, one sample per pass, for ``seconds``."""
    samples = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        samples.append(_probe_kernel())
    return samples


def launch(mode, argv, report_path, log_path):
    """Run one child; return (exit code, wall seconds, resource usage, report)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with open(log_path, "w") as log:
        t = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, repr(t), report_path, mode] + argv,
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    report = {}
    if os.path.exists(report_path):
        with open(report_path) as fh:
            report = json.load(fh)
        os.remove(report_path)
    return proc.returncode, wall, usage, report


def _median(values):
    """Median, or None when every invocation that would give a value failed."""
    return statistics.median(values) if values else None


class Workload:
    """One workload's seeded configs and everything measured on it in a run."""

    def __init__(self, name, seed, work):
        self.name = name
        self.verbs = []
        self.dir = os.path.join(work, name)
        os.makedirs(self.dir)
        for verb, cfg_name, overrides in WORKLOADS[name]:
            with open(os.path.join(ROOT, "configs", cfg_name)) as fh:
                text = seeded_config(fh.read(), overrides, seed, verb)
            path = os.path.join(self.dir, cfg_name)
            with open(path, "w") as fh:
                fh.write(text)
            self.verbs.append((verb, path))
        self.count = 0
        self.attempted = self.failed = 0
        self.digests = {}
        self.setup, self.rss, self.rel_err = [], [], []
        self.wall = {"plain": [], "trace": []}
        self.probe = []  # probe-kernel seconds, pooled over the run
        self.solve, self.layers = [], []

    def _invoke(self, mode, verb, cfg):
        """Launch one CLI invocation; return (code, wall, usage, report, out dir, log)."""
        self.count += 1
        out = os.path.join(self.dir, "%04d-%s-%s" % (self.count, mode, verb))
        argv = [verb, "--config", cfg, "--out", out]
        code, wall, usage, report = launch(mode, argv, out + ".report.json", out + ".log")
        self.attempted += 1
        return code, wall, usage, report, out, out + ".log"

    def measure_setup(self):
        """A warm-up launch, then SETUP_LAUNCHES launches stopped at run_scenario."""
        for i in range(SETUP_LAUNCHES + 1):
            verb, cfg = self.verbs[i % len(self.verbs)]
            code, _, _, report, _, log = self._invoke("setup", verb, cfg)
            if code != 0 or "setup_s" not in report:
                self.failed += 1
                print("%s %s set-up failed: exit %d (log %s)" % (self.name, verb, code, log),
                      file=sys.stderr)
            elif i:
                self.setup.append(report["setup_s"])

    def sample_host(self):
        """Run the probe kernel for a tenth of the last repetition's time."""
        last = self.wall["plain"][-1:] + self.wall["trace"][-1:]
        self.probe += host_probe(max(PROBE_MIN_S, PROBE_SHARE * max(last, default=0.0)))

    def execute(self, mode):
        """Every invocation of the workload once, in order."""
        wall, solve, per_process = 0.0, 0.0, []
        self.sample_host()
        for verb, cfg in self.verbs:
            code, dt, usage, report, out, log = self._invoke(mode, verb, cfg)
            problems, rel_err = check(verb, code, out, self.digests)
            if problems:
                self.failed += 1
                print("%s %s failed: %s (log %s)" % (self.name, verb, "; ".join(problems), log),
                      file=sys.stderr)
            else:
                shutil.rmtree(out, ignore_errors=True)
                os.remove(log)
            if rel_err is not None:
                self.rel_err.append(rel_err)
            wall += dt
            solve += report.get("solve_s", 0.0)
            if "setup_s" in report and mode == "plain":
                self.setup.append(report["setup_s"])
            self.rss.append(usage.ru_maxrss / 1024.0)
            if mode == "trace" and "spans" in report:
                per_process.append(tracer.summarize(report["spans"], report["counters"],
                                                    report["import_s"]))
        self.wall[mode].append(wall)
        if mode == "plain":
            self.solve.append(solve)
        elif per_process:
            self.layers.append(tracer.combine(per_process))

    def result(self, trace):
        correct = self.failed == 0
        if trace:
            metrics = {}
            for key, unit in PER_LAYER.items():
                if key == "trace.overhead_s":
                    value = (statistics.median(self.wall["trace"])
                             - statistics.median(self.wall["plain"]))
                else:
                    values = [m[key] for m in self.layers]
                    if key in COUNTERS and len(set(values)) > 1:
                        correct = False
                        print("%s: counter %s differs between repeats: %s"
                              % (self.name, key, values), file=sys.stderr)
                    value = _median(values)
                metrics[key] = {"value": value, "unit": unit}
        else:
            attempted = max(self.attempted, 1)
            scale = self.host_scale()
            values = {
                "wall_s": scale * statistics.median(self.wall["plain"]),
                "setup_s": scale * _median(self.setup) if self.setup else None,
                "solve_s": scale * statistics.median(self.solve),
                "max_rss_mb": max(self.rss),
                "pass_frac": (attempted - self.failed) / attempted,
                "speed_rel_err": _median(self.rel_err),
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        return {"correct": correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}

    def host_scale(self):
        """Factor from this run's host speed to the reference speed."""
        return (PROBE_REF_S / statistics.median(self.probe)) ** PROBE_EXPONENT

    def diagnostics(self):
        q = statistics.quantiles(self.probe, n=4)
        return {"workload": self.name, "repeats": len(self.wall["plain"]),
                "traced_repeats": len(self.wall["trace"]),
                "invocations": self.attempted, "setup_samples": len(self.setup),
                "host_scale": self.host_scale(),
                "raw_wall_s_samples": self.wall["plain"],
                "raw_solve_s_samples": self.solve,
                "raw_setup_s_median": _median(self.setup),
                "host_probe_ms": {"mean": 1e3 * statistics.mean(self.probe),
                                  "median": 1e3 * statistics.median(self.probe),
                                  "q1": 1e3 * q[0], "q3": 1e3 * q[2], "n": len(self.probe)},
                "computed": ["evolve.node_updates_per_s = n_y*n_z*evolve.step_n"
                             " / evolve.step_s"]}


def environment(seed):
    """Where and on what the numbers were measured (diagnostic only)."""
    try:
        # the ceiling keeps git from reporting an enclosing repository
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
                             ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "cylwave")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = None
    from importlib.metadata import version
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": version("scipy"), "blas": blas,
            "blas_threads": PINNED_THREADS["OPENBLAS_NUM_THREADS"], "seed": seed}


def layout_problem():
    needed = [os.path.join("src", "cylwave", "cli.py")]
    for runs in WORKLOADS.values():
        needed += [os.path.join("configs", cfg) for _, cfg, _ in runs]
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    return "missing %s" % ", ".join(missing) if missing else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # turn a termination request into SystemExit, so that launch() kills and
    # reaps the running child before the benchmark exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    problem = layout_problem()
    if problem:
        print("benchmark needs a cylwave checkout: %s" % problem, file=sys.stderr)
        return 2

    # configs, outputs and logs of this run; kept when an invocation failed
    work = os.path.join(ROOT, ".bench_run", str(os.getpid()))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = [Workload(name, args.seed, work) for name in names]
    print("# env " + json.dumps(environment(args.seed)), flush=True)
    for w in runs:
        w.measure_setup()
    modes = ["plain", "trace"] if args.trace else ["plain"]
    start = time.monotonic()
    while True:
        # one round: every workload once per mode, so a slow spell of the
        # host hits all of them
        for w in runs:
            for mode in modes:
                w.execute(mode)
        if time.monotonic() - start >= args.seconds:
            break
    for w in runs:
        w.sample_host()
    results = {w.name: w.result(args.trace) for w in runs}
    for w in runs:
        print("# diag " + json.dumps(w.diagnostics()))
    if len(runs) == 1:
        final = results[runs[0].name]
    else:
        for name, res in results.items():
            print("# %s %s" % (name, json.dumps(res)))
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s.%s" % (n, k): v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    if final["correct"]:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
