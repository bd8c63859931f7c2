"""The benchmark's tracer (perfbench/tracer.py) wraps cylwave entry points by
name and reads counters from public result fields; this guards that contract."""

import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = textwrap.dedent("""
    import dataclasses
    from tracer import Tracer
    Tracer().install()
    from cylwave.sections import CriticalPoint, EigenResult
    from cylwave.waves import GapResult, WaveSolution
    for cls in (CriticalPoint, EigenResult, GapResult):
        assert "iterations" in {f.name for f in dataclasses.fields(cls)}, cls
    polish = {"newton_iterations", "factorizations"}
    assert polish <= {f.name for f in dataclasses.fields(WaveSolution)}
    print("ok")
""")

# every (h', h'') evaluation of locate_front, bracketing included, must go
# through the module-level mismatch_derivatives, so the tracer's per-call
# span count equals the FrontState's own count
DERIV_SCRIPT = textwrap.dedent("""
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    from cylwave import tracking
    from cylwave.grids import Field, GridConfig, build_grid
    from cylwave.reactions import CubicBistable
    from cylwave.waves import front_seed, solve_wave
    from cylwave.weighted import translate

    grid = build_grid(GridConfig(n_y=1, n_z=401, z_min=-20.0, z_max=20.0))
    ws = solve_wave(CubicBistable(a=0.25), grid, front_seed(grid, 1.0), c_seed=0.2)
    u = translate(ws.profile, 0.7)
    start = len(tracer.spans)
    fs = tracking.locate_front(u, ws, 0.0)
    spans = tracer.spans[start:]
    locate = [start + i for i, s in enumerate(spans) if s[1] == "tracking.locate"]
    assert len(locate) == 1, locate
    parents = [s[0] for s in spans if s[1] == "tracking.deriv"]
    assert parents == [locate[0]] * fs.iterations, (parents, fs.iterations)
    assert fs.iterations >= 3 and not fs.capped, fs
    print("ok")
""")

# the same over a short track run: each row holds its own call's count, and
# every (h', h'') evaluation of every call is one span
TRACK_SCRIPT = textwrap.dedent("""
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    from cylwave import tracking
    from cylwave.grids import GridConfig, build_grid
    from cylwave.reactions import CubicBistable
    from cylwave.waves import front_seed, solve_wave

    grid = build_grid(GridConfig(n_y=1, n_z=401, z_min=-25.0, z_max=15.0))
    model = CubicBistable(a=0.25)
    ws = solve_wave(model, grid, front_seed(grid, 1.0), c_seed=0.2)
    u0 = front_seed(grid, 1.0, offset=1.0, steepness=0.8)
    start = len(tracer.spans)
    trace = tracking.track(model, ws, u0, dt=0.1, horizon=2.0)
    spans = tracer.spans[start:]
    derivs = sum(1 for s in spans if s[1] == "tracking.deriv")
    locates = sum(1 for s in spans if s[1] == "tracking.locate")
    iters = trace.samples["tracker_iters"]
    assert locates == iters.size == 21, (locates, iters.size)
    assert derivs == int(iters.sum()) > iters.size, (derivs, iters)
    print("ok")
""")


def _run_with_tracer(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")])
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_tracer_installs_on_current_package():
    _run_with_tracer(SCRIPT)


def test_tracer_counts_every_tracker_evaluation():
    _run_with_tracer(DERIV_SCRIPT)


def test_tracer_counts_every_evaluation_of_a_track_run():
    _run_with_tracer(TRACK_SCRIPT)
