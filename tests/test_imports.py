"""The CLI's import path stays on NumPy, scipy.linalg and scipy.sparse."""

import os
import subprocess
import sys
import textwrap

ABSENT = ("scipy.interpolate", "scipy.optimize", "scipy.integrate", "scipy.special")

SCRIPT = textwrap.dedent("""
    import os, sys
    import cylwave.cli as cli
    from cylwave.reactions import CubicBistable
    from cylwave.tracking import locate_front, track
    from cylwave.waves import load_solution
    from cylwave.weighted import translate

    out = sys.argv[1]
    cfg = os.path.join(out, "wave.cfg")
    with open(cfg, "w") as fh:
        fh.write("[grid]\\nn_z = 401\\nz_min = -30.0\\nz_max = 10.0\\n"
                 "[model]\\nname = cubic\\na = 0.25\\n"
                 "[run]\\nscenario = wave\\ndt = 0.1\\nc_seed = 0.2\\n")
    assert cli.main(["wave", "--config", cfg, "--out", os.path.join(out, "run")]) == 0
    ws = load_solution(os.path.join(out, "run", "wave.txt"))
    u0 = translate(ws.profile, 0.4)
    assert abs(locate_front(u0, ws, 0.0).position - 0.4) < 1e-3
    track(CubicBistable(a=0.25), ws, u0, dt=0.1, horizon=0.5)
    print(" ".join(sorted(m for m in sys.modules if m.startswith("scipy."))))
""")


def test_cli_run_leaves_heavy_scipy_subpackages_unloaded(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split("\n")[-2].split()
    assert "scipy.linalg" in loaded and "scipy.sparse" in loaded
    for name in ABSENT:
        assert not [m for m in loaded if m == name or m.startswith(name + ".")], name
