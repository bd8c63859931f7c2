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
    from cylwave.sections import EigenResult
    from cylwave.waves import GapResult
    for cls in (EigenResult, GapResult):
        assert "iterations" in {f.name for f in dataclasses.fields(cls)}, cls
    print("ok")
""")


def test_tracer_installs_on_current_package():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
