"""Workloads, their seeded configs, and the correctness gate.

Each workload is a list of CLI invocations on shipped configs.  The
workload seed perturbs only the initial datum and the solver seeds
(``offset``, ``steepness``, ``separation``, ``c_seed``), never the model or
the grid, so the reference results below hold for every seed.
"""

from __future__ import annotations

import math
import os
import random

# name -> [(verb, shipped config, {(section, key): (base, spread, kind)})]
# kind "rel" multiplies the base by 1 + spread * u, "abs" adds spread * u,
# with u uniform in [-1, 1] drawn from the workload seed.  The spreads are
# small because the converge tracker's work is chaotic in the datum: even
# these move its derivative evaluations by several percent.
WORKLOADS = {
    # tracker-bound (locate_front); no 2D factorization
    "converge_1d": [
        ("converge", "converge_cubic_a25.cfg", {
            ("run", "c_seed"): (0.2, 0.01, "rel"),
            ("initial", "offset"): (2.0, 0.02, "abs"),
            ("initial", "steepness"): (1.0, 0.005, "rel"),
        })],
    # bound by sparse factorizations and solves; no tracking
    "stacked_2d": [
        ("secondary-speed", "secondary_stacked_dirichlet.cfg", {
            ("run", "c_seed"): (0.15, 0.01, "rel"),
        })],
    # set-up bound; the only workload with the gap, refinement and section
    # eigen/admissibility code, and freezing that rebuilds the stepper
    "verbs_1d": [
        ("wave", "wave_cubic_a25.cfg", {("run", "c_seed"): (0.2, 0.01, "rel")}),
        ("gap", "gap_cubic_a25.cfg", {("run", "c_seed"): (0.2, 0.01, "rel")}),
        ("compare", "compare_sandwich_a25.cfg", {
            ("run", "c_seed"): (0.2, 0.01, "rel"),
            ("initial", "offset"): (2.0, 0.02, "abs"),
            ("initial", "separation"): (5.0, 0.1, "abs"),
        }),
        ("check-hypotheses", "hypotheses_cubic_a25.cfg", {}),
    ],
}

# closed-form speed of the cubic front with a = 1/4
CUBIC_SPEED = (1.0 - 2.0 * 0.25) / math.sqrt(2.0)
CUBIC_SPEED_RTOL = 1e-4

# Richardson extrapolation of the stacked secondary speed from the shipped
# grid and the grid refined twice in each direction (printed by reference.py)
STACKED_SPEED = 0.07964639190149078
STACKED_SPEED_RTOL = 1e-2

# [results] of the shipped configs at the commit that added this benchmark,
# as (value, relative tolerance)
REFERENCE = {
    "converge": {"speed": (0.35355799106670183, 1e-9),
                 "sigma": (0.30840597719866741, 2e-2)},
    "secondary-speed": {"speed": (0.66245342726187206, 1e-7),
                        "secondary_speed": (0.079826484038951331, 1e-7)},
    "wave": {"speed": (0.35355799106672675, 1e-9)},
    "gap": {"speed": (0.35355799106672675, 1e-9),
            "gap": (0.28997799184445461, 1e-7)},
    "compare": {},
    "check-hypotheses": {"eigenvalue_at_zero": (0.25, 1e-9)},
}

# the verb whose speed is the workload's headline, and its reference
HEADLINE = {"converge": ("speed", CUBIC_SPEED, CUBIC_SPEED_RTOL),
            "wave": ("speed", CUBIC_SPEED, CUBIC_SPEED_RTOL),
            "secondary-speed": ("secondary_speed", STACKED_SPEED, STACKED_SPEED_RTOL)}


def seeded_config(text: str, overrides: dict, seed: int, verb: str) -> str:
    """Shipped config text with the perturbed keys set from the seed."""
    rng = random.Random("%d:%s" % (seed, verb))
    values = {}
    for (section, key), (base, spread, kind) in sorted(overrides.items()):
        u = rng.uniform(-1.0, 1.0)
        values[(section, key)] = base * (1.0 + spread * u) if kind == "rel" else base + spread * u
    out, section, done = [], None, set()

    def flush():
        for (sec, key), val in sorted(values.items()):
            if sec == section and (sec, key) not in done:
                out.append("%s = %r" % (key, val))
                done.add((sec, key))

    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            flush()
            section = stripped[1:-1].strip()
        elif "=" in stripped:
            key = stripped.split("=", 1)[0].strip()
            if (section, key) in values:
                out.append("%s = %r" % (key, values[(section, key)]))
                done.add((section, key))
                continue
        out.append(line)
    flush()
    missing = set(values) - done
    if missing:
        raise ValueError("config has no section for %s" % sorted(missing))
    return "\n".join(out) + "\n"


def read_manifest(path: str) -> dict:
    """{section: {key: value}} of a manifest; assertion comments are dropped."""
    out, section = {}, None
    with open(path) as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("[") and line.endswith("]"):
                section = out.setdefault(line[1:-1], {})
            elif "=" in line and section is not None:
                key, _, value = line.partition("=")
                section[key.strip()] = value.split(" # ", 1)[0].strip()
    return out


def check(verb: str, code: int, out_dir: str, digests: dict) -> tuple[list, float | None]:
    """Problems with one invocation's outputs, and its headline speed error.

    ``digests`` maps verb -> [files] of the first invocation with this seed;
    every later one must list the same files and sha256 digests.
    """
    problems = []
    if code != 0:
        problems.append("exit code %d" % code)
    path = os.path.join(out_dir, "manifest.txt")
    if not os.path.exists(path):
        return problems + ["no manifest"], None
    man = read_manifest(path)
    results = man.get("results", {})
    if man.get("run", {}).get("passed") != "true":
        problems.append("manifest not passed")
    failed = [k for k, v in man.get("assertions", {}).items() if v != "pass"]
    if failed or not man.get("assertions"):
        problems.append("assertions failed: %s" % (failed or "none listed"))
    for key, (ref, rtol) in REFERENCE[verb].items():
        try:
            value = float(results[key])
        except (KeyError, ValueError):
            problems.append("missing result %s" % key)
            continue
        if not abs(value - ref) <= rtol * abs(ref):
            problems.append("%s = %r, reference %r (rtol %g)" % (key, value, ref, rtol))
    rel_err = None
    if verb in HEADLINE:
        key, exact, rtol = HEADLINE[verb]
        try:
            rel_err = abs(float(results[key]) - exact) / exact
        except (KeyError, ValueError):
            problems.append("missing result %s" % key)
        else:
            if not rel_err <= rtol:
                problems.append("%s off its reference by %.3g (> %g)" % (key, rel_err, rtol))
    files = man.get("files", {})
    first = digests.setdefault(verb, files)
    if files != first:
        problems.append("[files] digests differ from the first run with this seed")
    return problems, rel_err
