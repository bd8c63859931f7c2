"""One cylwave CLI invocation in a fresh process, timed from inside.

    python3 child.py <launch> <report.json> <mode> <cli argument>...

``launch`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is shared between processes).  ``mode`` is one of

- ``setup``: stop when ``run_scenario`` is entered (interpreter start,
  ``import cylwave`` and config parsing only);
- ``plain``: the full invocation, timing only ``run_scenario``;
- ``trace``: the full invocation with every layer entry point wrapped.

The report holds the setup and solve times and, when traced, the spans and
counters.  The exit code is the CLI's.
"""

import json
import sys
import time


class _SetupDone(BaseException):
    """Raised at the entry of run_scenario in setup mode (not an Exception,
    so the CLI's scenario error handler lets it through)."""


def main():
    launch, report_path, mode = float(sys.argv[1]), sys.argv[2], sys.argv[3]
    cli_args = sys.argv[4:]
    report = {"mode": mode}
    t0 = time.monotonic()
    import cylwave  # noqa: F401
    report["import_s"] = time.monotonic() - t0
    import cylwave.cli as cli

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap(cli.main, "cli.main")
    else:
        entry = cli.main

    inner = cli.run_scenario

    def timed_run_scenario(cfg, out_dir):
        report["setup_s"] = time.monotonic() - launch
        if mode == "setup":
            raise _SetupDone()
        t = time.monotonic()
        try:
            return inner(cfg, out_dir)
        finally:
            report["solve_s"] = time.monotonic() - t

    cli.run_scenario = timed_run_scenario
    try:
        code = entry(cli_args)
    except _SetupDone:
        code = 0
    if tracer is not None:
        report["spans"] = tracer.spans
        report["counters"] = tracer.counters
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
