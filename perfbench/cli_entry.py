"""Timed, optionally traced, entry point for one `lmhs` invocation.

    python3 perfbench/cli_entry.py REPORT TRACE ARGS...

REPORT is a JSON file to write the timings to (and the spans, when TRACE is
1); ARGS is the lmhs command line.  Like the `lmhs` console script it imports
``lmhs.cli`` and calls ``main(argv)``, so stdout and the exit code match a
plain invocation.  ``lmhs`` must be importable (the benchmark sets
PYTHONPATH to the checkout's ``src``).
"""

import json
import sys
import time

T_START = time.perf_counter()

import lmhs.cli  # noqa: E402


def main() -> int:
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t_main = time.perf_counter()
    try:
        return lmhs.cli.main(argv)
    finally:
        timings = {"main_s": time.perf_counter() - t_main, "pre_main_s": t_main - T_START}
        if tracer is not None:
            tracer.dump(report_path, timings)
        else:
            with open(report_path, "w", encoding="utf-8") as fh:
                json.dump(timings, fh)


if __name__ == "__main__":
    sys.exit(main())
