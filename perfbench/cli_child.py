"""Traced CLI process: install span wrappers, then run ``coopetition.cli.main``.

Usage: ``python -X importtime perfbench/cli_child.py <spans.json> <cli args...>``.
The process behaves like ``python -m coopetition.cli <cli args...>`` (same
output and exit code) and also writes its spans, counters, entry time and
loaded-module count to ``<spans.json>``.
"""

import time

ENTRY = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.trace import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import coopetition.cli

    modules_loaded = len(sys.modules)
    tracer = Tracer()
    tracer.install()
    rc = 1
    try:
        rc = sys.modules["coopetition.cli"].main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
        raise
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "entry": ENTRY,
                    "modules_loaded": modules_loaded,
                    "returncode": rc,
                    "spans": tracer.spans,
                    "counts": tracer.counts,
                },
                fh,
            )
    return rc


if __name__ == "__main__":
    sys.exit(main())
