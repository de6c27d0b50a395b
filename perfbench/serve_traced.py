"""Run the analysis daemon with the benchmark's layer spans installed.

Usage: ``python perfbench/serve_traced.py --trace-out FILE [serve args]``
(with ``src`` on ``PYTHONPATH``).  Behaves exactly like
``python -m repro.serve [serve args]``; when the daemon exits (SIGTERM) the
span report is written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

import spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    args, serve_args = parser.parse_known_args(argv)
    tracer = spans.Tracer()
    tracer.install()
    try:
        from repro.serve.__main__ import main as serve_main

        return serve_main(serve_args)
    finally:
        tracer.uninstall()
        with open(args.trace_out, "w") as out:
            json.dump(tracer.report(), out)


if __name__ == "__main__":
    sys.exit(main())
