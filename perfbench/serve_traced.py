"""Start ``repro serve`` with the benchmark's tracing wrappers installed.

Usage::

    PYTHONPATH=src python perfbench/serve_traced.py SPANS.json [serve flags]

The wrappers go in first, then the server's normal entry point runs with
the remaining arguments.  When the server drains (SIGTERM), the spans
recorded over its lifetime are written to ``SPANS.json``.  Untraced
benchmark runs start the unmodified ``python -m repro serve`` instead.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer, install  # noqa: E402


def main() -> int:
    spans_path, serve_args = sys.argv[1], sys.argv[2:]
    tracer = install(Tracer(), server=True)
    from repro.server.cli import main as serve_main

    try:
        return serve_main(serve_args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
