"""Traced stand-in for ``python -m invariant_states``.

Usage: python3 perfbench/cli_child.py SPANS_PATH CLI_ARG...

Imports the package (timed as ``import_ms``), installs the layer
wrappers, runs ``invariant_states.cli.main`` inside a ``cli.main`` span,
writes the spans to SPANS_PATH and exits with main's exit code.
"""

import sys
import time

start = time.perf_counter()
import invariant_states.cli as cli  # noqa: E402

import_ms = (time.perf_counter() - start) * 1e3

from tracing import Tracer, install  # noqa: E402


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    code = 2
    try:
        with tracer.span("cli.main"):
            code = cli.main(argv)
    finally:
        main_ms = (tracer.spans[0][2] - tracer.spans[0][1]) * 1e3 if tracer.spans else 0.0
        tracer.dump(path, import_ms=import_ms, main_ms=main_ms)
    return code


if __name__ == "__main__":
    sys.exit(main())
