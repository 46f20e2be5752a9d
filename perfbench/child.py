"""Traced child process for the cli-small workload and the set-up probes.

Usage: python child.py SPANS_JSON OP_ID [titeica argv ...]

Times ``import numpy`` and ``import titeica`` as spans, then, when an argv
is given, installs the layer wrappers from :mod:`tracer` and calls
``titeica.cli.main(argv)`` exactly as ``python -m titeica.cli`` would.
The spans are written to SPANS_JSON once, at exit, and the exit status is
the command's.  The directory holding ``src`` must be on PYTHONPATH.
"""

import time

FIRST_NS = time.perf_counter_ns()

import sys  # noqa: E402

from tracer import Tracer, install  # noqa: E402


def main(argv: list[str]) -> int:
    path, op, cmd = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer(op)
    tracer.add("harness.bootstrap", FIRST_NS, time.perf_counter_ns(), -1, op)
    i = tracer.open("setup.numpy_import")
    import numpy  # noqa: F401

    tracer.close(i)
    i = tracer.open("setup.titeica_import")
    import titeica.cli

    tracer.close(i)
    code = 0
    try:
        if cmd:
            i = tracer.open("harness.install")
            install(tracer)
            tracer.close(i)
            code = titeica.cli.main(cmd)
    finally:
        tracer.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
