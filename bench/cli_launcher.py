"""Run the apostol CLI under the span tracer: the traced form of ``python -m apostol.cli``.

    python3 bench/cli_launcher.py ARGS...

stdout and the exit code are the CLI's own.  The span dump goes to stderr
as one line starting with ``BENCH-TRACE ``, after anything the CLI wrote
there, so a traced op can be checked against the golden files unchanged.
"""

import json
import sys
from time import perf_counter

import apostol.cli
import tracer


def main() -> int:
    t = tracer.Tracer()
    t.install()
    t.start()
    t0 = perf_counter()
    try:
        rc = apostol.cli.main(sys.argv[1:])
    finally:
        t.stop(perf_counter() - t0)
        sys.stdout.flush()
        sys.stderr.write(tracer.TRACE_MARK + json.dumps(t.dump()) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
