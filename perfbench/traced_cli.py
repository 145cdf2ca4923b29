"""Run one stable-extrap CLI command with the layer wrappers installed.

    python3 perfbench/traced_cli.py SPANS.json extrapolate --input ...

Records the package import as a span, installs the tracer, calls cli.main
with the remaining arguments, writes the spans and exits with main's code.
"""

import time

_start = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402

from stable_extrap import cli  # noqa: E402
from tracing import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    tracer.spans.append(["import", _start, time.perf_counter_ns(), -1, 0])
    tracer.install()
    code = tracer.wrap("cli.main", cli.main)(sys.argv[2:])
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    sys.exit(code)
