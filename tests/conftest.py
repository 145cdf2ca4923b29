import os
import subprocess
import sys
from pathlib import Path

import pytest

import stable_extrap

SRC = str(Path(stable_extrap.__file__).resolve().parents[1])


@pytest.fixture
def outputs_per_blas_thread_count():
    """Run a Python script once under OPENBLAS_NUM_THREADS=1 and once under
    2, each in a fresh interpreter that imports this checkout's package, and
    return the two stripped stdouts. A script that prints hashes of its
    results shows whether their bits depend on the BLAS thread count."""

    def run(script: str) -> list[bytes]:
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout.strip())
        return outputs

    return run
