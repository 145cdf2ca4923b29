"""The benchmark's tracer (perfbench/tracing.py) must find every package
name it wraps, so that a change which deletes or renames one fails here and
not only when the benchmark runs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import numpy as np
from tracing import Tracer
from stable_extrap import GridKind, ProblemParams, SampleSet, extrapolator, make_grid
tracer = Tracer()
tracer.install()
grid = make_grid(GridKind.EQUISPACED, 400)
samples = SampleSet(grid, 1.0 / (1.0 + grid.points ** 2))
extrapolator.extrapolate(samples, ProblemParams(400, 2.414, 1e-10, 1.5), [1.1])
print(" ".join(sorted({span[0] for span in tracer.spans})))
"""


def test_tracer_installs_and_records_spans():
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    layers = proc.stdout.decode().split()
    for layer in ("extrapolator.extrapolate", "solver.fit", "fastgram.gram_fast",
                  "fastgram.rhs", "vandermonde.spectral_report", "basis.clenshaw_eval"):
        assert layer in layers, layers
