import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import stable_extrap
from stable_extrap import Basis
from stable_extrap.vandermonde import design_matrix, gram_naive, spectral_report

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


class DenseFit(NamedTuple):
    coeffs: np.ndarray
    gram: np.ndarray
    gram_cond_estimate: float


@pytest.fixture(scope="session")
def dense_fit():
    """The tests' oracle for fit on any grid and degree: the dense design
    matrix V, gram_naive(V), b = V^T y one column at a time and a Cholesky
    solve, in O(M^2 N) work with none of fit's fast assembly."""

    def solve(samples, m_degree, basis=Basis.CHEBYSHEV) -> DenseFit:
        v = design_matrix(samples.grid, m_degree, basis)
        g = gram_naive(v)
        b = np.array([float(np.sum(v[:, k] * samples.values))
                      for k in range(m_degree + 1)])
        low = np.linalg.cholesky(g)
        coeffs = np.linalg.solve(low.T, np.linalg.solve(low, b))
        return DenseFit(coeffs, g, spectral_report(g).cond2 ** 2)

    return solve
