import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from numpy.polynomial import chebyshev

import stable_extrap
from stable_extrap import Basis
from stable_extrap.vandermonde import design_matrix, gram_naive, spectral_report

SRC = str(Path(stable_extrap.__file__).resolve().parents[1])


# Appended to each script of outputs_per_blas_thread_count: print, as the
# last line, the thread count that the OpenBLAS numpy loaded actually runs,
# read through ctypes from that library.
_PRINT_BLAS_THREADS = """
import ctypes, numpy
_libs = {_line.split()[-1] for _line in open("/proc/self/maps")
         if "openblas" in _line.lower() and ".so" in _line}
_counts = set()
for _lib in map(ctypes.CDLL, _libs):
    _counts |= {getattr(_lib, _name)() for _name in (
        "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
        "openblas_get_num_threads") if hasattr(_lib, _name)}
assert len(_counts) == 1, f"no single OpenBLAS thread count in {sorted(_libs)}"
print(_counts.pop())
"""


@pytest.fixture
def outputs_per_blas_thread_count():
    """Run a Python script once under each OPENBLAS_NUM_THREADS in
    `threads` (by default 1 and 2), each in a fresh interpreter that imports
    this checkout's package, and return the stripped stdouts in that order.
    A script that prints hashes of its results shows whether their bits
    depend on the BLAS thread count. OpenBLAS caps the count at the host's
    processors, so 4 runs as 2 on a 2-processor host; each child reports the
    count it really ran, and the fixture fails unless at least two distinct
    counts ran, so a 1-processor host cannot compare 1 thread with 1."""

    def run(script: str, threads: tuple[str, ...] = ("1", "2")) -> list[bytes]:
        outputs, counts = [], []
        for count in threads:
            env = {**os.environ, "OPENBLAS_NUM_THREADS": count,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run([sys.executable, "-c", script + _PRINT_BLAS_THREADS],
                                  env=env, capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr.decode()
            output, _, ran = proc.stdout.strip().rpartition(b"\n")
            outputs.append(output.strip())
            counts.append(int(ran))
        assert len(set(counts)) >= 2, (
            f"OPENBLAS_NUM_THREADS={threads} ran {counts} threads: "
            "no two thread counts to compare on this host")
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


@pytest.fixture(scope="session")
def gram_oracle():
    """The tests' oracle for the equispaced Chebyshev Gram: V^T V summed
    over 8192-row blocks of V (numpy's chebvander) in a fixed order, each by
    np.einsum, which does not call BLAS, then symmetrised. At (M, N) =
    (80, 409600) it took 1.5 s, where gram_naive takes about 12 s, and lay
    4.3e-16 N from both gram_naive and gram_fast."""

    def gram(m_degree, n):
        x = 2.0 * np.arange(n + 1) / n - 1.0
        g = np.zeros((m_degree + 1, m_degree + 1))
        for lo in range(0, n + 1, 8192):
            v = chebyshev.chebvander(x[lo:lo + 8192], m_degree)
            g += np.einsum("ki,kj->ij", v, v)
        return 0.5 * (g + g.T)

    return gram
