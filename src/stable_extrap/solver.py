"""Least-squares polynomial fitting via the normal equations.

fit covers the paper's regime alone: N+1 equispaced samples and
M <= sqrt(N)/2. There the Chebyshev Gram has kappa <= 187.5(2M+1) whatever
N is, so Cholesky on the normal equations is the right tool; QR on the tall
design matrix would forfeit the O(M^2) fast assembly for no stability gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import Basis, ChebyshevSeries, LegendreSeries, SampleSet
from .fastgram import gram_fast, rhs
from .vandermonde import (
    design_matrix,  # unused; the benchmark tracer wraps it (ROADMAP item 0)
    dominant_eigenvalue,  # unused; the benchmark tracer wraps it (ROADMAP item 0)
    gram_naive,  # unused; the benchmark tracer wraps it (ROADMAP item 0)
    jacobi_eigenvalues,  # unused; the benchmark tracer wraps it (ROADMAP item 0)
    spectral_report,
)


class SolverError(RuntimeError):
    """Numerical failure while solving the normal equations."""


@dataclass(frozen=True)
class FitResult:
    series: ChebyshevSeries | LegendreSeries
    m_degree: int
    n_samples: int
    gram_cond_estimate: float  # kappa_2 of gram, the design's kappa squared
    sigma_min: float  # smallest singular value of the design matrix
    warnings: tuple[str, ...] = ()  # always empty; the benchmark tracer reads it

    @property
    def gram(self) -> np.ndarray:
        """The normal-equation matrix that was solved, read-only. It depends
        on (M, N) alone, so a kept result holds O(M) numbers and the Gram is
        rebuilt on each access, with the bits the solve used."""
        basis = (Basis.CHEBYSHEV if isinstance(self.series, ChebyshevSeries)
                 else Basis.LEGENDRE)
        g = _equispaced_gram(self.m_degree, self.n_samples, basis)
        g.setflags(write=False)
        return g


def psi(i: int) -> float:
    """Ratio Gamma(i + 1/2)/Gamma(i + 1), entry i of psi_table."""
    if i < 0:
        raise ValueError("psi is defined for nonnegative integers")
    return float(psi_table(i)[i])


def psi_table(n: int) -> np.ndarray:
    """psi(0), ..., psi(n) by the downward recurrence.

    Starts from psi(0) = sqrt(pi) and multiplies by (j + 1/2)/(j + 1), so no
    Gamma evaluations (and no overflow) are involved; the sequence decreases
    monotonically like 1/sqrt(i).
    """
    out = np.empty(n + 1)
    out[0] = math.sqrt(math.pi)
    for j in range(n):
        out[j + 1] = out[j] * (j + 0.5) / (j + 1.0)
    return out


def basis_change_matrix(m_degree: int) -> np.ndarray:
    """Matrix S with c_cheb = S c_leg for degree-M coefficient vectors: upper
    triangular, nonnegative, zero where i + j is odd, and ||S||_2 < 5."""
    if m_degree < 0:
        raise ValueError("degree must be nonnegative")
    table = psi_table(m_degree + 1)
    s = np.zeros((m_degree + 1, m_degree + 1))
    for j in range(0, m_degree + 1, 2):
        s[0, j] = table[j // 2] ** 2 / math.pi
    for i in range(1, m_degree + 1):
        # Row i holds S[i, i + 2h] = (2/pi) psi(h) psi(i + h).
        h = np.arange((m_degree - i) // 2 + 1)
        s[i, i::2] = 2.0 / math.pi * table[h] * table[h + i]
    return s


def legendre_to_chebyshev(series: LegendreSeries) -> ChebyshevSeries:
    """Convert a Legendre series to the Chebyshev series of the same polynomial."""
    s = basis_change_matrix(series.degree)
    return ChebyshevSeries(s @ series.coeffs)


def _equispaced_gram(m_degree: int, n: int, basis: Basis) -> np.ndarray:
    """fit's normal-equation matrix: the Chebyshev Gram G, or S^T G S for a
    Legendre fit (V_leg = V_cheb S). numpy's einsum loops, not BLAS, form the
    products, so the bits do not depend on the BLAS thread count."""
    g = gram_fast(m_degree, n)
    if basis == Basis.LEGENDRE:
        s = basis_change_matrix(m_degree)
        sgs = np.einsum("ki,kj->ij", s, np.einsum("kl,lj->kj", g, s))
        g = 0.5 * (sgs + sgs.T)
    return g


def fit(samples: SampleSet, m_degree: int,
        basis: Basis = Basis.CHEBYSHEV) -> FitResult:
    """Least-squares polynomial fit of degree M to the sample values.

    The grid is x_k = 2k/N - 1, which Grid checks. N >= 4M^2, that is
    M <= sqrt(N)/2, or ValueError is raised: past that boundary the fast
    Gram's truncated correction series is no longer accurate (1e-5 N at
    M = 20, N = 100) and the paper's conditioning bound does not hold. The
    Chebyshev Gram G and b take O(M^2 + MN) in either basis: V_leg = V_cheb S
    with S = basis_change_matrix(M), so a Legendre fit solves
    S^T G S c = S^T b. An unshifted Cholesky solves the system, which is
    verified to a residual of 1e-10 * ||b|| (else SolverError); sigma_min and
    kappa come from the solved Gram.
    """
    basis = Basis(basis)
    n = samples.n
    if m_degree < 0:
        raise ValueError("degree must be nonnegative")
    if n < 4 * m_degree * m_degree:
        raise ValueError(
            f"degree M={m_degree} exceeds sqrt(N)/2={0.5 * math.sqrt(n):.2f} "
            f"(N={n}); fit needs N >= 4M^2")

    g = _equispaced_gram(m_degree, n, basis)
    b = rhs(samples.grid, samples.values, m_degree)
    if basis == Basis.LEGENDRE:
        b = np.einsum("ki,k->i", basis_change_matrix(m_degree), b)
    coeffs = _cholesky_solve(g, b)

    resid = float(np.linalg.norm(g @ coeffs - b))
    if resid > 1e-10 * max(float(np.linalg.norm(b)), 1e-300):
        raise SolverError(
            f"normal-equation residual {resid:.3e} exceeds tolerance "
            f"(M={m_degree}, N={n})"
        )

    report = spectral_report(g)
    series = (ChebyshevSeries(coeffs) if basis == Basis.CHEBYSHEV
              else LegendreSeries(coeffs))
    return FitResult(series, m_degree, n, report.cond2 ** 2, report.sigma_min)


def _cholesky_solve(g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve g c = b through g = L L^T; raises LinAlgError unless g is
    positive definite, which fit's Grams are (tested up to M = 600 at
    N = 4M^2). numpy has no triangular solver, so L and L^T go through
    np.linalg.solve, whose O(M^3) LU costs well under a millisecond at the
    degrees used here."""
    low = np.linalg.cholesky(g)
    return np.linalg.solve(low.T, np.linalg.solve(low, b))
