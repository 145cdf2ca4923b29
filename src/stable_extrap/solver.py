"""Least-squares polynomial fitting via the normal equations.

fit covers the paper's regime alone: N+1 equispaced samples and
M <= sqrt(N)/2. There the Chebyshev Gram has kappa <= 187.5(2M+1) whatever
N is, so Cholesky on the normal equations is the right tool; QR on the tall
design matrix would forfeit the O(M^2) fast assembly for no stability gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import ChebyshevSeries, SampleSet
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
    """fit's least-squares Chebyshev series and its Gram's conditioning."""

    series: ChebyshevSeries
    m_degree: int
    n_samples: int
    gram_cond_estimate: float  # kappa_2 of gram, the design's kappa squared
    sigma_min: float  # smallest singular value of the design matrix
    warnings: tuple[str, ...] = ()  # always empty; the benchmark tracer reads it

    @property
    def gram(self) -> np.ndarray:
        """The Chebyshev Gram that was solved, read-only. It depends on
        (M, N) alone, so a kept result holds O(M) numbers and the Gram is
        read from fit's (M, N) cache, rebuilt with the same bits on a miss."""
        return _normal_matrix(self.m_degree, self.n_samples)[0]


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
    s = np.zeros((m_degree + 1, m_degree + 1))
    for p, block in enumerate(_basis_change_blocks(m_degree)):
        s[p::2, p::2] = block
    return s


def _basis_change_blocks(m_degree: int) -> list[np.ndarray]:
    """S[p::2, p::2] for p = 0, 1 (one block at M = 0), built without S.

    Row i of S holds S[i, i + 2h] = (2/pi) psi(h) psi(i + h), so block p has
    entry (a, b) = (2/pi) psi(b - a) psi(p + a + b) for b >= a: a Toeplitz
    factor times a Hankel one, both zero-copy windows on psi_table. Row 0 is
    psi(h)^2 / pi instead. Each entry is rounded as in the row formula.
    """
    if m_degree < 0:
        raise ValueError("degree must be nonnegative")
    table = psi_table(m_degree + 1)
    windows = np.lib.stride_tricks.sliding_window_view
    blocks = []
    for p in range(min(2, m_degree + 1)):
        n = (m_degree - p) // 2 + 1
        # toeplitz[a, b] = (2/pi) psi(b - a), and 0 below the diagonal.
        padded = np.concatenate((np.zeros(n - 1), 2.0 / math.pi * table[:n]))
        toeplitz = windows(padded, n)[::-1]
        block = np.multiply(toeplitz, windows(table[p:p + 2 * n - 1], n),
                            out=np.empty((n, n)))
        if p == 0:
            block[0] = table[:n] ** 2 / math.pi
        blocks.append(block)
    return blocks


def fit(samples: SampleSet, m_degree: int) -> FitResult:
    """Least-squares Chebyshev fit of degree M to the sample values.

    The grid is x_k = 2k/N - 1, which Grid checks. N >= 4M^2, that is
    M <= sqrt(N)/2, or ValueError is raised: past that boundary the fast
    Gram's truncated correction series is no longer accurate (1e-5 N at
    M = 20, N = 100) and the paper's conditioning bound does not hold. The
    Gram G and b take O(M^2 + MN). On the mirrored grid every entry of G
    with m+n odd is exactly 0, so the system splits into the even-degree and
    the odd-degree equations, g[p::2, p::2] c[p::2] = b[p::2] for p = 0, 1,
    which an unshifted Cholesky solves apart at half size. The interleaved
    solution is verified against the whole system to a residual of
    1e-10 * ||b|| (else SolverError); sigma_min and kappa come from G's
    spectral_report. G, its Cholesky factors and that report depend on
    (M, N) alone and come from a cache of the last two (M, N)
    (_normal_matrix), so a repeat fit computes only b, two pairs of
    triangular solves and the residual.

    The fit is linear in y. When max|b| passes 2^500, past which ||b||^2
    in the residual check could overflow, or b itself overflows, the samples
    are fitted scaled by a power of two, exactly for normal numbers, and the
    coefficients are scaled back; coefficients that then overflow raise
    ValueError.
    """
    n = samples.n
    if m_degree < 0:
        raise ValueError("degree must be nonnegative")
    if n < 4 * m_degree * m_degree:
        raise ValueError(
            f"degree M={m_degree} exceeds sqrt(N)/2={0.5 * math.sqrt(n):.2f} "
            f"(N={n}); fit needs N >= 4M^2")

    with np.errstate(over="ignore", invalid="ignore"):
        b = rhs(samples.grid, samples.values, m_degree)
    exponent = 0
    if not np.max(np.abs(b)) <= 2.0 ** 500:
        exponent = math.frexp(np.max(np.abs(samples.values)))[1]
        b = rhs(samples.grid, np.ldexp(samples.values, -exponent), m_degree)
    g, lows, report = _normal_matrix(m_degree, n)
    coeffs = np.empty(m_degree + 1)
    # numpy has no triangular solver; np.linalg.solve's O(M^3) LU costs
    # well under a millisecond at the degrees used here.
    for p, low in enumerate(lows):
        coeffs[p::2] = np.linalg.solve(low.T, np.linalg.solve(low, b[p::2]))

    resid = float(np.linalg.norm(g @ coeffs - b))
    if not resid <= 1e-10 * max(float(np.linalg.norm(b)), 1e-300):
        raise SolverError(
            f"normal-equation residual {resid:.3e} exceeds tolerance "
            f"(M={m_degree}, N={n})"
        )
    if exponent:
        with np.errstate(over="ignore"):
            coeffs = np.ldexp(coeffs, exponent)
        if not np.all(np.isfinite(coeffs)):
            raise ValueError(f"the samples overflow the degree-{m_degree} fit's "
                             f"coefficients (N={n})")

    return FitResult(ChebyshevSeries(coeffs), m_degree, n, report.cond2 ** 2,
                     report.sigma_min)


@lru_cache(maxsize=2)
def _normal_matrix(m_degree: int, n_samples: int):
    """fit's work that depends on (M, N) alone, cached for the last two
    (M, N): the read-only gram_fast(M, N), the read-only Cholesky factors L
    (g = L L^T) of its parity blocks g[p::2, p::2], p = 0, 1 (one block at
    M = 0), and its spectral_report. gram_fast and spectral_report are
    called through this module's globals, so that a wrapper set there sees
    each miss. np.linalg.cholesky raises LinAlgError unless a block is
    positive definite, which fit's Grams, and so their parity blocks, are
    (tested up to M = 600 at N = 4M^2); an error is not cached. At M = 1000
    an entry holds about 12 MB: the 8 MB Gram and two 2 MB factors."""
    g = gram_fast(m_degree, n_samples)
    g.setflags(write=False)
    lows = tuple(np.linalg.cholesky(g[p::2, p::2]) for p in range(min(2, m_degree + 1)))
    for low in lows:
        low.setflags(write=False)
    return g, lows, spectral_report(g)
