"""Least-squares polynomial fitting via the normal equations.

The Gram matrix is well conditioned whenever M <= sqrt(N)/2, so Cholesky on
the normal equations is the right tool here; QR on the tall design matrix
would forfeit the O(M^2) fast assembly path for no stability gain in this
regime. The grid and the degree pick how the normal equations are
assembled (fit).
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np

from .basis import Basis, ChebyshevSeries, GridKind, LegendreSeries, SampleSet
from .fastgram import GramMethod, gram_fast, rhs
from .vandermonde import (
    design_matrix,
    dominant_eigenvalue,  # unused; the benchmark tracer wraps it (ROADMAP item 0)
    dominant_singular_value,
    gram_naive,
    jacobi_eigenvalues,  # unused; the benchmark tracer wraps it (ROADMAP item 0)
    spectral_report,
)

__all__ = [
    "SolverError",
    "FitResult",
    "BasisChangeMatrix",
    "psi",
    "psi_table",
    "basis_change_matrix",
    "fit",
    "legendre_to_chebyshev",
]


class SolverError(RuntimeError):
    """Numerical failure while solving the normal equations."""


@dataclass(frozen=True)
class FitResult:
    series: ChebyshevSeries | LegendreSeries
    m_degree: int
    n_samples: int
    gram_cond_estimate: float  # kappa_2 of gram, the design's kappa squared
    sigma_min: float  # smallest singular value of the design matrix
    method: GramMethod
    # The dense route's Gram, read-only; None on the fast route, whose Gram
    # depends on (M, N) alone, so a kept result holds O(M) numbers, not O(M^2).
    dense_gram: np.ndarray | None = field(repr=False)
    warnings: tuple[str, ...] = ()

    @property
    def gram(self) -> np.ndarray:
        """The normal-equation matrix that was solved, read-only; a fast-route
        Gram is rebuilt on each access, with the bits the solve used."""
        if self.dense_gram is not None:
            return self.dense_gram
        basis = (Basis.CHEBYSHEV if isinstance(self.series, ChebyshevSeries)
                 else Basis.LEGENDRE)
        g = _equispaced_gram(self.m_degree, self.n_samples, basis)
        g.setflags(write=False)
        return g


@dataclass(frozen=True)
class BasisChangeMatrix:
    """Upper-triangular map from Legendre to Chebyshev coefficients.

    Entries are nonnegative, zero below the diagonal and on odd-parity
    positions (i + j odd), with a unit (0, 0) corner; the 2-norm stays below
    5 for every size. The parity zeros make S, S^T S and (S + S^T)/2
    block-diagonal over the even and the odd indices, so each extreme
    eigenvalue is the larger of the two blocks' values.
    """

    entries: np.ndarray

    @property
    def degree(self) -> int:
        return self.entries.shape[0] - 1

    def parity_blocks(self) -> tuple[np.ndarray, ...]:
        """The nonempty even-index and odd-index blocks, as contiguous copies.

        Raises ValueError if an odd-parity entry is nonzero, because the
        blocks would then not carry the whole matrix.
        """
        s = self.entries
        if np.any(s[0::2, 1::2]) or np.any(s[1::2, 0::2]):
            raise ValueError("basis-change matrix has a nonzero odd-parity entry")
        return tuple(np.ascontiguousarray(s[p::2, p::2])
                     for p in (0, 1) if s.shape[0] > p)

    def norm2(self) -> float:
        """||S||_2, the larger of the parity blocks' top singular values."""
        return max(dominant_singular_value(b) for b in self.parity_blocks())


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


def basis_change_matrix(m_degree: int) -> BasisChangeMatrix:
    """Matrix S with c_cheb = S c_leg for degree-M coefficient vectors."""
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
    return BasisChangeMatrix(s)


def legendre_to_chebyshev(series: LegendreSeries) -> ChebyshevSeries:
    """Convert a Legendre series to the Chebyshev series of the same polynomial."""
    s = basis_change_matrix(series.degree)
    return ChebyshevSeries(s.entries @ series.coeffs)


def _equispaced_gram(m_degree: int, n: int, basis: Basis) -> np.ndarray:
    """The fast route's normal-equation matrix: the Chebyshev Gram G, or
    S^T G S for a Legendre fit (V_leg = V_cheb S). numpy's einsum loops, not
    BLAS, form the products, so the bits do not depend on the BLAS thread
    count."""
    g = gram_fast(m_degree, n).matrix
    if basis == Basis.LEGENDRE:
        s = basis_change_matrix(m_degree).entries
        sgs = np.einsum("ki,kj->ij", s, np.einsum("kl,lj->kj", g, s))
        g = 0.5 * (sgs + sgs.T)
    return g


def _naive_system(samples: SampleSet, m_degree: int, basis: Basis):
    v = design_matrix(samples.grid, m_degree, basis)
    g = gram_naive(v)
    e = v.entries
    b = np.array([float(np.sum(e[:, k] * samples.values))
                  for k in range(m_degree + 1)])
    return g, b


def fit(samples: SampleSet, m_degree: int,
        basis: Basis = Basis.CHEBYSHEV) -> FitResult:
    """Least-squares polynomial fit of degree M to the sample values.

    A grid of kind EQUISPACED (x_k = 2k/N - 1) with M <= sqrt(N)/2 takes the
    fast Chebyshev Gram G and b in O(M^2 + MN), in either basis: V_leg = V_cheb S
    with S = basis_change_matrix(M), so a Legendre fit solves
    S^T G S c = S^T b. Past M = sqrt(N)/2 the fast Gram's truncated
    correction series is no longer accurate (1e-5 N at M = 20, N = 100), so
    such a fit, and a fit on any other grid, takes the dense design-matrix
    product; the one warning says so. The factorization
    is Cholesky with a single 1e-14*trace(G) shift retry when the Gram is
    semidefinite to tolerance, and the solved system is verified to a
    residual of 1e-10 * ||b||. sigma_min and kappa come from the solved Gram;
    a Gram whose smallest eigenvalue is not positive raises SolverError even
    when its Cholesky factorization succeeded.
    """
    basis = Basis(basis)
    n = samples.n
    if m_degree < 0:
        raise ValueError("degree must be nonnegative")
    if m_degree > n:
        raise ValueError(f"degree M={m_degree} exceeds N={n}")

    notes: list[str] = []
    subsampled = n < 4 * m_degree * m_degree  # M > sqrt(N)/2
    equispaced = samples.grid.kind == GridKind.EQUISPACED
    if subsampled:
        msg = (f"M={m_degree} exceeds sqrt(N)/2={0.5 * math.sqrt(n):.2f}; "
               "conditioning guarantees no longer apply")
        if equispaced:
            msg += "; the fast Gram was bypassed for the dense one"
        _warnings.warn(msg, stacklevel=2)
        notes.append(msg)

    if equispaced and not subsampled:
        method = GramMethod.FAST
        g = _equispaced_gram(m_degree, n, basis)
        b = rhs(samples.grid, samples.values, m_degree)
        if basis == Basis.LEGENDRE:
            b = np.einsum("ki,k->i", basis_change_matrix(m_degree).entries, b)
    else:
        method = GramMethod.NAIVE
        g, b = _naive_system(samples, m_degree, basis)

    coeffs, shifted = _solve_spd(g, b, m_degree, n)
    if shifted:
        notes.append("Gram semidefinite to tolerance; shifted by 1e-14*trace")

    resid = float(np.linalg.norm(g @ coeffs - b))
    if resid > 1e-10 * max(float(np.linalg.norm(b)), 1e-300):
        raise SolverError(
            f"normal-equation residual {resid:.3e} exceeds tolerance "
            f"(M={m_degree}, N={n})"
        )

    report = spectral_report(g)
    if report.sigma_min == 0.0:
        raise SolverError(
            f"Gram matrix numerically singular: its smallest eigenvalue is "
            f"not positive (M={m_degree}, N={n}); expected only when M >> sqrt(N)"
        )
    series = (ChebyshevSeries(coeffs) if basis == Basis.CHEBYSHEV
              else LegendreSeries(coeffs))
    g.setflags(write=False)
    return FitResult(series, m_degree, n, report.cond2 ** 2, report.sigma_min,
                     method, g if method == GramMethod.NAIVE else None,
                     tuple(notes))


def _cholesky_solve(g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve g c = b through g = L L^T; raises LinAlgError unless g is
    positive definite. numpy has no triangular solver, so L and L^T go
    through np.linalg.solve, whose O(M^3) LU costs well under a millisecond
    at the degrees used here."""
    low = np.linalg.cholesky(g)
    return np.linalg.solve(low.T, np.linalg.solve(low, b))


def _solve_spd(g: np.ndarray, b: np.ndarray, m_degree: int, n: int):
    try:
        return _cholesky_solve(g, b), False
    except np.linalg.LinAlgError:
        pass
    shift = 1e-14 * float(np.trace(g))
    try:
        return _cholesky_solve(g + shift * np.eye(g.shape[0]), b), True
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"Gram matrix numerically indefinite even after shift "
            f"(M={m_degree}, N={n}); expected only when M >> sqrt(N)"
        ) from exc
