"""Least-squares polynomial fitting via the normal equations.

The Gram matrix is well conditioned whenever M <= sqrt(N)/2, so Cholesky on
the normal equations is the right tool here; QR on the tall design matrix
would forfeit the O(M^2) fast assembly path for no stability gain in this
regime.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from .basis import ChebyshevSeries, GridKind, LegendreSeries, SampleSet
from .fastgram import GramMethod, gram_fast, rhs
from .vandermonde import (
    Basis,
    design_matrix,
    dominant_eigenvalue,  # unused; the benchmark tracer wraps it (ROADMAP item 6)
    dominant_singular_value,
    gram_naive,
    jacobi_eigenvalues,  # unused; the benchmark tracer wraps it (ROADMAP item 6)
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
    gram_cond_estimate: float | None
    method: GramMethod
    gram: np.ndarray  # the normal-equation matrix that was solved, read-only
    warnings: tuple[str, ...] = ()


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
    """Ratio Gamma(i + 1/2)/Gamma(i + 1) by its downward recurrence.

    Starts from psi(0) = sqrt(pi) and multiplies by (i + 1/2)/(i + 1), so no
    Gamma evaluations (and no overflow) are involved; the sequence decreases
    monotonically like 1/sqrt(i).
    """
    if i < 0:
        raise ValueError("psi is defined for nonnegative integers")
    value = math.sqrt(math.pi)
    for j in range(i):
        value *= (j + 0.5) / (j + 1.0)
    return value


def psi_table(n: int) -> np.ndarray:
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


def _naive_system(samples: SampleSet, m_degree: int, basis: Basis):
    v = design_matrix(samples.grid, m_degree, basis)
    g = gram_naive(v)
    e = v.entries
    b = np.array([float(np.sum(e[:, k] * samples.values))
                  for k in range(m_degree + 1)])
    return g, b


def fit(samples: SampleSet, m_degree: int, basis: Basis = Basis.CHEBYSHEV,
        gram_method: GramMethod | None = None,
        compute_cond: bool = False) -> FitResult:
    """Least-squares polynomial fit of degree M to the sample values.

    The fast Gram path (default for Chebyshev fits on an equispaced grid)
    assembles the normal equations in O(M^2 + MN); any other combination
    falls back to the dense design-matrix product. The factorization is
    Cholesky with a single 1e-14*trace(G) shift retry when the Gram is
    semidefinite to tolerance, and the solved system is verified to a
    residual of 1e-10 * ||b||.
    """
    basis = Basis(basis)
    n = samples.n
    if m_degree < 0:
        raise ValueError("degree must be nonnegative")
    if m_degree > n:
        raise ValueError(f"degree M={m_degree} exceeds N={n}")

    notes: list[str] = []
    if m_degree > 0.5 * math.sqrt(n):
        msg = (f"M={m_degree} exceeds sqrt(N)/2={0.5 * math.sqrt(n):.2f}; "
               "conditioning guarantees no longer apply")
        _warnings.warn(msg, stacklevel=2)
        notes.append(msg)

    equispaced = samples.grid.kind == GridKind.EQUISPACED
    if gram_method is not None:
        gram_method = GramMethod(gram_method)
    if gram_method == GramMethod.FAST:
        if basis != Basis.CHEBYSHEV:
            raise ValueError("the fast Gram path exists for the Chebyshev basis only")
        if not equispaced:
            raise ValueError("the fast Gram path requires an equispaced grid")
    if gram_method is None:
        gram_method = (GramMethod.FAST
                       if basis == Basis.CHEBYSHEV and equispaced
                       else GramMethod.NAIVE)

    if gram_method == GramMethod.FAST:
        system = gram_fast(m_degree, n)
        g = system.matrix
        if system.subsampled_warning:
            notes.append(f"N={n} < 4*M^2: fast Gram accuracy not guaranteed")
        b = rhs(samples.grid, samples.values, m_degree)
    else:
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

    cond = None
    if compute_cond:
        report = spectral_report(0.5 * (g + g.T))
        cond = report.cond2 ** 2 if math.isfinite(report.cond2) else math.inf

    series = (ChebyshevSeries(coeffs) if basis == Basis.CHEBYSHEV
              else LegendreSeries(coeffs))
    g.setflags(write=False)
    return FitResult(series, m_degree, n, cond, gram_method, g, tuple(notes))


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
