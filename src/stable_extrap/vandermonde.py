"""Design matrices on the equispaced grid, naive Gram products, and spectra.

fit never forms the dense Gram; verify and experiments take design spectra
from it, and the tests keep it as the reference for the fast Gram.

spectral_report, which fit uses for sigma_min and kappa, takes the
extreme eigenvalues from LAPACK's symmetric eigensolver (np.linalg.eigvalsh).
Its bits are the same under 1 and 2 BLAS threads up to M = 125 (tested), and
differ at M = 300 and 600. The cyclic Jacobi iteration defined here, with its
deterministic round-robin rotation order, serves the one certification check
whose matrix is too ill conditioned for LAPACK's absolute accuracy (the
interpolation sandwich). The power iteration serves the basis-change norms:
dominant_eigenvalue applies a symmetric matrix, dominant_singular_value
applies b^T (b v) without forming b^T b. Each step is one or two
matrix-vector products, whose bits did not depend on the BLAS thread count
in the tests (a matrix-matrix product's did).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import Basis, Grid, _recurrence

# Stopping rule of the iterative eigensolvers (Jacobi and power iteration).
_REL_TOL = 1e-13
_MAX_SWEEPS = 100
_MAX_POWER_STEPS = 100_000


@dataclass(frozen=True)
class SpectralReport:
    sigma_max: float
    sigma_min: float
    cond2: float


def design_matrix(grid: Grid, degree: int, basis: Basis) -> np.ndarray:
    """The dense (N+1) x (M+1) matrix of the basis polynomials at the grid
    points, filled column by column with the three-term recurrence.

    The guard degree <= 10 * sqrt(grid size) rejects degrees for which the
    columns are so far from independence that the result is useless.
    """
    basis = Basis(basis)
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    guard = 10.0 * math.sqrt(grid.points.size)
    if degree > guard:
        raise ValueError(
            f"degree {degree} exceeds the misuse guard "
            f"10*sqrt(grid size) = {guard:.1f}"
        )
    v = np.empty((grid.points.size, degree + 1))
    for k, column in enumerate(_recurrence(basis, grid.points, degree)):
        v[:, k] = column
    return v


def gram_naive(v: np.ndarray) -> np.ndarray:
    """Exact normal-equation matrix V^T V, one pairwise-summed dot per entry.

    Each entry is reduced with numpy's pairwise summation over a contiguous
    product vector, which keeps this path trustworthy as an oracle up to
    N ~ 1e6. The upper triangle is computed and mirrored, so the result is
    symmetric to the bit.
    """
    cols = v.shape[1]
    g = np.empty((cols, cols))
    for m in range(cols):
        col_m = v[:, m]
        for n in range(m, cols):
            s = float(np.sum(col_m * v[:, n]))
            g[m, n] = s
            g[n, m] = s
    return g


@lru_cache(maxsize=64)
def _round_robin_rounds(n: int):
    """Partition all index pairs of {0..n-1} into rounds of disjoint pairs."""
    m = n + (n & 1)
    players = list(range(m))
    rounds = []
    for _ in range(m - 1):
        ps, qs = [], []
        for i in range(m // 2):
            a, b = players[i], players[m - 1 - i]
            if a < n and b < n:
                ps.append(min(a, b))
                qs.append(max(a, b))
        rounds.append((np.array(ps), np.array(qs)))
        players = [players[0], players[-1]] + players[1:-1]
    return tuple(rounds)


def _apply_rotations(a: np.ndarray, p: np.ndarray, q: np.ndarray) -> None:
    """Annihilate the disjoint entry set {(p_i, q_i)} with simultaneous
    Jacobi rotations (exact because the index pairs are disjoint)."""
    apq = a[p, q]
    app = a[p, p]
    aqq = a[q, q]
    nonzero = np.abs(apq) > 0.0
    safe = np.where(nonzero, apq, 1.0)
    tau = (aqq - app) / (2.0 * safe)
    t = np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    t = np.where(tau == 0.0, 1.0, t)
    t = np.where(nonzero, t, 0.0)
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c

    rows_p = a[p, :].copy()
    rows_q = a[q, :].copy()
    a[p, :] = c[:, None] * rows_p - s[:, None] * rows_q
    a[q, :] = s[:, None] * rows_p + c[:, None] * rows_q
    cols_p = a[:, p].copy()
    cols_q = a[:, q].copy()
    a[:, p] = cols_p * c - cols_q * s
    a[:, q] = cols_p * s + cols_q * c
    a[p, q] = 0.0
    a[q, p] = 0.0


def jacobi_eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending, by cyclic Jacobi.

    Sweeps a fixed round-robin ordering of index pairs until the off-diagonal
    Frobenius norm falls below _REL_TOL times the matrix Frobenius norm. Small
    eigenvalues of positive definite matrices are resolved with high relative
    accuracy, which the conditioning checks rely on.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy()
    a = 0.5 * (a + a.T)
    fro = float(np.linalg.norm(a))
    if fro == 0.0:
        return np.zeros(n)
    rounds = _round_robin_rounds(n)
    scratch = np.empty_like(a)
    for _ in range(_MAX_SWEEPS):
        # Off-diagonal norm summed directly: the difference fro^2 - sum(diag^2)
        # would drown the 1e-13 threshold in cancellation noise.
        np.copyto(scratch, a)
        np.fill_diagonal(scratch, 0.0)
        off_sq = float(np.sum(scratch * scratch))
        if off_sq <= (_REL_TOL * fro) ** 2:
            break
        for p, q in rounds:
            _apply_rotations(a, p, q)
    else:
        raise RuntimeError(f"Jacobi iteration did not converge in {_MAX_SWEEPS} sweeps")
    return np.sort(np.diagonal(a).copy())


def _power_iteration(matvec, n: int) -> float:
    """Dominant eigenvalue of the symmetric operator v -> matvec(v).

    Deterministic iteration from the all-ones direction; stops when the
    residual ||A v - theta v|| falls below _REL_TOL * |theta|.
    """
    v = np.full(n, 1.0 / math.sqrt(n))
    theta = 0.0
    for _ in range(_MAX_POWER_STEPS):
        w = matvec(v)
        theta = float(v @ w)
        resid = float(np.linalg.norm(w - theta * v))
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
        if resid <= _REL_TOL * max(abs(theta), 1e-300):
            return theta
    raise RuntimeError(f"power iteration did not converge in {_MAX_POWER_STEPS} steps")


def dominant_eigenvalue(a: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix with nonnegative entries.

    Deterministic power iteration from the all-ones direction. For matrices
    with nonnegative entries the dominant eigenvector is itself nonnegative,
    so the start vector cannot be deficient. Used where only the top of the
    spectrum is needed and a full Jacobi pass would be wasteful.
    """
    a = np.asarray(a, dtype=float)
    return _power_iteration(lambda v: a @ v, a.shape[0])


def dominant_singular_value(b: np.ndarray) -> float:
    """Largest singular value of a matrix with nonnegative entries.

    The power iteration of dominant_eigenvalue on b^T b, applied as
    b^T (b v): the Gram is never formed, so no matrix-matrix product (whose
    BLAS rounding depends on the thread count) enters the result.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 2:
        raise ValueError("expected a matrix")
    lam = _power_iteration(lambda v: b.T @ (b @ v), b.shape[1])
    return math.sqrt(max(lam, 0.0))


def spectral_report(g: np.ndarray) -> SpectralReport:
    """Singular-value summary of the design matrix whose Gram is g.

    sigma_max/min are the square roots of the extreme eigenvalues of g
    (clamped at zero); cond2 is their ratio, infinite when sigma_min is 0.
    The eigenvalues come from LAPACK's backward-stable symmetric solver, so
    their error is absolute, about eps * ||g||, not relative to each
    eigenvalue. Under M <= sqrt(N)/2 the Chebyshev Gram has
    kappa <= 187.5(2M+1), which makes that a relative error of about
    eps * kappa in lambda_min as well.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("expected a square Gram matrix")
    scale = float(np.max(np.abs(g)))
    if scale > 0 and float(np.max(np.abs(g - g.T))) > 1e-12 * scale:
        raise ValueError("Gram matrix is not symmetric to 1e-12 relative")
    lam = np.linalg.eigvalsh(g)
    lam_max = max(float(lam[-1]), 0.0)
    lam_min = max(float(lam[0]), 0.0)
    sigma_max = math.sqrt(lam_max)
    sigma_min = math.sqrt(lam_min)
    cond2 = sigma_max / sigma_min if sigma_min > 0 else math.inf
    return SpectralReport(sigma_max, sigma_min, cond2)


def lebesgue_constant(grid: Grid) -> float:
    """Probe-based lower bound on the Lebesgue constant of the grid.

    Evaluates sum_j |l_j(x)| at 500(N+1) + 1 equispaced probes of [-1, 1],
    with each Lagrange basis polynomial computed by its direct product
    formula. Dense probing (no derivative-based maximization) slightly
    undershoots the true supremum, which callers account for.
    """
    nodes = grid.points
    n1 = nodes.size
    probe_count = 500 * n1 + 1
    probes = np.linspace(-1.0, 1.0, probe_count)
    diffs = probes[:, None] - nodes[None, :]
    total = np.zeros(probe_count)
    for j in range(n1):
        mask = np.arange(n1) != j
        numer = np.prod(diffs[:, mask], axis=1)
        denom = float(np.prod(nodes[j] - nodes[mask]))
        total += np.abs(numer / denom)
    return float(np.max(total))
