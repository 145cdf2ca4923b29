"""Design matrices on the equispaced grid, naive Gram products, and spectra.

fit never forms the dense Gram. verify's interpolation sandwich squares its
square design matrix with it, and the tests keep it as the reference for the
fast Gram and for the design spectra, which verify and experiments take from
the SVD of V.

spectral_report, which fit uses for sigma_min and kappa (once per (M, N)
while that pair stays in fit's cache), takes the extreme eigenvalues from LAPACK's symmetric eigensolver (np.linalg.eigvalsh),
on fit's Grams one solve per parity block of order about M/2. At N = 4M^2
its bits, like those of fit's block Cholesky solves, were the same under 1
and 2 BLAS threads up to M = 250 (tested to M = 125) and differed at
M = 300, 500 and 600; at M = 400 only sigma_min agreed. The whole-matrix
solves differed from M = 200 on. The cyclic Jacobi iteration defined here,
with its deterministic round-robin rotation order, serves the one
certification check whose matrix is too ill conditioned for LAPACK's
absolute accuracy (the interpolation sandwich). A Lanczos iteration with
full reorthogonalization serves the basis-change norms: dominant_eigenvalue
applies a symmetric matrix, dominant_singular_value applies b^T (b v)
without forming b^T b. Each step is one or two matrix-vector products, whose
bits did not depend on the BLAS thread count in the tests (the bits of a
matrix-matrix product can, at some shapes), and einsum, which calls no BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import Basis, Grid, _recurrence

# Stopping rule of the iterative eigensolvers (Jacobi and Lanczos).
_REL_TOL = 1e-13
_MAX_SWEEPS = 100


@dataclass(frozen=True)
class SpectralReport:
    sigma_max: float
    sigma_min: float
    cond2: float


def design_matrix(grid: Grid, degree: int, basis: Basis) -> np.ndarray:
    """The dense (N+1) x (M+1) matrix of the basis polynomials at the grid
    points, filled column by column with the three-term recurrence. It is
    column-major, so each column is one contiguous store and one contiguous
    read.

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
    v = np.empty((grid.points.size, degree + 1), order="F")
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


def _lanczos_max(matvec, n: int) -> float:
    """Largest eigenvalue of the symmetric operator v -> matvec(v) on R^n.

    Lanczos from the all-ones direction, each new vector orthogonalized
    twice against all earlier ones (full reorthogonalization, einsum rather
    than BLAS), so the basis grows by one row of n per operator application
    and is never n x n. After each application the top Ritz value theta of
    the tridiagonal T_j comes from eigh, and its Ritz vector's residual
    ||A y - theta y|| is beta_j |s_j|, with s_j the last entry of T_j's
    eigenvector. The iteration stops when that residual falls below
    _REL_TOL * |theta|, when beta_j = 0 (the Krylov space is invariant) or
    when j = n.
    """
    q = np.full(n, 1.0 / math.sqrt(n))
    basis = q[None, :]
    alphas: list[float] = []
    betas: list[float] = []
    while True:
        w = matvec(q)
        alphas.append(float(q @ w))
        for _ in range(2):
            w = w - np.einsum("i,ij->j", np.einsum("ij,j->i", basis, w), basis)
        beta = float(np.linalg.norm(w))
        t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        ritz, vecs = np.linalg.eigh(t)
        theta = float(ritz[-1])
        if (beta == 0.0 or len(alphas) == n
                or beta * abs(vecs[-1, -1]) <= _REL_TOL * abs(theta)):
            return theta
        betas.append(beta)
        q = w / beta
        basis = np.vstack((basis, q))


def dominant_eigenvalue(a: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix with nonnegative entries.

    Deterministic Lanczos iteration from the all-ones direction. For
    matrices with nonnegative entries the dominant eigenvector is itself
    nonnegative, so the start vector cannot be deficient. Used where only the
    top of the spectrum is needed and a full eigensolve would be wasteful.
    """
    a = np.asarray(a, dtype=float)
    return _lanczos_max(lambda v: a @ v, a.shape[0])


def dominant_singular_value(b: np.ndarray) -> float:
    """Largest singular value of a matrix with nonnegative entries.

    The Lanczos iteration of dominant_eigenvalue on b^T b, applied as
    b^T (b v): the Gram is never formed, so no matrix-matrix product (whose
    BLAS rounding depends on the thread count) enters the result.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 2:
        raise ValueError("expected a matrix")
    lam = _lanczos_max(lambda v: b.T @ (b @ v), b.shape[1])
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

    When every entry of g with m+n odd is exactly 0, as in fit's Grams on
    the mirrored grid, g is the direct sum of its even and odd parity blocks
    g[0::2, 0::2] and g[1::2, 1::2], and the extreme eigenvalues come from
    the two half-size eigensolves (an empty odd block at M = 0 has none).
    Any other g is solved whole.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("expected a square Gram matrix")
    scale = float(np.max(np.abs(g)))
    if scale > 0 and float(np.max(np.abs(g - g.T))) > 1e-12 * scale:
        raise ValueError("Gram matrix is not symmetric to 1e-12 relative")
    if np.any(g[0::2, 1::2]) or np.any(g[1::2, 0::2]):
        blocks = [g]
    else:
        blocks = [g[p::2, p::2] for p in range(min(2, g.shape[0]))]
    spectra = [np.linalg.eigvalsh(block) for block in blocks]
    lam_max = max(max(float(lam[-1]) for lam in spectra), 0.0)
    lam_min = max(min(float(lam[0]) for lam in spectra), 0.0)
    sigma_max = math.sqrt(lam_max)
    sigma_min = math.sqrt(lam_min)
    cond2 = sigma_max / sigma_min if sigma_min > 0 else math.inf
    return SpectralReport(sigma_max, sigma_min, cond2)


def lebesgue_constant(grid: Grid) -> float:
    """Probe-based lower bound on the Lebesgue constant of the grid.

    Evaluates sum_j |l_j(x)| at 500(N+1) + 1 equispaced probes of [-1, 1].
    The numerator prod_{k != j} (x - x_k) of each Lagrange basis polynomial
    is a prefix product over the nodes before j times a suffix product over
    those after it, from one forward and one backward pass, so each probe
    costs O(N), not O(N^2). Nothing divides by x - x_j, so a probe on a node
    (every 625th at N = 4) needs no special case. Dense probing (no
    derivative-based maximization) slightly undershoots the true supremum,
    which callers account for.
    """
    nodes = grid.points
    n1 = nodes.size
    probe_count = 500 * n1 + 1
    probes = np.linspace(-1.0, 1.0, probe_count)
    diffs = probes[None, :] - nodes[:, None]
    suffix = np.empty((n1, probe_count))  # suffix[j] = prod_{k > j} (x - x_k)
    suffix[-1] = 1.0
    for k in range(n1 - 1, 0, -1):
        np.multiply(suffix[k], diffs[k], out=suffix[k - 1])
    prefix = np.ones(probe_count)  # prod_{k < j} (x - x_k)
    total = np.zeros(probe_count)
    for j in range(n1):
        mask = np.arange(n1) != j
        denom = float(np.prod(nodes[j] - nodes[mask]))
        total += np.abs(prefix * suffix[j] / denom)
        prefix *= diffs[j]
    return float(np.max(total))
