"""Fast assembly of the equispaced Chebyshev normal equations.

On the equispaced grid, each Gram entry sum_k T_m(x_k) T_n(x_k) is a
trapezium-rule approximation of the analytic integral of T_m T_n, so the
entry equals the integral plus an endpoint term plus a correction series with
weighted-Bernoulli coefficients. The correction products depend only on
(m-n)^2 and (m+n)^2 (a Toeplitz-plus-Hankel structure), so the whole
(M+1) x (M+1) matrix assembles in O(M^2) work, independent of N.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import Grid

__all__ = [
    "GramMethod",
    "GramSystem",
    "trapezium_error_matrix",
    "gram_fast",
    "rhs",
]

# Largest |x_k + x_{N-k}| that rhs accepts as a mirror-symmetric grid.
_MIRROR_TOL = 1e-15
# Largest |x_k - (2k/N - 1)| that rhs accepts as equispaced (cli.X_MATCH_TOL).
_GRID_TOL = 1e-12

# B_{s+1}/(s+1)! for the odd correction orders s; even-order corrections
# vanish identically. Under M <= sqrt(N)/2 each factor (t^2 - j^2)/(N(j+1/2))
# of an order-s product is at most 1/(j+1/2) in size, because t^2 <= 4M^2 <= N
# and j^2 < N, so order s adds at most 2^(s+1)/(2s-1)!! |B_{s+1}/(s+1)!| to a
# Gram entry: 1.6e-16 at s = 11, and less at every later order. The Gram's
# norm is about N, so those orders lie below its rounding and the table
# stops at s = 9.
_EXACT_WEIGHTS = {
    1: 1.0 / 12.0,
    3: -1.0 / 720.0,
    5: 1.0 / 30240.0,
    7: -1.0 / 1209600.0,
    9: 1.0 / 47900160.0,
}


class GramMethod(str, Enum):
    NAIVE = "naive"
    FAST = "fast"


@dataclass(frozen=True)
class GramSystem:
    """Normal-equation matrix with its diagnostics."""

    matrix: np.ndarray
    correction_terms: np.ndarray | None = None
    subsampled_warning: bool = False


def trapezium_error_matrix(m_degree: int, n_samples: int) -> np.ndarray:
    """Correction matrix for the trapezium-rule identity on the equispaced grid.

    Entry (m, n) is (2/N) * sum over odd s <= min(m+n-1, 9) of

        [ prod_{j<s} ((m-n)^2 - j^2)/(N(j+1/2))
          + prod_{j<s} ((m+n)^2 - j^2)/(N(j+1/2)) ] * B_{s+1}/(s+1)!

    and exactly 0 when m+n is odd or m+n <= 1; _EXACT_WEIGHTS says why
    s <= 9 suffices. The two products are shared across entries through
    tables keyed by (m-n)^2 and (m+n)^2, so total work is O(M^2) and table
    memory O(M). Past M = sqrt(N)/2 the truncated series is no longer
    accurate; gram_fast flags that case in GramSystem.subsampled_warning.
    """
    if m_degree < 1:
        raise ValueError("correction matrix needs degree M >= 1")
    if n_samples < 1:
        raise ValueError("sample count N must be positive")

    n = float(n_samples)
    s_list = [s for s in _EXACT_WEIGHTS if s <= 2 * m_degree - 1]
    # Product tables over the distinct squared values: diff_sq for |m-n|,
    # sum_sq for m+n. Built by a two-factor recurrence from one odd order
    # to the next.
    diff_sq = np.arange(m_degree + 1, dtype=float) ** 2
    sum_sq = np.arange(2 * m_degree + 1, dtype=float) ** 2
    prod_diff, prod_sum = [], []
    cur_d = diff_sq / (0.5 * n)
    cur_s = sum_sq / (0.5 * n)
    prev_s = 1
    for s in s_list:
        for j in range(prev_s, s):
            cur_d = cur_d * ((diff_sq - j * j) / (n * (j + 0.5)))
            cur_s = cur_s * ((sum_sq - j * j) / (n * (j + 0.5)))
        prod_diff.append(cur_d.copy())
        prod_sum.append(cur_s.copy())
        prev_s = s

    idx = np.arange(m_degree + 1)
    d_idx = np.abs(idx[:, None] - idx[None, :])
    t_idx = idx[:, None] + idx[None, :]
    err = np.zeros((m_degree + 1, m_degree + 1))
    for k, s in enumerate(s_list):
        active = t_idx >= s + 1
        term = (prod_diff[k][d_idx] + prod_sum[k][t_idx]) * _EXACT_WEIGHTS[s]
        err += np.where(active, term, 0.0)
    err *= 2.0 / n
    err[(t_idx % 2) == 1] = 0.0
    err[t_idx <= 1] = 0.0
    return err


def gram_fast(m_degree: int, n_samples: int) -> GramSystem:
    """Equispaced Chebyshev Gram matrix in O(M^2), independent of N.

    For m+n even the entry is N/(2(1-(m+n)^2)) + N/(2(1-(m-n)^2)) + 1 plus
    N/2 times the correction matrix; entries with m+n odd vanish by the
    antisymmetry of the grid. The (0,0) entry needs no special handling: the
    two analytic terms contribute N/2 each, giving N+1 exactly.
    """
    if m_degree < 0:
        raise ValueError("degree must be nonnegative")
    if n_samples < 1:
        raise ValueError("sample count N must be positive")
    n = float(n_samples)
    if m_degree == 0:
        return GramSystem(np.array([[n + 1.0]]), correction_terms=np.zeros((1, 1)))

    idx = np.arange(m_degree + 1, dtype=float)
    t = idx[:, None] + idx[None, :]
    d = idx[:, None] - idx[None, :]
    odd = (t.astype(int) % 2) == 1
    with np.errstate(divide="ignore"):
        analytic = n / (2.0 * (1.0 - t * t)) + n / (2.0 * (1.0 - d * d)) + 1.0
    err = trapezium_error_matrix(m_degree, n_samples)
    g = analytic + 0.5 * n * err
    g[odd] = 0.0
    subsampled = n_samples < 4 * m_degree * m_degree
    return GramSystem(g, correction_terms=err, subsampled_warning=subsampled)


def rhs(grid: Grid, samples, m_degree: int, chunk: int = 16384) -> np.ndarray:
    """Right-hand side T_M(x)^T y over the left half of a mirrored grid.

    The grid must be mirror-symmetric, |x_k + x_{N-k}| <= 1e-15 (make_grid's
    equispaced grid is, to about 1e-16), so T_m(x_{N-k}) = (-1)^m T_m(x_k),
    and its left half must be equispaced, |x_k - (2k/N - 1)| <= 1e-12, as the
    fast Gram assumes; the mirror check carries that to the right half.
    The samples are folded into s_k = y_k + y_{N-k} and d_k = y_k - y_{N-k}
    for k < N/2, with the middle point of an even N counted once
    (s = d = y_{N/2}). Even degrees accumulate T_m(x_k) s_k and odd degrees
    T_m(x_k) d_k, so the three-term recurrence runs over only
    ceil((N+1)/2) points: about MN/2 multiply-adds, done in place in
    preallocated buffers of `chunk` points, so the extra space is
    O(M + chunk). Mirrored samples give odd-degree entries, and
    antisymmetric samples even-degree entries, that are exactly zero.

    Each chunk is reduced by numpy's own single-threaded kernels in a fixed
    order (np.sum for degree 0, einsum for the others), never by BLAS,
    whose dot product splits long vectors across threads; the bits
    therefore do not depend on the number of BLAS threads.

    Raises ValueError naming the first offending k if the grid is not
    mirror-symmetric or not equispaced (the mirror check comes first), and
    ValueError if the grid has fewer than two points, if the sample count
    differs from the grid's, if M < 0 or if chunk < 1.
    """
    y = np.asarray(samples, dtype=float)
    x = grid.points
    if y.shape != x.shape:
        raise ValueError(
            f"got {y.size} samples for a grid of {x.size} points"
        )
    if m_degree < 0:
        raise ValueError("degree must be nonnegative")
    if chunk < 1:
        raise ValueError(f"chunk must be at least 1, got {chunk}")
    n = x.size - 1
    if n < 1:
        raise ValueError("an equispaced grid needs N >= 1")
    half = n // 2 + 1
    x_mirror, y_mirror = x[::-1], y[::-1]
    width = min(chunk, half)
    s_buf, d_buf, x2_buf, t_a, t_b, t_c = (np.empty(width) for _ in range(6))
    ramp = 2.0 * np.arange(width) / n - 1.0  # the grid's first `width` points
    b = np.zeros(m_degree + 1)
    for lo in range(0, half, chunk):
        hi = min(lo + chunk, half)
        xc, yc, ym = x[lo:hi], y[lo:hi], y_mirror[lo:hi]
        w = hi - lo
        s, d, x2 = s_buf[:w], d_buf[:w], x2_buf[:w]
        np.add(xc, x_mirror[lo:hi], out=s)
        np.abs(s, out=s)
        if not s.max() <= _MIRROR_TOL:
            k = lo + int(np.flatnonzero(~(s <= _MIRROR_TOL))[0])
            raise ValueError(
                f"grid is not mirror-symmetric: |x[{k}] + x[{n - k}]| = "
                f"{abs(x[k] + x[n - k]):.3e} > {_MIRROR_TOL:g}"
            )
        np.subtract(xc, ramp[:w], out=d)
        d -= 2.0 * lo / n
        np.abs(d, out=d)
        if not d.max() <= _GRID_TOL:
            k = lo + int(np.flatnonzero(~(d <= _GRID_TOL))[0])
            raise ValueError(
                f"grid is not equispaced: |x[{k}] - (2*{k}/{n} - 1)| = "
                f"{abs(x[k] - (2.0 * k / n - 1.0)):.3e} > {_GRID_TOL:g}"
            )
        np.add(yc, ym, out=s)
        np.subtract(yc, ym, out=d)
        if hi == half and n % 2 == 0:
            s[-1] = d[-1] = y[n // 2]
        b[0] += s.sum()
        if m_degree == 0:
            continue
        t_prev, t_cur, t_next = t_a[:w], t_b[:w], t_c[:w]
        t_prev.fill(1.0)
        t_cur[:] = xc
        np.multiply(xc, 2.0, out=x2)
        b[1] += np.einsum("i,i->", t_cur, d)
        for k in range(2, m_degree + 1):
            np.multiply(x2, t_cur, out=t_next)
            t_next -= t_prev
            t_prev, t_cur, t_next = t_cur, t_next, t_prev
            b[k] += np.einsum("i,i->", t_cur, d if k % 2 else s)
    return b
