"""Chebyshev and Legendre polynomial values and the equispaced grid on [-1, 1].

Every basis value comes from one three-term recurrence (_recurrence) in
64-bit floating point, so a single code path serves both the design matrices
on [-1, 1] (vandermonde) and evaluation beyond the interval (where
first-kind Chebyshev polynomials grow but remain exact degree-k
polynomials). Chebyshev series are summed by Clenshaw's backward recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class Basis(str, Enum):
    CHEBYSHEV = "chebyshev"
    LEGENDRE = "legendre"


class GridKind(str, Enum):
    EQUISPACED = "equispaced"


# Largest |x_k + x_{N-k}| and |x_k - (2k/N - 1)| of a grid.
SYMMETRY_TOL = 1e-15
EQUISPACING_TOL = 1e-12
_CHECK_BLOCK = 16384  # points per block of that check, which allocates O(block)


def _freeze(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _check_equispaced(x: np.ndarray) -> None:
    """Raise ValueError naming the first bad k unless N >= 1 and, block by block
    over k <= N/2, |x_k + x_{N-k}| <= SYMMETRY_TOL (checked first) and
    |x_k - (2k/N - 1)| <= EQUISPACING_TOL, which the first carries to k > N/2."""
    n = x.size - 1
    if n < 1:
        raise ValueError("an equispaced grid needs N >= 1")
    half, mirror = n // 2 + 1, x[::-1]
    for lo in range(0, half, _CHECK_BLOCK):
        hi = min(lo + _CHECK_BLOCK, half)
        for gap, tol, what in (
                (x[lo:hi] + mirror[lo:hi], SYMMETRY_TOL, "mirror-symmetric: |x[{k}] + x[{m}]|"),
                (x[lo:hi] - (2.0 * np.arange(lo, hi) / n - 1.0), EQUISPACING_TOL,
                 "equispaced: |x[{k}] - (2*{k}/{n} - 1)|")):
            bad = ~(np.abs(gap) <= tol)  # NaN is bad
            if bad.any():
                j = int(np.argmax(bad))
                raise ValueError(f"grid is not {what.format(k=lo + j, m=n - lo - j, n=n)} = "
                                 f"{abs(gap[j]):.3e} > {tol:g}")


@dataclass(frozen=True)
class Grid:
    """The N+1 equispaced points x_k = 2k/N - 1, checked here; immutable and
    safe to share. For N < 1e12 the check also makes the points strictly
    increasing. kind has one value and is kept for callers that name it."""

    points: np.ndarray
    kind: GridKind = GridKind.EQUISPACED

    def __post_init__(self):
        object.__setattr__(self, "points", _freeze(self.points))
        object.__setattr__(self, "kind", GridKind(self.kind))
        if self.points.ndim != 1:
            raise ValueError("grid needs a 1-d point vector")
        _check_equispaced(self.points)

    @property
    def n(self) -> int:
        """Number of points minus one (N for an N+1-point grid)."""
        return self.points.size - 1


@dataclass(frozen=True)
class ChebyshevSeries:
    """Coefficients c_0..c_M of sum_k c_k T_k(x); degree M = len - 1."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _freeze(self.coeffs))
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise ValueError("series needs at least one coefficient")

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, x):
        return clenshaw_eval(self, x)


@dataclass(frozen=True)
class SampleSet:
    """Equispaced samples f(x_k) + perturbation."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        if self.values.shape != self.grid.points.shape:
            raise ValueError(
                f"got {self.values.size} values for a grid of "
                f"{self.grid.points.size} points"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sample values must be finite")

    @property
    def n(self) -> int:
        return self.grid.n


def _recurrence(basis: Basis, x: np.ndarray, degree: int):
    """Yield P_0(x), ..., P_degree(x) of the basis by its three-term recurrence.

    Chebyshev: T_{j+1} = 2x T_j - T_{j-1}. Legendre (Bonnet):
    (j+1) P_{j+1} = (2j+1) x P_j - j P_{j-1}. Each yielded array is new and
    is read again by the next steps, so callers must not write into it.
    """
    p_prev = np.ones_like(x)
    yield p_prev
    if degree == 0:
        return
    p_cur = x.astype(float)
    yield p_cur
    for j in range(1, degree):
        if basis == Basis.CHEBYSHEV:
            p_next = 2.0 * x * p_cur - p_prev
        else:
            p_next = ((2 * j + 1) * x * p_cur - j * p_prev) / (j + 1)
        yield p_next
        p_prev, p_cur = p_cur, p_next


def cheb_eval(k: int, x):
    """Evaluate the degree-k Chebyshev polynomial T_k(x).

    The recurrence T_{k+1} = 2x T_k - T_{k-1} is an exact polynomial
    identity, so it is valid for |x| > 1 too (where T_k grows like
    (|x| + sqrt(x^2-1))^k).
    """
    if k < 0:
        raise ValueError("degree k must be nonnegative")
    for p in _recurrence(Basis.CHEBYSHEV, np.asarray(x, dtype=float), k):
        pass
    return p if p.ndim else float(p)


def clenshaw_eval(series, x):
    """Evaluate a Chebyshev series by Clenshaw's backward recurrence.

    Accepts a ChebyshevSeries or a bare coefficient vector. Backward error is
    of order (M+1) * eps * sum|c_k| * max|T_k(x)|.
    """
    c = series.coeffs if isinstance(series, ChebyshevSeries) else np.asarray(series, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("series needs at least one coefficient")
    x = np.asarray(x, dtype=float)
    b_cur = np.zeros_like(x)
    b_next = np.zeros_like(x)
    two_x = 2.0 * x
    for ck in c[:0:-1]:
        b_cur, b_next = two_x * b_cur - b_next + ck, b_cur
    out = x * b_cur - b_next + c[0]
    return out if out.ndim else float(out)


def make_grid(kind: GridKind, n: int) -> Grid:
    """Build the (n+1)-point equispaced grid x_k = 2k/n - 1 (endpoints exactly
    +-1, so n >= 1 is required)."""
    if n < 1:
        raise ValueError("an equispaced grid needs n >= 1")
    return Grid(2.0 * np.arange(n + 1) / n - 1.0, kind)
