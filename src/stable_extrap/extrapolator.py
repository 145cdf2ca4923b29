"""Stable extrapolation of analytic functions from perturbed equispaced samples.

Given N+1 equispaced samples known to perturbation level eps of a function
analytic and bounded by Q on the Bernstein ellipse with parameter rho, the
degree that balances the geometrically decaying truncation term against the
exponentially growing noise term is

    M* = floor(min(sqrt(N)/2, log(Q/eps)/log(rho))),

and the least-squares fit of that degree is evaluated beyond [-1, 1]. The
reachable interval is [1, (rho + 1/rho)/2); the decay/growth rate at a point
x is governed by r(x) = (x + sqrt(x^2-1))/rho in [1/rho, 1).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .basis import SampleSet, cheb_eval, clenshaw_eval
from .fastgram import gram_fast  # unused; the benchmark tracer wraps it (ROADMAP item 0)
from .solver import FitResult, fit
from .vandermonde import spectral_report  # unused; the benchmark tracer wraps it (ROADMAP item 0)


class Regime(str, Enum):
    OVERSAMPLED = "oversampled"
    UNDERSAMPLED = "undersampled"


@dataclass(frozen=True)
class ProblemParams:
    """Extrapolation problem data: sample count N, ellipse parameter rho,
    perturbation level eps, and analytic bound Q."""

    n_samples: int
    rho: float
    eps: float
    q: float

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        for name, value in (("rho", self.rho), ("eps", self.eps), ("Q", self.q)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.rho > 1.0:
            raise ValueError("rho must exceed 1")
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if not self.q > 0.0:
            raise ValueError("Q must be positive")

    @property
    def degenerate(self) -> bool:
        """True when eps >= Q, so log(Q/eps) <= 0 forces the optimal degree to 0."""
        return self.eps >= self.q

    @property
    def interval_edge(self) -> float:
        """Right endpoint (exclusive) of the reachable interval."""
        return 0.5 * (self.rho + 1.0 / self.rho)


class DegreeChoice(NamedTuple):
    m_star: int
    regime: Regime
    degenerate: bool


@dataclass(frozen=True)
class PointReport:
    x: float
    r: float
    alpha: float
    value: float
    bound_explicit: float
    bound_asymptotic_factor: float


@dataclass(frozen=True)
class ExtrapolationReport:
    m_star: int
    regime: Regime
    degenerate: bool
    sigma_min: float
    fit_result: FitResult
    points: tuple[PointReport, ...]


def optimal_degree(params: ProblemParams) -> DegreeChoice:
    """Degree balancing truncation decay against perturbation growth.

    The problem is oversampled when log(Q/eps)/log(rho) < sqrt(N)/2: the
    perturbation level, not the grid, then limits the accuracy. eps >= Q is
    degenerate and pins the degree to 0.
    """
    half_sqrt_n = 0.5 * math.sqrt(params.n_samples)
    ratio = math.log(params.q / params.eps) / math.log(params.rho)
    regime = Regime.OVERSAMPLED if ratio < half_sqrt_n else Regime.UNDERSAMPLED
    m_star = max(int(math.floor(min(half_sqrt_n, ratio))), 0)
    return DegreeChoice(m_star, regime, params.degenerate)


def _length(x: float, rho: float) -> float:
    """r = (x + sqrt(x-1) sqrt(x+1))/rho for x >= 1, unchecked: x^2 - 1
    overflows past x = 1.3e154 and cancels near x = 1, where x - 1 is exact."""
    return (x + math.sqrt(x - 1.0) * math.sqrt(x + 1.0)) / rho


def r_alpha(x: float, rho: float) -> tuple[float, float]:
    """Nondimensional length r(x) and decay exponent alpha(x).

    r = (x + sqrt(x^2-1))/rho lies in [1/rho, 1) on the reachable interval
    and alpha = -log(r)/log(rho) falls from 1 at x=1 to 0 at the edge.
    """
    if not rho > 1.0:
        raise ValueError("rho must exceed 1")
    edge = 0.5 * (rho + 1.0 / rho)
    if not 1.0 <= x < edge:
        raise ValueError(
            f"x={x} is outside the reachable interval [1, {edge}) for rho={rho}"
        )
    r = _length(x, rho)
    alpha = -math.log(r) / math.log(rho)
    return r, alpha


def _explicit_bound(params: ProblemParams, m_degree: int, r: float,
                    sigma_min: float) -> float:
    """The truncation error of the degree-M fit, carried to the point whose
    nondimensional length is r, plus the noise term of a uniform eps. The
    noise term's growth (rho r)^M is infinite where the float power
    overflows, so that extrapolate refuses the bound."""
    truncation = 2.0 * params.q * (
        math.sqrt(params.n_samples + 1) * (m_degree + 1)
        / (sigma_min * (params.rho - 1.0))
        + r / (1.0 - r)
    ) * r ** m_degree
    noise = ((m_degree + 1) * math.sqrt(params.n_samples + 1) * params.eps
             / sigma_min * _growth(params.rho, r, m_degree))
    return truncation + noise


def _growth(rho: float, r: float, m_degree: int) -> float:
    """The noise term's growth (rho r)^M; infinite where the power overflows."""
    try:
        return (rho * r) ** m_degree
    except OverflowError:
        return math.inf


def _asymptotic_factor(params: ProblemParams, regime: Regime,
                       r: float, alpha: float) -> float:
    base = params.q / (1.0 - r)
    if regime == Regime.OVERSAMPLED:
        return base * (params.eps / params.q) ** alpha
    return base * r ** (0.5 * math.sqrt(params.n_samples))


def extrapolate(samples: SampleSet, params: ProblemParams, xs) -> ExtrapolationReport:
    """Fit at the balanced degree and evaluate beyond the sample interval.

    Each requested point gets the fitted value together with a fully
    computable error bound, from the fit's measured smallest singular value
    of the design matrix, and the regime's asymptotic bound factor, which
    omits only constants. Under M <= sqrt(N)/2 the measured sigma_min^2 is at
    least the guaranteed 2N/(125(2M+1)), so the bound is never looser than
    the one that floor would give. A value or bound that overflows raises
    ValueError.
    """
    if samples.n != params.n_samples:
        raise ValueError(
            f"sample grid has N={samples.n} but params declare N={params.n_samples}"
        )
    xs = [float(x) for x in np.atleast_1d(np.asarray(xs, dtype=float))]
    # Validate all points up front so no partial work happens on bad input.
    pairs = [r_alpha(x, params.rho) for x in xs]

    m_star, regime, degenerate = optimal_degree(params)
    fit_result = fit(samples, m_star)

    sigma_min = fit_result.sigma_min

    points = []
    for x, (r, alpha) in zip(xs, pairs):
        with np.errstate(over="ignore", invalid="ignore"):
            value = float(clenshaw_eval(fit_result.series, x))
        point = PointReport(
            x=x,
            r=r,
            alpha=alpha,
            value=value,
            bound_explicit=_explicit_bound(params, m_star, r, sigma_min),
            bound_asymptotic_factor=_asymptotic_factor(params, regime, r, alpha),
        )
        if not all(map(math.isfinite, astuple(point))):
            cause = (f"the point is too far out for rho={params.rho!r}"
                     if math.isinf(_growth(params.rho, r, m_star)) else
                     f"the samples or Q={params.q!r} are too large")
            raise ValueError(f"the fitted value or its bounds overflow at x={x!r}: {cause}")
        points.append(point)
    return ExtrapolationReport(m_star, regime, degenerate, sigma_min,
                               fit_result, tuple(points))


@dataclass(frozen=True)
class MinimaxWitness:
    """Analytic function below eps on [-1, 1] that grows at the minimax rate.

    The closed form

        g(x) = (rho-1)/rho * (rho^{-K-1} T_{K+1}(x) - rho^{-K-2} T_K(x))
               / (1 - 2x/rho + rho^{-2})

    with K = floor(log(1/eps)/log(rho)) satisfies |g| <= rho^{-K-1} <= eps on
    [-1, 1] while g(x) >= c_rho * r(x)^K / (1 - r(x)) on the reachable
    interval, so no extrapolation procedure can beat that growth. T_K and
    T_{K+1} come from cheb_eval's recurrence, which is exact beyond 1 too.
    """

    rho: float
    eps: float
    k: int

    @property
    def growth_constant(self) -> float:
        """The constant c_rho = rho^{-2} (1 - 1/rho) (rho - 1) / 2."""
        rho = self.rho
        return (1.0 - 1.0 / rho) * (rho - 1.0) / (2.0 * rho * rho)

    def __call__(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        edge = 0.5 * (self.rho + 1.0 / self.rho)
        if np.any(arr < -1.0) or np.any(arr >= edge):
            raise ValueError(
                f"witness is defined on [-1, 1] and [1, {edge})"
            )
        rho = self.rho
        numer = (rho ** (-self.k - 1) * cheb_eval(self.k + 1, arr)
                 - rho ** (-self.k - 2) * cheb_eval(self.k, arr))
        out = (rho - 1.0) / rho * numer / (1.0 - 2.0 * arr / rho + rho ** -2)
        return out if np.ndim(x) else float(out[0])


def minimax_witness(rho: float, eps: float) -> MinimaxWitness:
    """Construct the minimax witness for the given ellipse parameter and level.

    Requires 0 < eps <= 1/rho so that K = floor(log(1/eps)/log(rho)) >= 1,
    where the closed form is valid.
    """
    if not rho > 1.0:
        raise ValueError("rho must exceed 1")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    k = int(math.floor(math.log(1.0 / eps) / math.log(rho)))
    if k < 1:
        raise ValueError(
            f"eps={eps} is too close to 1 for rho={rho}: need K >= 1"
        )
    return MinimaxWitness(rho=rho, eps=eps, k=k)
