"""Reproducible experiment tables: decay profiles, spectra sweeps, noise
plateaus, and Gram-assembly timings.

Randomness goes through numpy's PCG64 generator with an explicit seed (the
noise plateau's argument, 0 for the timing samples), so every table but the
timings is pinned bit-for-bit. Timing runs are not single-threaded:
`rhs`'s panel products are BLAS `np.matmul` calls, which may run on as
many threads as the BLAS library allows (OPENBLAS_NUM_THREADS for
OpenBLAS); the naive Gram is sequential numpy reductions.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import Basis, GridKind, SampleSet, clenshaw_eval, make_grid
from .extrapolator import ProblemParams, _length
from .fastgram import gram_fast, rhs
from .solver import fit
from .vandermonde import design_matrix, gram_naive
from .verify import _design_spectrum, _legendre_envelope

FACTOR_CAP = 1e300


class NoiseKind(str, Enum):
    NONE = "none"
    GAUSSIAN_IID = "gaussian-iid"
    DETERMINISTIC_WORST_CASE = "deterministic-worst-case"


@dataclass(frozen=True)
class NoiseModel:
    """Sample perturbation: none, seeded i.i.d. Gaussian, or adversarial signs.

    Gaussian draws come from numpy's Generator(PCG64(seed)).normal, so equal
    seeds give bit-identical vectors. The deterministic model perturbs sample
    k by eps * (-1)^k, the default adversarial sign pattern.
    """

    kind: NoiseKind = NoiseKind.NONE
    s: float = 0.0
    eps: float = 0.0
    seed: int = 0

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls(NoiseKind.NONE)

    @classmethod
    def gaussian(cls, s: float, seed: int) -> "NoiseModel":
        return cls(NoiseKind.GAUSSIAN_IID, s=s, seed=seed)

    @classmethod
    def worst_case(cls, eps: float) -> "NoiseModel":
        return cls(NoiseKind.DETERMINISTIC_WORST_CASE, eps=eps)

    def draw(self, count: int) -> np.ndarray:
        if self.kind == NoiseKind.NONE:
            return np.zeros(count)
        if self.kind == NoiseKind.GAUSSIAN_IID:
            rng = np.random.Generator(np.random.PCG64(self.seed))
            return rng.normal(0.0, self.s, size=count)
        signs = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
        return self.eps * signs

    def perturb(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        return values + self.draw(values.size)


@dataclass
class Table:
    """Named columns of equal length; the CSV unit all experiments emit."""

    name: str
    columns: dict

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(self.columns.keys()) + "\n")
            for row in zip(*self.columns.values()):
                fh.write(",".join(_cell(v) for v in row) + "\n")


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def bernstein_rho_from_pole(pole: complex) -> float:
    """Ellipse parameter of the largest Bernstein ellipse avoiding the pole.

    Maps the pole z to |z + sqrt(z^2 - 1)|, taking the branch outside the
    unit circle.
    """
    w = pole + cmath.sqrt(pole * pole - 1.0)
    mag = abs(w)
    return mag if mag >= 1.0 else 1.0 / mag


@dataclass(frozen=True)
class TestFunction:
    fn: object
    rho: float
    label: str


TEST_FUNCTIONS = {
    # Poles at +-i: rho = 1 + sqrt(2).
    "inv1px2": TestFunction(lambda x: 1.0 / (1.0 + np.asarray(x) ** 2),
                            1.0 + math.sqrt(2.0), "1/(1+x^2)"),
    # Poles at +-i/sqrt(2): rho = (1 + sqrt(3))/sqrt(2) ~ 1.93185.
    "inv1p2x2": TestFunction(lambda x: 1.0 / (1.0 + 2.0 * np.asarray(x) ** 2),
                             (1.0 + math.sqrt(3.0)) / math.sqrt(2.0),
                             "1/(1+2x^2)"),
    # Poles at 1/100 +- i/5; the shift keeps the function from being even.
    "runge25": TestFunction(lambda x: 1.0 / (1.0 + 25.0 * (np.asarray(x) - 0.01) ** 2),
                            bernstein_rho_from_pole(0.01 + 0.2j),
                            "1/(1+25(x-1/100)^2)"),
}


def run_alpha_profile(rho: float, eps: float, x_count: int) -> Table:
    """Decay exponent alpha(x) and the bound factor eps^alpha / (1-r), the
    oversampled factor at Q = 1, over a uniform sampling of the reachable
    interval, edge included.

    At the edge r -> 1, so the factor blows up; such rows are capped at
    FACTOR_CAP and flagged in the `capped` column. A rho or eps that
    ProblemParams refuses (not finite, rho <= 1, eps <= 0) raises ValueError.
    """
    if x_count < 2:
        raise ValueError("x_count must be at least 2")
    edge = ProblemParams(1, rho, eps, 1.0).interval_edge
    xs = np.linspace(1.0, edge, x_count)
    log_rho = math.log(rho)
    alphas, factors, capped = [], [], []
    for x in xs:
        r = _length(x, rho)
        if r >= 1.0:
            alphas.append(0.0)
            factors.append(FACTOR_CAP)
            capped.append(1)
            continue
        alpha = max(-math.log(r) / log_rho, 0.0)
        factor = eps ** alpha / (1.0 - r)
        if not math.isfinite(factor) or factor > FACTOR_CAP:
            factor, flag = FACTOR_CAP, 1
        else:
            flag = 0
        alphas.append(alpha)
        factors.append(factor)
        capped.append(flag)
    return Table("alpha-profile", {
        "x": list(map(float, xs)),
        "alpha": alphas,
        "factor": factors,
        "capped": capped,
    })


def run_singular_bounds_sweep(n_list) -> Table:
    """Measured extreme squared singular values of the equispaced Legendre
    design matrix at M = floor(sqrt(N)/2), next to the tight envelope that
    check_singular_bounds certifies them against.

    The floor makes the bounds jump at each perfect square N.
    """
    cols = {"N": [], "M": [], "sigma_max_sq": [], "upper_bound": [],
            "sigma_min_sq": [], "lower_bound": []}
    for n in n_list:
        m = int(math.floor(0.5 * math.sqrt(n)))
        lam = _design_spectrum(m, n, Basis.LEGENDRE)
        upper, lower = _legendre_envelope(m, n)
        cols["N"].append(int(n))
        cols["M"].append(m)
        cols["sigma_max_sq"].append(float(lam[-1]))
        cols["upper_bound"].append(upper)
        cols["sigma_min_sq"].append(float(lam[0]))
        cols["lower_bound"].append(lower)
    return Table("singular-bounds-sweep", cols)


def run_extrapolation_decay(f_id: str, x_list, m_max: int) -> Table:
    """Extrapolation error |f(x) - p_M(x)| for M = 1..m_max at each x.

    Samples are exact (perturbed only by rounding); the grid has N = 4 M^2
    points so every fit sits at the conditioning boundary M = sqrt(N)/2.
    Errors decay geometrically for x inside the function's reachable
    interval and grow outside it; the rate columns give r(x) for the
    function's own rho.
    """
    fn, rho = TEST_FUNCTIONS[f_id].fn, TEST_FUNCTIONS[f_id].rho
    xs = [float(x) for x in x_list]
    cols = {"M": [], "N": []}
    for x in xs:
        cols[f"abs_error_x={x:g}"] = []
    for x in xs:
        cols[f"rate_x={x:g}"] = []
    for m in range(1, m_max + 1):
        n = 4 * m * m
        grid = make_grid(GridKind.EQUISPACED, n)
        samples = SampleSet(grid, fn(grid.points))
        result = fit(samples, m)
        cols["M"].append(m)
        cols["N"].append(n)
        for x in xs:
            err = abs(float(fn(x)) - float(clenshaw_eval(result.series, x)))
            cols[f"abs_error_x={x:g}"].append(err)
        for x in xs:
            cols[f"rate_x={x:g}"].append(_length(x, rho))
    return Table(f"extrapolation-decay-{f_id}", cols)


def plateau_statistic(coeffs: np.ndarray) -> float:
    """Median magnitude of the trailing 20% of a coefficient vector.

    A robust stand-in for the eyeballed noise plateau in a coefficient plot.
    """
    c = np.abs(np.asarray(coeffs, dtype=float))
    m = c.size - 1
    start = int(math.floor(0.8 * m))
    return float(np.median(c[start:]))


@dataclass(frozen=True)
class NoisePlateauResult:
    table: Table
    plateaus: dict


def run_noise_plateau(m_degree: int, n_list, s: float,
                      seed: int = 0) -> NoisePlateauResult:
    """Chebyshev coefficient magnitudes of noisy fits of runge25 for each
    grid size.

    The same seed gives bit-identical noise per N. The coefficient tail
    plateaus at the per-coefficient noise level, which scales like s/sqrt(N);
    multiplying N by 100 drops the plateau about tenfold.
    """
    fn = TEST_FUNCTIONS["runge25"].fn
    cols = {"N": [], "k": [], "abs_coeff": []}
    plateaus = {}
    for n in n_list:
        n = int(n)
        grid = make_grid(GridKind.EQUISPACED, n)
        noise = NoiseModel.gaussian(s, seed) if s > 0 else NoiseModel.none()
        samples = SampleSet(grid, noise.perturb(fn(grid.points)))
        result = fit(samples, m_degree)
        coeffs = result.series.coeffs
        cols["N"].extend([n] * coeffs.size)
        cols["k"].extend(range(coeffs.size))
        cols["abs_coeff"].extend(np.abs(coeffs).tolist())
        plateaus[n] = plateau_statistic(coeffs)
    return NoisePlateauResult(Table("noise-plateau", cols), plateaus)


def run_gram_timing(m_degree: int, n_list) -> Table:
    """Wall-clock comparison of naive vs fast normal-equation assembly.

    Reports construction alone and construction plus right-hand side, for
    standard normal samples drawn with seed 0. The fast path's construction
    cost is independent of N; the naive path pays O(MN) for the design
    matrix fill plus O(M^2 N) for the product.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    cols = {"N": [], "naive_build_s": [], "naive_with_rhs_s": [],
            "fast_build_s": [], "fast_with_rhs_s": []}
    for n in n_list:
        n = int(n)
        grid = make_grid(GridKind.EQUISPACED, n)
        y = rng.normal(0.0, 1.0, size=n + 1)

        t0 = time.perf_counter()
        v = design_matrix(grid, m_degree, Basis.CHEBYSHEV)
        gram_naive(v)
        t1 = time.perf_counter()
        del v

        t2 = time.perf_counter()
        gram_fast(m_degree, n)
        t3 = time.perf_counter()

        t4 = time.perf_counter()
        rhs(grid, y, m_degree)
        t5 = time.perf_counter()
        rhs_time = t5 - t4

        cols["N"].append(n)
        cols["naive_build_s"].append(t1 - t0)
        cols["naive_with_rhs_s"].append((t1 - t0) + rhs_time)
        cols["fast_build_s"].append(t3 - t2)
        cols["fast_with_rhs_s"].append((t3 - t2) + rhs_time)
    return Table("gram-timing", cols)
