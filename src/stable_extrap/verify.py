"""Numerical certification of the package's conditioning guarantees.

Every check builds the relevant matrix, measures its spectrum, and records
an inequality as a CheckResult with the measured slack. Checks are
independent and deterministic; a suite is just a named list of them.

The design Grams, D+C and F+C have kappa <= 187.5(2M+1) at the sizes used
here, so LAPACK's eigvalsh, accurate to about eps * ||A|| absolute, is
enough for them. The basis-change norms use the power iteration on the
matrix's even and odd parity blocks. Only the interpolation sandwich, whose
square Gram has kappa up to about 1e8, keeps the Jacobi eigensolver for its
relative accuracy. The results of run_suite("all") have the same bits under 1
and 2 BLAS threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import Basis, GridKind, make_grid
from .fastgram import _gram_from_half_sums, _integral_half_sums
from .solver import basis_change_matrix
from .vandermonde import (
    design_matrix,
    dominant_eigenvalue,
    dominant_singular_value,
    gram_naive,
    jacobi_eigenvalues,
    lebesgue_constant,
    spectral_report,  # unused; the benchmark tracer wraps it (ROADMAP item 0)
)

# Checks of statements that are false as stated: they run and report
# passed=False, and the CLI's exit status does not count them.
KNOWN_FALSE = frozenset({"sandwich-lower"})


@dataclass(frozen=True)
class CheckResult:
    """One verified inequality lhs <= rhs with its measured slack."""

    name: str
    params: dict = field(default_factory=dict)
    lhs: float = 0.0
    rhs: float = 0.0
    passed: bool = False
    slack: float = 0.0
    note: str = ""


def _result(name: str, params: dict, lhs: float, rhs: float, note: str = "") -> CheckResult:
    return CheckResult(name=name, params=dict(params), lhs=float(lhs),
                       rhs=float(rhs), passed=bool(lhs <= rhs),
                       slack=float(rhs - lhs), note=note)


def gerschgorin_interval(a: np.ndarray, similarity=None) -> tuple[float, float]:
    """Real interval containing the spectrum, from Gerschgorin disks.

    An optional positive diagonal similarity P conjugates the matrix to
    P A P^-1 first, which can shrink the disk radii dramatically without
    moving the eigenvalues.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if similarity is not None:
        p = np.asarray(similarity, dtype=float)
        if p.shape != (a.shape[0],) or np.any(p <= 0):
            raise ValueError("similarity must be a positive diagonal vector")
        a = a * (p[:, None] / p[None, :])
    centers = np.diagonal(a)
    radii = np.sum(np.abs(a), axis=1) - np.abs(centers)
    return float(np.min(centers - radii)), float(np.max(centers + radii))


def parity_matrix(m_degree: int) -> np.ndarray:
    """Matrix with 1 where m+n is even, 0 otherwise (endpoint correction)."""
    idx = np.arange(m_degree + 1)
    return ((idx[:, None] + idx[None, :]) % 2 == 0).astype(float)


def dc_matrix(m_degree: int, n_samples: int) -> np.ndarray:
    """diag(N/(2m+1)) plus the parity matrix."""
    d = np.diag(n_samples / (2.0 * np.arange(m_degree + 1) + 1.0))
    return d + parity_matrix(m_degree)


def fc_matrix(m_degree: int, n_samples: int) -> np.ndarray:
    """Analytic Chebyshev product integrals (times N/2) plus the parity matrix:
    the fast Gram without its Bernoulli corrections, assembled the same way.

    Entry (m, n) is N/(2(1-(m+n)^2)) + N/(2(1-(m-n)^2)) + 1 for m+n even and
    0 for m+n odd, where the integrand is odd.
    """
    return _gram_from_half_sums(_integral_half_sums(m_degree, n_samples))


def _design_spectrum(m_degree: int, n_samples: int, basis: Basis) -> np.ndarray:
    grid = make_grid(GridKind.EQUISPACED, n_samples)
    v = design_matrix(grid, m_degree, basis)
    return np.linalg.eigvalsh(gram_naive(v))


def _legendre_envelope(m_degree: int, n_samples: int) -> tuple[float, float]:
    """Tight upper bound on sigma_max^2 and tight lower bound on sigma_min^2
    of the equispaced Legendre design matrix."""
    corr = 27.0 * math.sqrt(n_samples) / (32.0 * math.pi)
    return (0.5 * (2 * n_samples + m_degree + 3) + corr,
            (n_samples - 0.5 * m_degree ** 2) / (2 * m_degree + 1) - corr)


def _require_gerschgorin_sizes(m_degree: int, n_samples: int) -> None:
    """D+C and F+C need 1 <= N, as make_grid does, and M <= N."""
    if n_samples < 1:
        raise ValueError(f"check requires N >= 1 (got N={n_samples})")
    if m_degree > n_samples:
        raise ValueError("requires M <= N")


def _require_half_sqrt(m_degree: int, n_samples: int) -> None:
    if m_degree > 0.5 * math.sqrt(n_samples):
        raise ValueError(
            f"check requires M <= sqrt(N)/2 (got M={m_degree}, N={n_samples})"
        )


def check_singular_bounds(m_degree: int, n_samples: int) -> tuple[CheckResult, ...]:
    """Extreme squared singular values of the equispaced Legendre design
    matrix against their envelope (tight and simplified forms), and of the
    Chebyshev one: sigma1^2 <= 3N and, through ||S||_2 <= 5,
    sigma_min^2 >= sigma_min(Legendre)^2 / 25."""
    _require_half_sqrt(m_degree, n_samples)
    lam_p = _design_spectrum(m_degree, n_samples, Basis.LEGENDRE)
    lam_t = _design_spectrum(m_degree, n_samples, Basis.CHEBYSHEV)
    params = {"M": m_degree, "N": n_samples}
    upper_tight, lower_tight = _legendre_envelope(m_degree, n_samples)
    note = ("constant column over N+1 nodes gives sigma1^2 = N+1 exactly"
            if m_degree == 0 else "")
    return (
        _result("legendre-sigma-max-sq", params, float(lam_p[-1]),
                min(upper_tight, 2.0 * n_samples), note),
        _result("legendre-sigma-min-sq", params,
                max(lower_tight, 2.0 * n_samples / (5.0 * (2 * m_degree + 1))),
                float(lam_p[0])),
        _result("chebyshev-sigma-max-sq", params, float(lam_t[-1]), 3.0 * n_samples),
        _result("chebyshev-sigma-min-sq", params, float(lam_p[0]) / 25.0,
                float(lam_t[0])),
    )


def check_gram_condition(m_degree: int, n_samples: int) -> tuple[CheckResult, ...]:
    """kappa_2 of the Legendre normal-equation matrix against 5(2M+1) and of
    the Chebyshev one against 187.5(2M+1)."""
    _require_half_sqrt(m_degree, n_samples)
    lam_p = _design_spectrum(m_degree, n_samples, Basis.LEGENDRE)
    lam_t = _design_spectrum(m_degree, n_samples, Basis.CHEBYSHEV)
    params = {"M": m_degree, "N": n_samples}
    return (
        _result("legendre-gram-condition", params, float(lam_p[-1]) / float(lam_p[0]),
                5.0 * (2 * m_degree + 1)),
        _result("chebyshev-gram-condition", params, float(lam_t[-1]) / float(lam_t[0]),
                187.5 * (2 * m_degree + 1)),
    )


def check_dplusc(m_degree: int, n_samples: int) -> tuple[CheckResult, ...]:
    """Eigenvalue envelope of D+C: lambda_max <= (2N+M+3)/2 and
    lambda_min >= (N - M^2/2)/(2M+1)."""
    _require_gerschgorin_sizes(m_degree, n_samples)
    lam = np.linalg.eigvalsh(dc_matrix(m_degree, n_samples))
    params = {"M": m_degree, "N": n_samples}
    return (
        _result("dplusc-lambda-max", params, float(lam[-1]),
                0.5 * (2 * n_samples + m_degree + 3)),
        _result("dplusc-lambda-min", params,
                (n_samples - 0.5 * m_degree ** 2) / (2 * m_degree + 1),
                float(lam[0])),
    )


def check_fplusc(m_degree: int, n_samples: int) -> tuple[CheckResult, ...]:
    """Eigenvalue cap of F+C: lambda_max <= (4N+M+1)/2."""
    _require_gerschgorin_sizes(m_degree, n_samples)
    lam = np.linalg.eigvalsh(fc_matrix(m_degree, n_samples))
    return (_result("fplusc-lambda-max", {"M": m_degree, "N": n_samples},
                    float(lam[-1]), 0.5 * (4 * n_samples + m_degree + 1)),)


def check_s_norm(m_degree: int) -> tuple[CheckResult, ...]:
    """Basis-change norm chain ||S||_2 <= 2 lambda_max(S+) <= 5.

    S and its symmetric part have nonnegative entries, so the numerical-range
    argument bounds ||S||_2 through the symmetric-part spectrum. S[i, j] = 0
    when i + j is odd, so S, S^T S and S+ = (S + S^T)/2 split into an even
    and an odd parity block, and both extreme values are the larger of the
    two blocks'. The two top eigenvalues of the full matrices come one from
    each block and lie close together, which slows a power iteration on the
    full matrix; on each block alone it converges quickly. A nonzero
    odd-parity entry, which the blocks would miss, raises ValueError.
    """
    s = basis_change_matrix(m_degree)
    if np.any(s[0::2, 1::2]) or np.any(s[1::2, 0::2]):
        raise ValueError("basis-change matrix has a nonzero odd-parity entry")
    blocks = [np.ascontiguousarray(s[p::2, p::2]) for p in (0, 1) if s.shape[0] > p]
    norm2 = max(dominant_singular_value(b) for b in blocks)
    lam_plus = max(dominant_eigenvalue(0.5 * (b + b.T)) for b in blocks)
    params = {"M": m_degree}
    return (
        _result("s-norm-le-5", params, norm2, 5.0),
        _result("s-norm-le-numerical-range", params, norm2, 2.0 * lam_plus),
        _result("s-numerical-range-le-5", params, 2.0 * lam_plus, 5.0),
    )


def check_interpolation_sandwich(n_samples: int) -> tuple[CheckResult, ...]:
    """Lebesgue constant sandwich for the square equispaced system:
    Lambda_N <= kappa_2 <= sqrt(2) (N+1) Lambda_N.

    Lambda is probed at 500(N+1) + 1 equispaced points, which undershoots
    the true supremum, so the left comparison carries a 1% slack. The stated
    lower inequality is known to fail in measurement (already at Chebyshev
    points, where kappa_2 is sqrt(2) while Lambda grows logarithmically); the
    check records it as stated, alongside the provable weak form
    Lambda/(N+1) <= kappa_2. kappa_2 comes from the squared Gram, which loses
    it past N = 20 (3.8e-4 relative error at N = 30, inf at N = 40), so
    N > 20 raises ValueError.
    """
    if n_samples > 20:
        raise ValueError(
            f"sandwich check requires N <= 20 (got N={n_samples}): its kappa_2 "
            "comes from the squared Gram, which loses it past N = 20")
    params = {"N": n_samples}
    if n_samples == 0:
        return (
            _result("sandwich-lower", params, 1.0, 1.01,
                    "single node: Lambda = kappa = 1"),
            _result("sandwich-lower-weak", params, 1.0, 1.0),
            _result("sandwich-upper", params, 1.0, math.sqrt(2.0)),
        )
    grid = make_grid(GridKind.EQUISPACED, n_samples)
    v = design_matrix(grid, n_samples, Basis.CHEBYSHEV)
    # The square system's Gram has kappa up to about 1e8, far past the fit
    # regime, so sigma_min needs Jacobi's relative accuracy, not the absolute
    # accuracy of spectral_report's LAPACK solver.
    eig = jacobi_eigenvalues(gram_naive(v))
    sigma_max = math.sqrt(max(float(eig[-1]), 0.0))
    sigma_min = math.sqrt(max(float(eig[0]), 0.0))
    kappa = sigma_max / sigma_min if sigma_min > 0 else math.inf
    lam = lebesgue_constant(grid)
    return (
        _result("sandwich-lower", params, lam, 1.01 * kappa,
                "1% probe slack applied"),
        _result("sandwich-lower-weak", params, lam / (n_samples + 1), kappa,
                "weak form Lambda/(N+1) <= kappa_2, provable from the "
                "inverse-norm argument"),
        _result("sandwich-upper", params, kappa,
                math.sqrt(2.0) * (n_samples + 1) * lam),
    )


# Each suite takes, as keywords named after the overrides it honours
# (_OVERRIDES), tuples of sizes whose defaults it holds.
def _suite_singular_values(N=(64, 256, 1024, 4096)):
    return [c for n in N
            for c in check_singular_bounds(int(math.floor(0.5 * math.sqrt(n))), n)]


def _suite_conditioning(pairs=((5, 100), (10, 400), (16, 1024), (25, 2500))):
    return [c for m, n in pairs for c in check_gram_condition(m, n)]


def _suite_gerschgorin(M=(30,), N=(3600,)):
    return [c for m in M for n in N for c in check_dplusc(m, n) + check_fplusc(m, n)]


def _suite_s_norm(M=(10, 100, 1000)):
    return [c for m in M for c in check_s_norm(m)]


def _suite_sandwich(N=(4, 8, 12, 16, 20)):
    return [c for n in N for c in check_interpolation_sandwich(n)]


_SUITES = {"singular-values": _suite_singular_values, "conditioning": _suite_conditioning,
           "gerschgorin": _suite_gerschgorin, "s-norm": _suite_s_norm,
           "sandwich": _suite_sandwich}
_OVERRIDES = {"singular-values": ("N",), "conditioning": (), "gerschgorin": ("M", "N"),
              "s-norm": ("M",), "sandwich": ("N",), "all": ()}
SUITE_NAMES = tuple(_OVERRIDES)


def run_suite(name: str, m_degree: int | None = None,
              n_samples: int | None = None) -> list[CheckResult]:
    """Run a named suite of checks, sorted by (name, params) for stable output.

    An override of None keeps the suite's sizes, and any other value, 0
    included, replaces them. One the suite does not honor (_OVERRIDES), a
    negative one or one a check cannot run with raises ValueError.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES[:-1])}, all")
    sizes = {flag: (value,) for flag, value in (("M", m_degree), ("N", n_samples))
             if value is not None}
    for flag, (value,) in sizes.items():
        if flag not in _OVERRIDES[name]:
            raise ValueError(f"suite {name!r} takes no {flag} override")
        if value < 0:
            raise ValueError(f"{flag} override must be nonnegative, got {value}")
    suites = _SUITES.values() if name == "all" else (_SUITES[name],)
    results = [c for suite in suites for c in suite(**sizes)]
    return sorted(results, key=lambda c: (c.name, sorted(c.params.items())))
