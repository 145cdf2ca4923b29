"""Workload definitions, seeded input generation and correctness gates.

Nothing here imports stable_extrap: the test functions, their Bernstein
parameters, the expected degree M* and the noise are the benchmark's own, so
a defect in the package cannot make its own inputs look right.
"""

from __future__ import annotations

import cmath
import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.polynomial import chebyshev

CERTIFY_REFERENCE = Path(__file__).with_name("certify_reference.json")
CERTIFY_CHECK_COUNT = 51
# The stated Lebesgue-sandwich lower inequality fails in measurement; the
# package documents it as a strict xfail. Every other check must pass.
CERTIFY_EXPECTED_FAILURES = frozenset(("sandwich-lower", n) for n in (8, 12, 16, 20))
# Reference lhs/rhs were recorded from the Jacobi eigensolver. LAPACK agrees to
# about 1e-14 relative, so this tolerance admits a solver swap and rejects any
# value that is wrong beyond rounding.
CERTIFY_RTOL = 1e-9
# sigma_min and bound_explicit must match the harness's own values to this
# relative tolerance; on seed runs they agree to about 2e-14.
EXTRAP_RTOL = 1e-9
# Each value must match the harness's own least-squares fit as if the samples
# differed by at most this much: the tolerance at x is this level times the
# noise amplification of the explicit bound. Seed runs differ by at most
# 7.5e-17 times that amplification, 130 times below this level.
VALUE_PERTURBATION = 1e-14


@dataclass(frozen=True)
class PoleFunction:
    """f(x) = 1 / (1 + a (x - c)^2), analytic inside the ellipse through its poles."""

    name: str
    a: float
    c: float

    def __call__(self, x):
        return 1.0 / (1.0 + self.a * (x - self.c) ** 2)

    def pole(self) -> complex:
        return complex(self.c, 1.0 / math.sqrt(self.a))


INV1PX2 = PoleFunction("inv1px2", 1.0, 0.0)
RUNGE25 = PoleFunction("runge25", 25.0, 0.01)


def bernstein_rho(z: complex) -> float:
    """Parameter of the Bernstein ellipse whose boundary passes through z."""
    w = z + cmath.sqrt(z - 1.0) * cmath.sqrt(z + 1.0)
    return max(abs(w), 1.0 / abs(w))


def ellipse_max(f: PoleFunction, rho: float, count: int = 8192) -> float:
    """max |f| on the Bernstein ellipse E_rho (the boundary, by max modulus)."""
    theta = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    w = rho * np.exp(1j * theta)
    return float(np.max(np.abs(f(0.5 * (w + 1.0 / w)))))


@dataclass(frozen=True)
class Extrapolation:
    """One extrapolation job: N+1 noisy equispaced samples of f, evaluated at xs."""

    f: PoleFunction
    n: int
    eps: float

    @cached_property
    def rho(self) -> float:
        # 90% of the way to the pole keeps f analytic and bounded on E_rho.
        return 1.0 + 0.9 * (bernstein_rho(self.f.pole()) - 1.0)

    @cached_property
    def q(self) -> float:
        return 1.01 * ellipse_max(self.f, self.rho)

    @cached_property
    def m_star(self) -> int:
        return math.floor(min(0.5 * math.sqrt(self.n),
                              math.log(self.q / self.eps) / math.log(self.rho)))

    @cached_property
    def xs(self) -> list[float]:
        """Points at 0, 1/4 and 1/2 of the reachable interval [1, (rho+1/rho)/2)."""
        edge = 0.5 * (self.rho + 1.0 / self.rho)
        return [1.0 + t * (edge - 1.0) for t in (0.0, 0.25, 0.5)]

    def samples(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Grid x_k = 2k/N - 1 and f(x_k) plus uniform noise in [-eps, eps]."""
        rng = np.random.Generator(np.random.PCG64(seed))
        x = 2.0 * np.arange(self.n + 1) / self.n - 1.0
        y = self.f(x) + rng.uniform(-self.eps, self.eps, self.n + 1)
        return x, y

    def noise_amplification(self, x: float, sigma_min: float) -> float:
        """(M+1) sqrt(N+1) / sigma_min * (x + sqrt(x^2-1))^M: how much a
        perturbation of the samples can move the fitted value at x."""
        m = self.m_star
        return ((m + 1) * math.sqrt(self.n + 1) / sigma_min
                * (x + math.sqrt(x * x - 1.0)) ** m)

    def explicit_bound(self, x: float, sigma_min: float) -> float:
        """The paper's computable bound on |f(x) - p(x)| at degree M*:
        2Q (sqrt(N+1)(M+1) / (sigma_min (rho-1)) + r/(1-r)) r^M plus the noise
        term eps times the noise amplification, with r = (x + sqrt(x^2-1))/rho."""
        m, rho = self.m_star, self.rho
        r = (x + math.sqrt(x * x - 1.0)) / rho
        lead = 2.0 * self.q * (math.sqrt(self.n + 1) * (m + 1) / (sigma_min * (rho - 1.0))
                               + r / (1.0 - r)) * r ** m
        return lead + self.eps * self.noise_amplification(x, sigma_min)

    def reference(self, x: np.ndarray, y: np.ndarray, chunk: int = 65536) -> "Reference":
        """The harness's own answer: Gram and right-hand side of the
        Chebyshev design matrix summed over chunks of rows, sigma_min from
        LAPACK's symmetric eigensolver, and the least-squares fit evaluated
        at xs."""
        m = self.m_star
        gram, b = np.zeros((m + 1, m + 1)), np.zeros(m + 1)
        for lo in range(0, x.size, chunk):
            v = chebyshev.chebvander(x[lo:lo + chunk], m)
            gram += v.T @ v
            b += v.T @ y[lo:lo + chunk]
        sigma_min = math.sqrt(float(np.linalg.eigvalsh(gram)[0]))
        values = chebyshev.chebval(np.array(self.xs), np.linalg.solve(gram, b))
        return Reference(sigma_min, [float(v) for v in values],
                         [self.explicit_bound(t, sigma_min) for t in self.xs],
                         [VALUE_PERTURBATION * self.noise_amplification(t, sigma_min)
                          for t in self.xs])

    def cli_args(self, csv_path: str) -> list[str]:
        return ["extrapolate", "--input", csv_path,
                "--rho", repr(self.rho), "--eps", repr(self.eps), "--Q", repr(self.q),
                "--at", ",".join(repr(x) for x in self.xs)]

    def working_set_bytes(self) -> int:
        """The sample vectors x and y, 8 bytes per point each."""
        return 2 * 8 * (self.n + 1)


@dataclass(frozen=True)
class Reference:
    """The harness's answer to one extrapolation job, one entry per point of xs."""

    sigma_min: float
    values: list[float]
    bounds: list[float]
    tolerances: list[float]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cli", "lib" or "certify"
    problem: Extrapolation | None = None


# Each workload is dominated by a different layer, so a change to one layer
# shows on one workload and not on the others.
WORKLOADS = {w.name: w for w in (
    # The headline use: one CLI process per job on a 1e6-row CSV, so CSV
    # ingest and import dominate.
    Workload("cli-extrapolate", "cli", Extrapolation(INV1PX2, 1_000_000, 1e-12)),
    # In-process at N=4e6, M*=27: the O(MN) right-hand side, the only layer
    # that grows with N.
    Workload("lib-large-n", "lib", Extrapolation(INV1PX2, 4_000_000, 1e-9)),
    # In-process runge25 at N=62500, M*=125 (undersampled): the sigma_min
    # eigensolve dominates.
    Workload("lib-high-degree", "lib", Extrapolation(RUNGE25, 62_500, 1e-14)),
    # run_suite("all"): many small eigensolves, the M=1000 power iteration
    # and the basis-change loop; the only workload that runs verify.
    Workload("certify", "certify"),
)}


def write_csv(path: Path, x: np.ndarray, y: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        fh.writelines(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist()))


# ---------------------------------------------------------------------------
# Correctness gates. Each returns a list of problems; empty means correct.
# ---------------------------------------------------------------------------

def _is_finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_extrapolation(problem: Extrapolation, ref: Reference, doc: dict) -> list[str]:
    """M* must be the harness's own choice; sigma_min and every bound_explicit
    must match the harness's values; every value must match the harness's fit
    within its tolerance and satisfy |f(x) - value| <= the harness's bound."""
    errors = []
    if doc.get("M_star") != problem.m_star:
        errors.append(f"M_star {doc.get('M_star')!r} != expected {problem.m_star}")
    sigma_min = doc.get("sigma_min")
    if not (_is_finite(sigma_min) and _close(sigma_min, ref.sigma_min, EXTRAP_RTOL)):
        errors.append(f"sigma_min {sigma_min!r} != expected {ref.sigma_min!r}")
    points = doc.get("points") or []
    if [p.get("x") for p in points] != problem.xs:
        errors.append(f"points at {[p.get('x') for p in points]} != requested {problem.xs}")
        return errors
    for p, expected, bound, tol in zip(points, ref.values, ref.bounds, ref.tolerances):
        x, value, reported = p["x"], p.get("value"), p.get("bound_explicit")
        if not (_is_finite(value) and _is_finite(reported)):
            errors.append(f"x={x!r}: value or bound is not a finite number")
            continue
        if not _close(reported, bound, EXTRAP_RTOL):
            errors.append(f"x={x!r}: bound_explicit {reported!r} != expected {bound!r}")
        if not abs(value - expected) <= tol:
            errors.append(f"x={x!r}: value {value!r} differs from reference {expected!r} "
                          f"by more than {tol:.3e}")
        err = abs(problem.f(x) - value)
        if not err <= bound:
            errors.append(f"x={x!r}: |f - value| = {err:.3e} > bound {bound:.3e}")
    return errors


def check_cli_output(problem: Extrapolation, ref: Reference, returncode: int,
                     stdout: str) -> list[str]:
    """The CLI must exit 0 and print a schema-1 document that passes
    check_extrapolation."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        return ["output is not a schema-1 document"]
    if doc.get("N") != problem.n:
        return [f"N {doc.get('N')!r} != {problem.n}"]
    return check_extrapolation(problem, ref, doc)


def check_key(check: dict) -> str:
    return json.dumps([check["name"], sorted(check["params"].items())])


def load_certify_reference() -> dict:
    with open(CERTIFY_REFERENCE, encoding="utf-8") as fh:
        return {check_key(c): c for c in json.load(fh)}


def check_certify(checks: list[dict], reference: dict) -> list[str]:
    """Each of the 51 reference checks exactly once; all pass but the
    documented sandwich-lower xfails; lhs and rhs match the reference."""
    errors = []
    counts = Counter(check_key(c) for c in checks)
    missing = sorted(set(reference) - set(counts))
    repeated = sorted(k for k, n in counts.items() if n > 1)
    if missing or repeated or len(reference) != CERTIFY_CHECK_COUNT:
        errors.append(f"{len(checks)} checks, expected each of {CERTIFY_CHECK_COUNT} once; "
                      f"missing {missing[:3]}, repeated {repeated[:3]}")
    failed = {(c["name"], c["params"].get("N")) for c in checks if not c["passed"]}
    if failed != CERTIFY_EXPECTED_FAILURES:
        errors.append(f"failing checks {sorted(failed)} != expected "
                      f"{sorted(CERTIFY_EXPECTED_FAILURES)}")
    for c in checks:
        ref = reference.get(check_key(c))
        if ref is None:
            errors.append(f"unexpected check {check_key(c)}")
        elif not (_close(c["lhs"], ref["lhs"], CERTIFY_RTOL)
                  and _close(c["rhs"], ref["rhs"], CERTIFY_RTOL)):
            errors.append(f"{check_key(c)}: lhs/rhs {c['lhs']!r}/{c['rhs']!r} differ "
                          f"from reference {ref['lhs']!r}/{ref['rhs']!r}")
    return errors
