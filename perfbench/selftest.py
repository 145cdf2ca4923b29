"""Tests of the benchmark's own inputs, correctness gates and span arithmetic.

    python3 -m pytest -q perfbench/selftest.py

Each gate must accept a right answer and reject each kind of wrong one. The
file name keeps these tests out of the package's own test run.
"""

import copy
import functools
import json
import math

import numpy as np
import pytest

from loop import REFERENCE_PROBE_S, at_reference_speed, closed_loop
from tracing import layer_times, median_over_jobs
from workloads import (
    WORKLOADS,
    check_certify,
    check_cli_output,
    check_extrapolation,
    load_certify_reference,
)

PROBLEMS = {name: w.problem for name, w in WORKLOADS.items() if w.problem is not None}


@functools.cache
def reference(name):
    problem = PROBLEMS[name]
    return problem.reference(*problem.samples(1))


def right_answer(name) -> dict:
    """A document as the package prints it, built from the harness's reference."""
    problem, ref = PROBLEMS[name], reference(name)
    return {"schema": 1, "N": problem.n, "M_star": problem.m_star, "sigma_min": ref.sigma_min,
            "points": [{"x": x, "value": v, "bound_explicit": b}
                       for x, v, b in zip(problem.xs, ref.values, ref.bounds)]}


@pytest.mark.parametrize("name, rho, q, m_star", [
    ("cli-extrapolate", 2.2728, 6.304, 35),
    ("lib-large-n", 2.2728, 6.304, 27),
    ("lib-high-degree", 1.1978, 5.721, 125),
])
def test_parameters_are_truthful(name, rho, q, m_star):
    problem = PROBLEMS[name]
    assert problem.rho == pytest.approx(rho, abs=1e-4)
    assert problem.q == pytest.approx(q, abs=1e-3)
    assert problem.m_star == m_star
    edge = 0.5 * (problem.rho + 1.0 / problem.rho)
    assert all(1.0 <= x < edge for x in problem.xs)


def test_samples_are_seeded_and_noise_is_bounded():
    problem = PROBLEMS["lib-high-degree"]
    x, y = problem.samples(7)
    x2, y2 = problem.samples(7)
    assert np.array_equal(y, y2) and np.array_equal(x, x2)
    assert not np.array_equal(y, problem.samples(8)[1])
    assert x[0] == -1.0 and x[-1] == 1.0 and x.size == problem.n + 1
    # Adding the noise to f rounds once, by at most one spacing of y.
    assert np.all(np.abs(y - problem.f(x)) <= problem.eps + np.spacing(np.abs(y)))


def test_reference_matches_an_independent_solve():
    """The chunked normal equations agree with a QR least-squares fit of the
    whole Chebyshev design matrix and with its smallest singular value."""
    problem = PROBLEMS["lib-high-degree"]
    x, y = problem.samples(1)
    ref = problem.reference(x, y)
    v = np.polynomial.chebyshev.chebvander(x, problem.m_star)
    assert ref.sigma_min == pytest.approx(np.linalg.svd(v, compute_uv=False)[-1], rel=1e-12)
    coef = np.linalg.lstsq(v, y, rcond=None)[0]
    values = np.polynomial.chebyshev.chebval(np.array(problem.xs), coef)
    assert np.all(np.abs(values - ref.values) <= np.array(ref.tolerances))


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_extrapolation_gate_accepts_right_answer(name):
    problem, ref = PROBLEMS[name], reference(name)
    doc = right_answer(name)
    assert check_extrapolation(problem, ref, doc) == []
    assert check_cli_output(problem, ref, 0, json.dumps(doc)) == []


def _scale_values(d, factor):
    for p in d["points"]:
        p["value"] *= factor


@pytest.mark.parametrize("corrupt", [
    lambda d: d.update(M_star=d["M_star"] + 1),
    lambda d: d.update(sigma_min=d["sigma_min"] * (1.0 + 1e-6)),
    lambda d: d.update(sigma_min=d["sigma_min"] * 0.5),
    lambda d: d.update(sigma_min=math.inf),
    lambda d: d.pop("sigma_min"),
    lambda d: d["points"][1].update(value=d["points"][1]["value"] + 1e-3),
    lambda d: _scale_values(d, 1.0 + 1e-6),
    lambda d: _scale_values(d, 1.0 - 1e-6),
    lambda d: d["points"][2].update(bound_explicit=1e-12),
    lambda d: d["points"][2].update(bound_explicit=d["points"][2]["bound_explicit"] * 2.0),
    lambda d: d["points"][0].update(bound_explicit=math.inf),
    lambda d: d["points"][0].update(value=math.nan),
    lambda d: d["points"][0].update(value=None),
    lambda d: d["points"].pop(),
    lambda d: d["points"][0].update(x=d["points"][0]["x"] + 1e-3),
])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_extrapolation_gate_rejects_wrong_answer(name, corrupt):
    problem, ref = PROBLEMS[name], reference(name)
    doc = right_answer(name)
    corrupt(doc)
    assert check_extrapolation(problem, ref, doc)
    assert check_cli_output(problem, ref, 0, json.dumps(doc))


def test_value_gate_rejects_a_fit_that_is_only_within_the_bound():
    """A value off the reference fit by a thousandth of the explicit bound
    still satisfies |f - value| <= bound, but not the reference tolerance."""
    problem, ref = PROBLEMS["lib-high-degree"], reference("lib-high-degree")
    doc = right_answer("lib-high-degree")
    doc["points"][0]["value"] += 1e-3 * ref.bounds[0]
    assert abs(problem.f(problem.xs[0]) - doc["points"][0]["value"]) <= ref.bounds[0]
    assert check_extrapolation(problem, ref, doc)


@pytest.mark.parametrize("returncode, stdout", [
    (3, "{}"),
    (0, "not json"),
    (0, json.dumps({"schema": 2})),
    (0, "[]"),
])
def test_cli_gate_rejects_bad_exit_or_document(returncode, stdout):
    problem, ref = PROBLEMS["cli-extrapolate"], reference("cli-extrapolate")
    if stdout == "{}":
        stdout = json.dumps(right_answer("cli-extrapolate"))
    assert check_cli_output(problem, ref, returncode, stdout)


def test_cli_gate_rejects_wrong_n():
    problem, ref = PROBLEMS["cli-extrapolate"], reference("cli-extrapolate")
    doc = right_answer("cli-extrapolate")
    doc["N"] = problem.n - 1
    assert check_cli_output(problem, ref, 0, json.dumps(doc))


@pytest.fixture(scope="module")
def certify_checks():
    reference = load_certify_reference()
    return list(reference.values()), reference


def test_certify_gate_accepts_reference(certify_checks):
    checks, reference = certify_checks
    assert len(checks) == 51
    assert check_certify(checks, reference) == []


def _flip_first_passing(checks):
    next(c for c in checks if c["passed"])["passed"] = False


def _fix_xfail(checks):
    next(c for c in checks if not c["passed"])["passed"] = True


def _nudge_lhs(checks):
    checks[10]["lhs"] *= 1.0 + 1e-7


def _nudge_rhs(checks):
    checks[-1]["rhs"] *= 1.0 - 1e-7


def _rename(checks):
    checks[0]["name"] = "not-a-check"


def _drop_one_repeat_another(checks):
    """Same count and the same failure set, but one check is missing."""
    checks.remove(next(c for c in checks if c["passed"]))
    checks.append(copy.deepcopy(next(c for c in checks if c["passed"])))


@pytest.mark.parametrize("corrupt", [
    lambda c: c.pop(),
    lambda c: c.append(copy.deepcopy(c[0])),
    _flip_first_passing,
    _fix_xfail,
    _nudge_lhs,
    _nudge_rhs,
    _rename,
    _drop_one_repeat_another,
])
def test_certify_gate_rejects_wrong_answer(certify_checks, corrupt):
    checks, reference = certify_checks
    checks = copy.deepcopy(checks)
    corrupt(checks)
    assert check_certify(checks, reference)


def test_self_time_subtracts_direct_children_only():
    ms = 1_000_000
    spans = [
        ["root", 0, 100 * ms, -1, 0],
        ["child", 10 * ms, 50 * ms, 0, 0],
        ["grandchild", 20 * ms, 30 * ms, 1, 0],
        ["child", 60 * ms, 70 * ms, 0, 0],
        ["root", 0, 40 * ms, -1, 1],
    ]
    jobs = layer_times(spans)
    assert jobs[0]["root"]["self_s"] == pytest.approx(0.050)
    assert jobs[0]["child"]["s"] == pytest.approx(0.050)
    assert jobs[0]["child"]["self_s"] == pytest.approx(0.040)
    assert jobs[0]["child"]["calls"] == 2
    assert median_over_jobs(jobs, [0, 1], "child", "s") == pytest.approx(0.025)
    assert median_over_jobs(jobs, [0, 1], "root", "s") == pytest.approx(0.070)


def test_closed_loop_gauges_every_job_when_asked():
    out = closed_loop(lambda i: i * 10, 0.05, probe_between=True)
    n = len(out["job_s"])
    assert n >= 1 and out["results"] == [i * 10 for i in range(n)]
    assert len(out["gauge_s"]) == n and all(g > 0 for g in out["gauge_s"])
    assert "gauge_s" not in closed_loop(lambda i: i, 0.01, probe_between=False)


def test_times_scale_by_their_gauge():
    ref = REFERENCE_PROBE_S
    # A job gauged at twice the reference probe time ran at half speed.
    assert at_reference_speed([1.0, 4.0], [2 * ref, 0.5 * ref]) == pytest.approx([0.5, 8.0])

