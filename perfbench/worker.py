"""Closed-loop job runner for the in-process workloads.

    python3 perfbench/worker.py SPEC.json RESULT.json

run.py starts this process with the BLAS thread cap already in
its environment and PYTHONPATH pointing at the checkout's src. The spec names
the workload, its input file and its phases, each a list [traced, seconds].
One untimed warm-up job runs first so that lazy set-up inside the package is
done before timing. Each phase then runs one job at a time until its seconds
are spent. Every job's output is written back for run.py to check.
"""

from __future__ import annotations

import json
import resource
import sys
from dataclasses import asdict

import numpy as np

from stable_extrap import Grid, GridKind, ProblemParams, SampleSet, extrapolator, verify
from loop import closed_loop
from tracing import Tracer
from workloads import WORKLOADS


def make_job(spec: dict):
    """Return (job, summarize): job() runs one call, summarize(result)
    turns its result into the JSON run.py checks."""
    workload = WORKLOADS[spec["workload"]]
    # Functions are looked up on each call so that a tracer's wrapper is the
    # one called.
    if workload.kind == "certify":
        return (lambda: verify.run_suite("all"),
                lambda checks: [asdict(c) for c in checks])

    problem = workload.problem
    with np.load(spec["inputs"]) as data:
        samples = SampleSet(Grid(data["x"], GridKind.EQUISPACED), data["y"])
    params = ProblemParams(problem.n, problem.rho, problem.eps, problem.q)
    xs = problem.xs

    def summarize(report):
        return {"M_star": report.m_star, "sigma_min": report.sigma_min,
                "points": [{"x": p.x, "value": p.value, "bound_explicit": p.bound_explicit}
                           for p in report.points]}

    return lambda: extrapolator.extrapolate(samples, params, xs), summarize


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    job, summarize = make_job(spec)
    warmup = summarize(job())
    phases = []
    for traced, seconds in spec["phases"]:
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.install()

        def call(i):
            if tracer is not None:
                tracer.job = i
            return job()

        phase = closed_loop(call, seconds, probe_between=True)
        phase["outputs"] = [summarize(r) for r in phase.pop("results")]
        phase.update(tracer.dump() if tracer else {"spans": [], "counts": []})
        phase["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        phases.append(phase)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"warmup": warmup, "phases": phases}, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
