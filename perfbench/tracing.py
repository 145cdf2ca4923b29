"""Spans around the calls each stable_extrap module makes into the next.

Tracer.install replaces, in the running process only, the names each module
imported from another (extrapolator.fit, solver.rhs, cli.read_samples_csv,
...) with wrappers that record a span per call. No package file changes.
A span is [name, start_ns, end_ns, parent_index, job]; spans stay in memory
until the process writes them out.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict

# (module whose global is replaced, global name, layer the span is named after)
WRAPPED = (
    ("cli", "read_samples_csv", "cli.read_samples_csv"),
    ("cli", "json_dumps", "cli.json_dumps"),
    ("cli", "extrapolate", "extrapolator.extrapolate"),
    ("extrapolator", "extrapolate", "extrapolator.extrapolate"),
    ("extrapolator", "fit", "solver.fit"),
    ("extrapolator", "gram_fast", "fastgram.gram_fast"),
    ("extrapolator", "spectral_report", "vandermonde.spectral_report"),
    ("extrapolator", "clenshaw_eval", "basis.clenshaw_eval"),
    ("solver", "gram_fast", "fastgram.gram_fast"),
    ("solver", "rhs", "fastgram.rhs"),
    ("solver", "spectral_report", "vandermonde.spectral_report"),
    ("solver", "design_matrix", "vandermonde.design_matrix"),
    ("solver", "gram_naive", "vandermonde.gram_naive"),
    ("solver", "jacobi_eigenvalues", "vandermonde.jacobi_eigenvalues"),
    ("solver", "dominant_eigenvalue", "vandermonde.dominant_eigenvalue"),
    # spectral_report calls the eigensolver through its own module global.
    ("vandermonde", "jacobi_eigenvalues", "vandermonde.jacobi_eigenvalues"),
    ("verify", "run_suite", "verify.run_suite"),
    ("verify", "basis_change_matrix", "solver.basis_change_matrix"),
    ("verify", "design_matrix", "vandermonde.design_matrix"),
    ("verify", "gram_naive", "vandermonde.gram_naive"),
    ("verify", "jacobi_eigenvalues", "vandermonde.jacobi_eigenvalues"),
    ("verify", "dominant_eigenvalue", "vandermonde.dominant_eigenvalue"),
    ("verify", "lebesgue_constant", "vandermonde.lebesgue_constant"),
    ("verify", "spectral_report", "vandermonde.spectral_report"),
)

SHIFT_NOTE = "shifted by 1e-14*trace"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple, int] = defaultdict(int)
        self.job = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [name, time.perf_counter_ns(), 0,
                      self._stack[-1] if self._stack else -1, self.job]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record[2] = time.perf_counter_ns()
            if name == "solver.fit":
                self.counts[(self.job, "solver.fit.shift_retries")] += sum(
                    SHIFT_NOTE in note for note in result.warnings)
            return result
        return traced

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            mod = importlib.import_module(f"stable_extrap.{module}")
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))

    def dump(self) -> dict:
        return {"spans": self.spans,
                "counts": [[job, key, n] for (job, key), n in self.counts.items()]}


def layer_times(spans: list[list]) -> dict:
    """Per job and layer: inclusive seconds, self seconds and call count.

    Self time is a span's duration minus that of its direct children; calls
    run on one thread, so children never overlap.
    """
    child_ns = defaultdict(int)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    jobs: dict = defaultdict(lambda: defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0}))
    for i, (name, start, end, parent, job) in enumerate(spans):
        entry = jobs[job][name]
        entry["s"] += (end - start) * 1e-9
        entry["self_s"] += (end - start - child_ns[i]) * 1e-9
        entry["calls"] += 1
    return jobs


def median_over_jobs(jobs: dict, job_ids, name: str, field: str) -> float:
    """Median over job_ids of one layer field; a job that never entered the
    layer counts as 0."""
    return statistics.median(
        jobs[j][name][field] if name in jobs.get(j, {}) else 0.0 for j in job_ids)
