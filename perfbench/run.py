"""Benchmark runner for stable_extrap.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the checkout is the parent of perfbench/. run.py
builds seeded inputs in .perfbench_work/ and its own reference answer to them
(both untimed), measures set-up as the median of several cold
`import stable_extrap` processes, then runs the workload as a closed loop
(loop.py), one job in flight, for S seconds, and checks every job's output.
With --trace 0 it prints the end-to-end metrics; with --trace 1 it spends
half of S untraced and half with a span at every layer boundary, and prints
per-layer metrics derived from the spans. In-process job times are reported
at a reference processor speed, gauged by a fixed loop timed around every
job (see loop.py); the times as measured are in the environment line. CLI
jobs and set-up imports are reported as measured. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Workloads (see workloads.py): cli-extrapolate spawns one CLI process per
job; lib-large-n, lib-high-degree and certify run in one worker process
(worker.py). Every child gets the BLAS thread cap through its environment
before its interpreter starts; the CLI's --threads flag is never used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import tracing
from loop import at_reference_speed, closed_loop
from workloads import (
    WORKLOADS,
    check_certify,
    check_cli_output,
    check_extrapolation,
    load_certify_reference,
    write_csv,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5

PER_LAYER = (
    # (metric, unit, layer, field); field "calls" is a count per job.
    ("cli.read_samples_csv.s", "s", "cli.read_samples_csv", "s"),
    ("cli.json_dumps.s", "s", "cli.json_dumps", "s"),
    ("fastgram.rhs.s", "s", "fastgram.rhs", "s"),
    ("fastgram.gram_fast.s", "s", "fastgram.gram_fast", "s"),
    ("fastgram.gram_fast.calls_per_job", "count", "fastgram.gram_fast", "calls"),
    ("vandermonde.spectral_report.s", "s", "vandermonde.spectral_report", "s"),
    ("vandermonde.spectral_report.calls_per_job", "count", "vandermonde.spectral_report", "calls"),
    ("vandermonde.jacobi_eigenvalues.s", "s", "vandermonde.jacobi_eigenvalues", "s"),
    ("vandermonde.dominant_eigenvalue.s", "s", "vandermonde.dominant_eigenvalue", "s"),
    ("vandermonde.gram_naive.s", "s", "vandermonde.gram_naive", "s"),
    ("vandermonde.design_matrix.s", "s", "vandermonde.design_matrix", "s"),
    ("vandermonde.lebesgue_constant.s", "s", "vandermonde.lebesgue_constant", "s"),
    ("solver.fit.self_s", "s", "solver.fit", "self_s"),
    ("solver.basis_change_matrix.s", "s", "solver.basis_change_matrix", "s"),
    ("extrapolator.extrapolate.self_s", "s", "extrapolator.extrapolate", "self_s"),
    ("basis.clenshaw_eval.s", "s", "basis.clenshaw_eval", "s"),
    ("verify.run_suite.self_s", "s", "verify.run_suite", "self_s"),
)


def spawn(argv: list[str], env: dict, stdout: Path | None = None,
          stderr: Path | None = None) -> tuple[int, int]:
    """Run argv to completion; return its exit code and peak RSS in KiB."""
    actions = []
    for fd, path in ((1, stdout), (2, stderr)):
        if path is not None:
            actions.append((os.POSIX_SPAWN_OPEN, fd, str(path),
                            os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644))
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def cache_size(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, check=True)
        return int(out.stdout)
    except (OSError, subprocess.CalledProcessError, ValueError):
        return None


def environment(workload, threads: int) -> dict:
    l3 = cache_size("LEVEL3_CACHE_SIZE")
    record = {
        "nproc": threads,
        "blas_threads": threads,
        "l2_bytes": cache_size("LEVEL2_CACHE_SIZE"),
        "l3_bytes": l3,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "workload": workload.name,
        "loop": "closed, one client, one job in flight",
    }
    if workload.problem is not None:
        ws = workload.problem.working_set_bytes()
        record["working_set_bytes"] = ws
        record["working_set_fits_l3"] = None if l3 is None else ws <= l3
    else:
        # The largest matrix certify builds: S^T S at M = 1000.
        record["working_set_bytes"] = 8 * 1001 * 1001
    return record


def measure_setup(env: dict) -> float:
    """Median wall time of a fresh interpreter importing the package. One
    untimed import first writes the bytecode cache, as any install would."""
    argv = [sys.executable, "-c", "import stable_extrap"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        code, _ = spawn(argv, env)
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"import stable_extrap exited with {code}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def run_cli(workload, work: Path, env: dict, phases, ref) -> tuple[list, int, int]:
    """One CLI process per job, timed from spawn to exit. Returns per-phase
    dicts, the failure count and the number of jobs checked."""
    problem = workload.problem
    args = problem.cli_args(str(work / "samples.csv"))
    results, failed = [], 0
    for p, (traced, seconds) in enumerate(phases):
        def files(i):
            return [work / f"job{p}-{i}.{ext}" for ext in ("out", "err", "spans")]

        def job(i):
            out, err, span_file = files(i)
            if traced:
                argv = [sys.executable, str(HERE / "traced_cli.py"), str(span_file), *args]
            else:
                argv = [sys.executable, "-m", "stable_extrap.cli", *args]
            return spawn(argv, env, out, err)

        phase = closed_loop(job, seconds, probe_between=False)
        rss, spans, counts = [], [], []
        for i, (code, peak_kb) in enumerate(phase.pop("results")):
            out, err, span_file = files(i)
            rss.append(peak_kb)
            errors = check_cli_output(problem, ref, code, out.read_text(encoding="utf-8"))
            if errors:
                failed += 1
                report_failure(workload, errors, err)
            if traced and code == 0:
                dump = json.loads(span_file.read_text(encoding="utf-8"))
                base = len(spans)
                spans += [[name, s, e, q + base if q >= 0 else q, i]
                          for name, s, e, q, _ in dump["spans"]]
                counts += [[i, key, n] for _, key, n in dump["counts"]]
            for path in (out, err, span_file):
                path.unlink(missing_ok=True)
        phase.update(peak_rss_kb=statistics.median(rss), spans=spans, counts=counts)
        results.append(phase)
    return results, failed, sum(len(r["job_s"]) for r in results)


def run_worker(workload, work: Path, env: dict, phases, ref) -> tuple[list, int, int]:
    """All jobs in one worker process. Returns per-phase dicts, the failure
    count and the number of jobs checked: the warm-up and every timed job."""
    spec, result_path = work / "spec.json", work / "result.json"
    spec.write_text(json.dumps({"workload": workload.name,
                                "inputs": str(work / "samples.npz"),
                                "phases": phases}), encoding="utf-8")
    code, _ = spawn([sys.executable, str(HERE / "worker.py"), str(spec), str(result_path)], env)
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if workload.kind == "certify":
        reference = load_certify_reference()
        check = lambda doc: check_certify(doc, reference)  # noqa: E731
    else:
        check = lambda doc: check_extrapolation(workload.problem, ref, doc)  # noqa: E731
    failed = 0
    outputs = [result["warmup"]] + [o for p in result["phases"] for o in p.pop("outputs")]
    for doc in outputs:
        errors = check(doc)
        if errors:
            failed += 1
            report_failure(workload, errors)
    return result["phases"], failed, len(outputs)


def report_failure(workload, errors: list[str], stderr_file: Path | None = None) -> None:
    print(f"{workload.name}: wrong answer: {'; '.join(errors[:5])}", file=sys.stderr)
    if stderr_file is not None and stderr_file.exists():
        sys.stderr.write(stderr_file.read_text(encoding="utf-8")[-2000:])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(phase: dict, setup_s: float) -> dict:
    """Job times are at the reference speed where the phase has a gauge
    (loop.py); jobs_per_s is jobs per second of job time."""
    scaled = phase["scaled_s"]
    return {
        "setup_s": metric(setup_s, "s"),
        "job_s.p50": metric(statistics.median(scaled), "s"),
        "jobs_per_s": metric(len(scaled) / sum(scaled), "1/s"),
        "peak_rss_mb": metric(phase["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(workload, untraced: dict, traced: dict) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced jobs) and a layer breakdown."""
    jobs = tracing.layer_times(traced["spans"])
    ids = range(len(traced["job_s"]))
    med = lambda name, field: tracing.median_over_jobs(jobs, ids, name, field)  # noqa: E731
    metrics = {m: metric(med(layer, field), unit) for m, unit, layer, field in PER_LAYER}

    problem = workload.problem
    read_s = metrics["cli.read_samples_csv.s"]["value"]
    rows = problem.n + 1 if problem else 0
    metrics["cli.read_samples_csv.rows_per_s"] = metric(rows / read_s if read_s else 0.0, "1/s")
    rhs_s = metrics["fastgram.rhs.s"]["value"]
    metrics["fastgram.rhs.ns_per_point_degree"] = metric(
        rhs_s * 1e9 / (problem.m_star * rows) if rhs_s else 0.0, "ns")
    shifts = [sum(n for j, key, n in traced["counts"] if j == i) for i in ids]
    metrics["solver.fit.shift_retries"] = metric(statistics.median(shifts), "count")
    job_p50 = statistics.median(traced["job_s"])
    metrics["trace.overhead_ratio"] = metric(
        statistics.median(traced["scaled_s"]) / statistics.median(untraced["scaled_s"]) - 1.0,
        "ratio")

    names = sorted({name for per_job in jobs.values() for name in per_job})
    layers = {name: {"s": med(name, "s"), "self_s": med(name, "self_s"),
                     "calls": med(name, "calls"), "share": med(name, "s") / job_p50,
                     "self_share": med(name, "self_s") / job_p50} for name in names}
    return metrics, layers


def make_inputs(workload, seed: int, work: Path):
    """Write the seeded samples for the runner and return the harness's own
    reference answer to them (None for certify, whose reference is recorded)."""
    if workload.problem is None:
        return None
    x, y = workload.problem.samples(seed)
    if workload.kind == "cli":
        write_csv(work / "samples.csv", x, y)
    else:
        np.savez(work / "samples.npz", x=x, y=y)
    return workload.problem.reference(x, y)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stable_extrap" / "__init__.py").is_file():
        print(f"stable_extrap sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    record = environment(workload, threads)
    ref = make_inputs(workload, args.seed, work)
    if args.trace:
        phases = [[False, args.seconds / 2], [True, args.seconds / 2]]
    else:
        phases = [[False, args.seconds]]
        setup_s = measure_setup(env)

    runner = run_cli if workload.kind == "cli" else run_worker
    results, failed, attempted = runner(workload, work, env, phases, ref)

    for r in results:
        gauged = "gauge_s" in r
        r["scaled_s"] = at_reference_speed(r["job_s"], r["gauge_s"]) if gauged else r["job_s"]
    record["timed_jobs"] = [len(r["job_s"]) for r in results]
    record["job_s_measured"] = [[round(t, 4) for t in r["job_s"]] for r in results]
    record["gauge_s"] = [[round(t, 5) for t in r.get("gauge_s", [])] for r in results]
    if args.trace:
        metrics, layers = per_layer(workload, results[0], results[1])
        record["layers"] = layers
        record["dominant_layer"] = max(layers, key=lambda n: layers[n]["self_share"])
        (work / "trace.json").write_text(json.dumps(
            {"spans": results[1]["spans"], "counts": results[1]["counts"]}), encoding="utf-8")
    else:
        metrics = end_to_end(results[0], setup_s)
    (work / "environment.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for name in ("samples.csv", "samples.npz", "result.json"):
        (work / name).unlink(missing_ok=True)

    print(json.dumps({"environment": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
