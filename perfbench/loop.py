"""The closed loop both runners share, and the processor-speed gauge.

The shared 2-vCPU host this benchmark was written on changes speed by 20-40%
over seconds to minutes, with user CPU time changing as much as wall time, so
the drift is in the processor, not in scheduling. A fixed pure-Python loop
gauges that speed: run.py reports each in-process job's time scaled to the
speed at which the loop takes REFERENCE_PROBE_S, gauged by probes just before
and after the job in the same process. Processes that run.py spawns (CLI jobs
and set-up imports) are reported as measured: a probe between seconds-long
jobs samples too short a stretch to stand for them, and a probe on the other
vCPU while the child runs does not follow the child's speed, since the two
vCPUs differ by up to 30% at any moment. On that host the gauge cut the
run-to-run spread (quartile distance over median) of in-process median job
times over ten seeds from 11-19% to 4-10%, and over four seeds in a busy
spell from 26-40% to 6-10%; for CLI jobs it widened the spread.
"""

from __future__ import annotations

import time

PROBE_ITERATIONS = 100_000
# The probe's median time on the 2.0 GHz Xeon vCPUs the benchmark was written on.
REFERENCE_PROBE_S = 0.009


def probe(tries: int = 3) -> float:
    """Seconds for a fixed pure-Python loop, the fastest of several tries."""
    best = float("inf")
    for _ in range(tries):
        t0 = time.perf_counter()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def closed_loop(job, seconds: float, probe_between: bool) -> dict:
    """Call job(i) for i = 0, 1, ... one at a time until seconds are spent.

    Returns each call's seconds and result. With probe_between, also the
    gauge of each call: the mean of the probes just before and just after it.
    Checking results is left to the caller, outside the timing.
    """
    times, results, probes = [], [], [probe()] if probe_between else []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        results.append(job(len(times)))
        times.append(time.perf_counter() - t0)
        if probe_between:
            probes.append(probe())
    out = {"job_s": times, "results": results}
    if probe_between:
        out["gauge_s"] = [0.5 * (a + b) for a, b in zip(probes, probes[1:])]
    return out


def at_reference_speed(times: list[float], gauges: list[float]) -> list[float]:
    """Each time scaled by REFERENCE_PROBE_S over its gauge."""
    return [t * REFERENCE_PROBE_S / g for t, g in zip(times, gauges)]

