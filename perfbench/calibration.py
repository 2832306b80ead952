"""The measuring machine's speed, sampled during a run, to rescale its timings.

The shared 2-vCPU machine the benchmark was built on changes speed by a third
or more over seconds to minutes, for every process at once; a fixed Python
loop took from 12 to 31 ms. A run of one commit on a slow stretch then reads
as slow as a regression would. So both run.py and the worker time a fixed,
package-independent loop between their measurements (`sample`), and every
reported time is the median of the calls' times rescaled to a fixed machine
speed:

    rescaled = measured * REFERENCE_S / mean loop time (call_factor)

A short call uses the samples taken right after it; a long one uses the
run's samples, less their fastest and slowest tenth (NOTES.md says how this
rule was chosen). The loop runs with the garbage collector off, so objects
the package keeps alive cannot slow it. The raw timings and the samples go
to the result file.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

LOOP = 250_000
# About the median time of one `sample` on the machine the numbers in
# NOTES.md were measured on (18.6 ms over 30 s, quartiles 16.2 and 21.5 ms);
# a reported time is what the run would have measured at that speed.
REFERENCE_S = 0.020
# Share of a worker's measured time spent sampling the machine's speed.
SHARE = 0.03
# A call shorter than this is rescaled by the samples taken right after it,
# a longer one by the whole run's samples (see call_factor).
LOCAL_S = 2.0


def sample() -> float:
    """Seconds taken by the fixed loop, once."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        s = 0
        for i in range(LOOP):
            s += i * i
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def samples_for(measured_s: float) -> list[float]:
    """Samples worth SHARE of a measurement that took measured_s (at least one)."""
    return [sample() for _ in range(max(1, round(SHARE * measured_s / REFERENCE_S)))]


def factor(samples: list[float]) -> float:
    """The factor that rescales a time measured during these samples."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return REFERENCE_S / statistics.fmean(ordered[cut:len(ordered) - cut])


def call_factor(wall_s: float, after: list[float], run_factor: float) -> float:
    """The factor for one call that took wall_s, sampled by `after` once it ended.

    The machine keeps one speed for seconds at a time, so a short call ran at
    the speed the samples right after it saw. A long call spans several
    speeds, which the run's samples as a whole follow better.
    """
    return factor(after) if wall_s < LOCAL_S else run_factor
