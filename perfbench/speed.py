"""Machine-speed scaling for times taken on a shared host.

On a host whose cores are shared with other tenants, the same pure-Python
work can take 1.6x longer from one second to the next, and a whole pass
over the registry 2x longer from one minute to the next.  Every time the
benchmark reports is therefore scaled to a fixed nominal speed: a fixed
reference loop is timed, and a time is multiplied by :data:`NOMINAL_S`
over the median of the reference samples taken around it, on the CPU the
analysing process is pinned to (:func:`cpu_split`).  In the batch
workloads each program is scaled by the samples just before and after it
(:func:`after_count`) and those of its neighbours, and the rest of a pass
by all of the run's samples; in ``service-mix`` a pass is scaled by the
samples taken before and after it.  Time
spent waiting out a wall-clock limit does not depend on the machine and
is not scaled.  Raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import List, Sequence

#: Iterations of the reference loop; one sample takes 7-11 ms on a shared
#: 2-vCPU Xeon VM.
REFERENCE_ITERATIONS = 100_000
#: Nominal time of one reference sample: a scaled time reads as the time
#: the work takes when the reference loop takes this long.
NOMINAL_S = 0.008
#: After a program, one sample per this many seconds of its run time ...
SAMPLE_EVERY_S = 0.25
#: ... and at most this many.
MAX_AFTER = 16


def reference() -> int:
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return total


def sample() -> float:
    """Seconds one run of the reference loop takes now."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def samples(n: int) -> List[float]:
    return [sample() for _ in range(n)]


def after_count(seconds: float) -> int:
    """Samples to take after a program that ran *seconds*: a long
    program needs the speed over more of its run than a short one."""
    return min(MAX_AFTER, 1 + int(seconds / SAMPLE_EVERY_S))


def factor(reference_samples: Sequence[float]) -> float:
    """Multiplier from measured to nominal-speed time."""
    return NOMINAL_S / statistics.median(reference_samples)


def cpu_split():
    """(analysis CPUs, other CPUs), or (None, None) where affinity cannot
    be set.  The analysing process gets one CPU, which the interpreter lock
    keeps it from outgrowing anyway, so that the reference loop is timed on
    the CPU that did the analysis: the speed of two CPUs of a shared host
    can differ by 40% at the same moment."""
    if not hasattr(os, "sched_getaffinity"):
        return None, None
    allowed = os.sched_getaffinity(0)
    analysis = {max(allowed)}
    return analysis, (allowed - analysis) or allowed


def pin(cpus) -> None:
    """Run the calling thread, and threads and processes it starts
    later, on *cpus*."""
    if cpus is not None:
        os.sched_setaffinity(0, cpus)

