"""Machine-speed probe used to normalize the benchmark's times.

On a shared host the speed of a vCPU drifts by up to 2x over tens of
seconds (a busy hyperthread sibling, frequency changes) without any of it
showing as lost CPU time.  The benchmark therefore brackets its timed work
with this fixed probe and reports times at the speed where the probe takes
REF_S: a time t measured between probes p1 and p2 is reported as
t * REF_S / ((p1 + p2) / 2).  The probe is interpreter-bound with small
numpy operations, like metricforge's kernels, and uses no metricforge code,
so a change to the library cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.003    # the probe's duration at the reference speed
REPEATS = 3

_BASE = np.arange(64.0).reshape(8, 8)


def _kernel() -> float:
    a = _BASE.copy()
    acc = 0.0
    for i in range(400):
        row = i % 8
        a[row] = a[row] * 0.5 + 1.0
        acc += float(np.sum(a[:, row])) + (i * i) % 7
    counts: dict = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc + len(counts)


def probe_s() -> float:
    """Median duration of REPEATS runs of the probe kernel."""
    reps = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        reps.append(time.perf_counter() - t0)
    return statistics.median(reps)


def factor(before: float, after: float) -> float:
    """Scale that converts a time measured between two probes to the
    reference speed."""
    return REF_S / ((before + after) / 2.0)
