"""Host speed reference: a fixed pure-Python kernel timed next to each call.

On a shared host the speed of interpreted code drifts by up to 2x from
one minute to the next, far more than the changes the benchmark must
resolve.  The kernel below does the same kinds of work as twintri
(sorted-list merges, integer arithmetic, tuple and dict churn) and never
changes with the code under test, so the ratio of a call's time to the
kernel's time, taken at the same moments, cancels most of that drift.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# median kernel time on the reference host (Intel Xeon at 2.1 GHz,
# Python 3.11.7, host otherwise quiet); reported times are scaled to it
KERNEL_REF_S = 0.0055


def kernel() -> int:
    a = list(range(0, 30000, 2))
    b = list(range(0, 30000, 3))
    i = j = hits = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            i += 1
        elif a[i] > b[j]:
            j += 1
        else:
            hits += 1
            i += 1
            j += 1
    table = {}
    for k in range(20000):
        table[k] = (k, k & 7)
    return hits + sum(v[1] for v in table.values())


def kernel_seconds(budget: float = 0.0) -> float:
    """Median kernel time over enough runs to fill `budget` seconds (one at least)."""
    times = []
    while True:
        began = perf_counter()
        kernel()
        times.append(perf_counter() - began)
        if sum(times) >= budget:
            return sorted(times)[len(times) // 2]


def scaled(seconds: list, kernel: list) -> float:
    """Median call time at the reference host speed.

    kernel[i] is the kernel time measured around the call that took
    seconds[i], so each call is scaled by the host speed of its moment.
    """
    return statistics.median(t / k for t, k in zip(seconds, kernel)) * KERNEL_REF_S
