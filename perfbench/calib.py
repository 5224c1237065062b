"""Host-speed calibration of the benchmark's timings.

On a shared host the speed of one core drifts by a third and more over tens
of seconds, while the program does the same work (CPU time drifts with wall
time, so it is not a way out). A run of 40 s cannot average such drift away.
So every end-to-end time is scaled by a fixed pure-Python kernel timed right
before and right after it, on the same process and core:

    scaled = measured * REF_S / (mean of the two kernel times)

REF_S is the kernel's median time on the reference machine, so a scaled time
reads as the time the operation would take there. The kernel does what the
solver's inner loops do (tuple keys, dict updates, heap pushes and pops) and
never calls floodit, so a change to the program moves the measured time and
leaves the kernel alone. The cores of a small VM drift apart, too, so `pin`
keeps the benchmark and every process it starts on one core: a
`floodit solve` child then runs where the kernel around it ran.
"""

from __future__ import annotations

import heapq
import os
import random
import time

# Median kernel time on the reference machine: a 2-core Intel Xeon VM,
# Python 3.11.7.
REF_S = 0.045


def pin() -> None:
    """Bind this process, and the processes it starts from now on, to one
    of the cores it may use."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def kernel() -> int:
    rng = random.Random(7)
    counts = {}
    heap = []
    for i in range(20000):
        key = (rng.randrange(5000), i & 63)
        counts[key] = counts.get(key, 0) + 1
        heapq.heappush(heap, (counts[key], key))
        if len(heap) > 500:
            heapq.heappop(heap)
    return len(counts)


def kernel_s() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(seconds: float, before_s: float, after_s: float) -> float:
    """`seconds` measured between kernel times `before_s` and `after_s`, as
    it would read on the reference machine."""
    return seconds * REF_S * 2.0 / (before_s + after_s)
