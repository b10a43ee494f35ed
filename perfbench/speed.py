"""Host speed reference.

The CPU speed of a shared host drifts: on the 2-core container this
benchmark was defined on, a fixed pure-Python loop took 22 to 41 ms
within one minute, and two processes started seconds apart ran the
reference loop below at medians 1.6 times apart.  A run therefore times
the reference loop right before and right after each timed unit (a
module verification, or a block of daemon requests) and scales the
unit's wall time to the speed at which the loop takes
:data:`REF_SECONDS`.  The raw times are printed beside the scaled ones.

(Timing the loop continuously in a helper process on the other core
tracked the drift worse: run-to-run spread rose from 6 % to 12 % on
cold_smt and from 11 % to 19 % on cold_idiom.)
"""

from __future__ import annotations

import statistics
import time

#: Wall time of one :func:`reference_work` at the reference speed (about
#: its median on the host the benchmark was defined on).
REF_SECONDS = 0.006

#: Timings of the reference loop per measurement; their median counts.
REPEATS = 3


def reference_work() -> int:
    """A fixed mix of the operations the verifier spends its time on:
    dict and tuple traffic, small-object allocation and calls."""
    table: dict = {}
    acc = 0
    for i in range(12000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        acc += len(str(i))
    return acc + len(sorted(table.items()))


def reference_seconds() -> float:
    """Median wall time of :data:`REPEATS` runs of the reference loop."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two reference timings, scaled to the
    reference speed."""
    return seconds * REF_SECONDS / ((before + after) / 2.0)
