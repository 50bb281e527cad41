"""Machine-speed calibration for every timing the benchmark gates on.

On a shared host the CPU speed a process gets drifts by tens of percent
over seconds to minutes (co-tenants contend for the cores and caches;
process CPU time drifts with wall time, and steal stays near zero). A
raw wall-clock median then moves between two runs of identical code far
more than any change worth detecting. So the loops run a fixed,
benchmark-owned calibration task every :data:`CAL_EVERY_S` seconds, and
each measured duration is scaled by ``CAL_REF_S / c``, where ``c`` is the
calibration time measured around it. Contention slows the task and the
program together, so the scaled time holds still where the raw one
drifts. On an idle core the task takes about :data:`CAL_REF_S` (2 vCPU
Xeon at 2.0 GHz, Python 3.11), so scaled times read like wall-clock times
there. The report line prints the raw wall-clock values beside them.

The task is the model's own Most-Specific-Override propagation over the
43,869-node document: list indexing and dict probes over arrays of the
document's size, the same kind of work the program does per query. It
never calls into the program, so no change to the program can move it.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_right
from typing import List, Sequence, Tuple

from inputs import propagate

#: calibration time on an idle core of the reference machine
CAL_REF_S = 0.004
#: how often the loops calibrate (a calibration costs about 3 CAL_REF_S)
CAL_EVERY_S = 0.25
#: task runs per calibration; their median is the calibration, so one
#: run caught by a momentary spike does not rescale its neighbours
CAL_RUNS = 3
#: calibrations whose median scales one measured item
CAL_WINDOW = 5


class Calibrator:
    """Times a fixed propagation over the document's parent array."""

    def __init__(self, parents: Sequence[int]):
        self.parents = list(parents)
        n = len(self.parents)
        rng = random.Random(20050405)
        self.decisions = {pos: rng.random() < 0.75 for pos in rng.sample(range(1, n), n // 50)}
        self.decisions[0] = True
        self.measure()  # first run allocates; keep it out of the samples

    def measure(self) -> float:
        """Seconds one task run takes now (median of :data:`CAL_RUNS`)."""
        runs = []
        for _ in range(CAL_RUNS):
            started = time.perf_counter()
            propagate(self.parents, self.decisions)
            runs.append(time.perf_counter() - started)
        return sorted(runs)[CAL_RUNS // 2]


def local_factors(
    marks: List[Tuple[int, float]], n_items: int, window: int = CAL_WINDOW
) -> List[float]:
    """Per item, ``CAL_REF_S / c`` with ``c`` the calibration around it.

    ``marks`` lists ``(items recorded before the calibration, seconds)``
    in order. ``c`` is the median of the ``window`` calibrations nearest
    to item ``i``: the ones just before and just after it and their
    neighbours. Contention comes in bursts that can swallow a whole
    calibration; the median over neighbours keeps one such burst from
    rescaling the items around it.
    """
    if not marks:
        raise ValueError("no calibration was taken")
    positions = [pos for pos, _ in marks]
    half = window // 2
    factors = []
    for item in range(n_items):
        after = bisect_right(positions, item)
        lo = max(0, min(after - half, len(marks) - window))
        near = sorted(seconds for _pos, seconds in marks[lo:lo + window])
        mid = len(near) // 2
        c = near[mid] if len(near) % 2 else (near[mid - 1] + near[mid]) / 2.0
        factors.append(CAL_REF_S / c)
    return factors
