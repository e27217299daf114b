"""A fixed reference load that measures how fast the machine runs right now.

On a shared host the speed of a core changes by up to half within seconds
and drifts between runs minutes apart, so raw pass times of one program
spread more between runs than any useful regression bound. The benchmark
therefore runs this load between its timed items and scales each item's
time by REF_S over the mean reference time measured just before and just
after it: a time in seconds on a machine that runs the reference load in
REF_S seconds. A reference time is the median of REPEATS runs of the load,
so that one preemption does not move it.

The load imitates the kinds of work the workloads do, in roughly equal
shares: many small numpy calls (the Monte Carlo trial loop), an int64
matrix product (the cross-term matrix), float formatting into text (the CSV
writer) and a plain interpreter loop (the per-point Python code around
them). It never touches maskrd, so a change to the program cannot change
the reference.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Nominal reference time. One run of the load on a 2 vCPU Xeon at 2.0 GHz
# takes about 0.017 s in its fast state and 0.026 s in its slow one.
REF_S = 0.02
REPEATS = 3

_VEC = np.arange(4096, dtype=np.float64) / 4096.0
_IDX = (np.arange(1024) * 37) % 4096
_PHASE = np.exp(-2j * np.pi * np.arange(1024) / 1024)
_MAT = (np.arange(170 * 170, dtype=np.int64).reshape(170, 170) * 7919) % 2


def _load() -> float:
    acc = 0.0
    rng = np.random.Generator(np.random.Philox(12345))
    for _ in range(50):
        x = rng.standard_normal(4096) + _VEC
        prod = x[_IDX] * x[_IDX[::-1]]
        acc += abs(complex(np.dot(prod, _PHASE))) ** 2
    acc += float((_MAT @ _MAT.T).sum())
    rows = []
    for i in range(3_000):
        rows.append(f"{i},{i % 255},{acc / (i + 1):.12g},{i * 0.001:.6g}")
    acc += len("\n".join(rows))
    count = 0
    for i in range(50_000):
        count = (count * 31 + i) % 1_000_003
    return acc + count


def reference_time() -> float:
    """Median wall time of REPEATS runs of the reference load."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _load()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedScale:
    """Times items between reference runs and scales them to REF_S speed.

    Consecutive items share the reference run between them, so each item
    is bracketed by a reference run on either side.
    """

    def __init__(self):
        reference_time()  # warm-up: imports, caches, page faults
        self.last = reference_time()
        self.refs = [self.last]

    def after(self, raw: float) -> float:
        """Scale the raw time of the item that has just ended."""
        before = self.last
        self.last = reference_time()
        self.refs.append(self.last)
        return raw * REF_S * 2 / (before + self.last)
