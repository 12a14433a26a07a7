"""Host-speed reference: a fixed loop that does not touch hexameral.

On shared virtual machines the host's speed drifts by tens of percent
within seconds, in process CPU time as well as in wall time. A run
times this loop between tasks, at most every SAMPLE_EVERY_S and after every
pass, and scales each task by REFERENCE_S over the mean of the samples on
either side of it, so times read as seconds on a host where the loop takes
REFERENCE_S. The loop mixes what the library spends its
time on (interpreted float arithmetic, math calls and small numpy
products), and no change to the library can change it.
"""
from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

# Loop time on an idle 2-vCPU x86_64 virtual machine (Python 3.11, numpy 2.4).
REFERENCE_S = 0.008
SAMPLE_EVERY_S = 0.5
REPEATS = 3
_BLOCK = np.arange(24.0).reshape(8, 3) / 24.0


def _loop() -> float:
    # Floats only: no allocation the garbage collector tracks, so the loop's
    # time does not depend on how many objects the benchmark holds.
    acc = 0.0
    for i in range(40000):
        x = (i % 97) * 0.01
        acc += math.cos(x) * math.sin(x) - x * x
    for _ in range(300):
        acc += float(np.linalg.norm(_BLOCK @ _BLOCK.T))
    return acc


def sample() -> float:
    """Median wall time of REPEATS runs of the loop, after one untimed run."""
    _loop()
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        _loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


class HostClock:
    """Reference samples taken through one run, in order."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last: float | None = None

    def sample(self) -> float:
        """Take a sample now; returns the seconds it took."""
        start = perf_counter()
        self.samples.append(sample())
        self._last = perf_counter()
        return self._last - start

    def maybe_sample(self) -> float:
        """Sample if SAMPLE_EVERY_S has passed since the last one; seconds spent."""
        if self._last is not None and perf_counter() - self._last < SAMPLE_EVERY_S:
            return 0.0
        return self.sample()

    def latest(self) -> int:
        return len(self.samples) - 1

    def factor(self, before: int) -> float:
        """Multiplier to reference seconds for a time measured between sample
        ``before`` and the one after it."""
        return REFERENCE_S / (0.5 * (self.samples[before] + self.samples[before + 1]))
