"""Machine-speed probe: a fixed slice of interpreter-bound numpy work.

The virtual machine this benchmark was built on changes speed by up to
+-30% in phases lasting from seconds to minutes; one virtual CPU can slow
down while the other does not, and small-array, interpreter-bound code
(most of patternq) feels it most.  `SpeedSampler` times the probe right
before an op and then every `interval` seconds during it, from a SIGALRM
handler, so the samples come from the CPU the op runs on.  The op's time
times the mean of REFERENCE_S / sample is its time at reference speed.
Memory-bound ops do not follow the probe; each workload says whether its
ops are rescaled (`Prepared.rescale`).
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# the probe's time at the reference speed (2-core VM, one BLAS thread)
REFERENCE_S = 0.00085

_START = np.linspace(0.5, 1.5, 16)


def _kernel() -> float:
    x = _START
    for _ in range(200):
        x = 2.0 / (1.0 + (x * 1.0000001) ** 4.5)
    total = 0
    for i in range(4000):
        total += i % 7
    return float(x.sum()) + total


def probe_s(repeats: int) -> float:
    """Fastest of `repeats` timed kernel runs, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class SpeedSampler:
    """Context manager sampling the probe around and during one op.

    `stolen` is the wall time the in-op samples took; subtract it from the
    op's measured time.
    """

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.samples: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe_s(2))
        self.stolen += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self.samples.append(probe_s(5))
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Mean of REFERENCE_S / sample: > 1 when the machine ran fast."""
        return statistics.fmean(REFERENCE_S / s for s in self.samples)


def measure(fn, rescale: bool = True):
    """Call fn(); return its result, its wall seconds (sampling excluded)
    and those seconds rescaled to the reference speed, or the wall seconds
    again when `rescale` is false (then nothing is sampled)."""
    if not rescale:
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        return result, wall, wall
    with SpeedSampler() as speed:
        start = time.perf_counter()
        result = fn()
    wall = time.perf_counter() - start - speed.stolen
    return result, wall, wall * speed.scale()
