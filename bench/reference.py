"""Fixed reference kernels that read how fast the machine runs right now.

The 2-core virtual machine of the reference results shares its host: the
same Python loop takes up to 1.6 times as long from one ten-second stretch
to the next, and numpy kernels up to 1.4 times, independently of the
program being measured. Two kernels of the benchmark's own, which never
change with the program, are timed next to every job:

- ``interp``: an interpreted loop shaped like ``fcm.generate`` and the codec
  (numpy scalar reads and writes, a dict of count lists, integer context
  arithmetic);
- ``vector``: numpy array kernels shaped like the pami profile and the grid
  columns (``bincount``, ``log2`` and a reduction over 50,000 symbols, at
  20 lags).

Each kernel's time over its time on the reference machine is a slowdown
factor; an operation's wall time divided by its factor is its time at the
reference machine's speed. A change to the program moves its operations'
times but not the factors, so it shows in full.
"""

from __future__ import annotations

import math
import time

import numpy as np

# median kernel times on the reference machine (2-core Intel Xeon at
# 2.0 GHz, Python 3.11.7, numpy 2.4.6); they only set the scale
REFERENCE_S = {"interp": 0.0031, "vector": 0.0021}

_U = np.random.default_rng(0).random(4_000)
_A = np.random.default_rng(1).integers(0, 4, 50_000)


def _interp() -> int:
    out = np.empty(_U.size, dtype=np.int64)
    counts: dict = {}
    code = 0
    for t in range(_U.size):
        vec = counts.get(code)
        if vec is None:
            counts[code] = vec = [0] * 5
        y = _U[t] * (vec[4] + 2.0)
        acc = 0.0
        s = 3
        for i in range(3):
            acc += vec[i] + 0.5
            if y < acc:
                s = i
                break
        out[t] = s
        vec[s] += 1
        vec[4] += 1
        code = (code * 4 + s) % 256
    return int(out[-1])


def _vector() -> float:
    total = 0.0
    for lag in range(1, 21):
        joint = np.bincount(_A[lag:] * 4 + _A[:-lag], minlength=16)
        total += float((joint * np.log2(joint + 0.5)).sum())
    return total


KERNELS = {"interp": _interp, "vector": _vector}


def read_speed() -> dict:
    """Slowdown factor of each kernel against the reference machine.

    Each kernel runs once untimed first, so that the reading does not
    depend on what the program left in the caches.
    """
    factors = {}
    for name, kernel in KERNELS.items():
        kernel()
        start = time.perf_counter()
        kernel()
        factors[name] = (time.perf_counter() - start) / REFERENCE_S[name]
    return factors


def blend(factors: dict, interp_share: float) -> float:
    """Geometric blend of the two factors, ``interp_share`` from ``interp``."""
    return math.exp(interp_share * math.log(factors["interp"])
                    + (1 - interp_share) * math.log(factors["vector"]))


def scaled(seconds: float, before: dict, after: dict, interp_share: float) -> float:
    """A wall time at the reference speed, from the readings either side of it."""
    return seconds / math.sqrt(blend(before, interp_share) * blend(after, interp_share))


class SpeedGauge:
    """Speed readings, taken afresh once ``every_s`` seconds have passed.

    The machine's speed holds for seconds at a time, so a reading serves the
    short jobs that follow it within ``every_s``.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.read_at = -math.inf
        self.reading: dict = {}

    def now(self) -> dict:
        if time.perf_counter() - self.read_at >= self.every_s:
            self.reading = read_speed()
            self.read_at = time.perf_counter()
        return self.reading
