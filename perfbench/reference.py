"""A fixed chunk of work that measures how fast the machine is right now.

On a shared host the speed a process gets drifts: on a 2-vCPU Intel Xeon VM
(2.0 GHz) the same kgmoe decode loop took 88 ms in one minute and 175 ms half
an hour later, with its CPU time equal to its wall time, so no clock of the
process can tell the two apart.  The benchmark therefore times this chunk
between the phases it measures and reports every time scaled to a machine on
which the chunk takes ``NOMINAL_S``: a slow spell slows the chunk and kgmoe
alike and cancels out of the ratio.

The chunk mixes what kgmoe spends its time on: small numpy matrix products and
softmaxes issued one by one from Python, dict updates keyed by strings (as in
n-gram counting), and gathers of random rows from a table larger than the
caches (as in embedding lookups).  It allocates no object that Python's cycle
collector tracks, so it neither runs collections nor moves when kgmoe's
collections run, and no block large enough to be mapped afresh, so its time
does not depend on how the process's heap has grown.  Of the candidates tried
(these three and a streaming pass over a 4.8 MB array), these three followed
kgmoe's training and decoding most closely over six minutes of drift.
It is part of the benchmark, not of kgmoe, so a change to kgmoe cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# A round figure for the chunk's median time on the 2-vCPU Xeon VM the benchmark
# was written on (7 to 11 ms as its speed drifted); it only fixes the scale of
# the reported numbers.
NOMINAL_S = 0.010

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((16, 48))
_W1 = _rng.standard_normal((48, 96))
_W2 = _rng.standard_normal((96, 48))
_TABLE = _rng.standard_normal((20_000, 48))
_ROWS = _rng.integers(0, len(_TABLE), size=(200, 64))
_NGRAMS = [" ".join(f"w{(i + j) % 97}" for j in range(4)) for i in range(2000)]


def _small_ops() -> float:
    x = _X
    for _ in range(100):
        h = np.tanh(x @ _W1) @ _W2
        e = np.exp(h - h.max(axis=-1, keepdims=True))
        x = e / e.sum(axis=-1, keepdims=True)
    return float(x.sum())


def _interpreter() -> float:
    counts: dict = {}
    for _ in range(10):
        for key in _NGRAMS:
            counts[key] = counts.get(key, 0) + 1
    return float(len(counts))


def _gather() -> float:
    total = 0.0
    for rows in _ROWS:
        total += float(_TABLE[rows].sum())
    return total


PARTS = {"small_ops": _small_ops, "interpreter": _interpreter, "gather": _gather}


class Reference:
    """Times of the chunk, taken between the measured phases of one run."""

    def __init__(self):
        self.times: list[float] = []
        self.part_times: dict[str, list[float]] = {name: [] for name in PARTS}

    def sample(self):
        total = 0.0
        for name, part in PARTS.items():
            start = time.perf_counter()
            part()
            elapsed = time.perf_counter() - start
            self.part_times[name].append(elapsed)
            total += elapsed
        self.times.append(total)

    def scale(self) -> float:
        """Factor that turns a median time measured in this run into nominal seconds."""
        return NOMINAL_S / statistics.median(self.times)

    def summary(self) -> dict:
        return {"nominal_s": NOMINAL_S, "samples": len(self.times),
                "fastest_s": min(self.times), "median_s": statistics.median(self.times),
                "part_median_s": {name: statistics.median(t)
                                  for name, t in self.part_times.items()},
                "scale": self.scale()}
