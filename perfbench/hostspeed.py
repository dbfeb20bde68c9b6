"""The host-speed reference the end-to-end timings are divided by.

On a shared host the effective CPU speed drifts: over seconds to minutes
the same work takes a quarter to a half longer or shorter, moving every
wall-clock timing of a run together. So the benchmark times a fixed piece
of reference work — interpreter loops and small numpy products, the mix
the program's own hot paths are made of — between its requests, outside
every timed region, and reports each timing in *reference seconds*:

    wall seconds × REF_NOMINAL_S / (reference time measured around them)

that is, the seconds the timing would have read on the recording host at
its nominal speed. A change to the program moves the wall seconds and not
the reference; a change in host speed moves both and cancels. The raw
wall-clock figures and the measured host factor are kept in each run's
record and notes.
"""

from __future__ import annotations

import time

import numpy as np

from bmath import speed_factor

#: seconds one reference sample (:meth:`HostSpeed.sample`) reads on the
#: recording host at its nominal speed; only scales the reported timings,
#: never their spread
REF_NOMINAL_S = 0.004
#: timed runs of :func:`reference_work` per sample; the sample is their
#: median, so one preemption during a run does not read as a slow host
REF_RUNS = 3

_RNG = np.random.default_rng(20090101)
_MAT = _RNG.standard_normal((64, 64)) / 8.0
_VEC = _RNG.standard_normal(8192)
_IDX = _RNG.permutation(8192)


def reference_work() -> float:
    """A fixed piece of work: dict updates and integer arithmetic in the
    interpreter, as in the graph and ordering code, then small dense
    products and gathers, as in the frontal code."""
    counts: dict[int, int] = {}
    acc = 0
    for i in range(15000):
        k = i & 1023
        counts[k] = counts.get(k, 0) + 1
        acc += i % 7
    m = _MAT
    for _ in range(32):
        m = np.tanh(_MAT @ m)
        acc += int(_VEC[_IDX[:512]].sum() > 0)
    return float(acc) + float(m[0, 0])


class HostSpeed:
    """Reference samples of one run, ``(start, duration)`` each, and the
    host factor of any interval of it."""

    def __init__(self, clock=time.perf_counter, work=reference_work,
                 nominal: float = REF_NOMINAL_S) -> None:
        self.clock = clock
        self.work = work
        self.nominal = nominal
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        start = self.clock()
        runs = []
        for _ in range(REF_RUNS):
            t0 = self.clock()
            self.work()
            runs.append(self.clock() - t0)
        self.samples.append((start, float(np.median(runs))))

    def factor(self, start: float, end: float) -> float:
        """How much slower than nominal the host ran over [start, end]."""
        return speed_factor(self.samples, start, end, self.nominal)

    def scale(self, seconds: float, start: float, end: float) -> float:
        """*seconds* measured over [start, end], in reference seconds."""
        return seconds / self.factor(start, end)

    def median_factor(self) -> float:
        """The run's typical host factor, for the notes."""
        if not self.samples:
            return 1.0
        return float(np.median([d for _t, d in self.samples])) / self.nominal
