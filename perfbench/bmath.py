"""Pure statistics of the benchmark: no timing, no I/O, no repro imports.

Every function here is covered by ``perfbench/tests/test_bmath.py``.
"""

from __future__ import annotations

import bisect
import statistics
from dataclasses import dataclass

#: the tail percentile must leave at least this many samples beyond it
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """The highest percentile that still has ``beyond`` samples above it."""

    value: float
    #: percentile rank of ``value`` (e.g. 90.0 for p90 of 100 samples)
    percentile: float
    #: total samples the percentile was taken over
    samples: int
    #: samples strictly beyond the reported rank
    beyond: int


def tail(samples, min_beyond: int = TAIL_MIN_BEYOND) -> Tail:
    """Highest percentile with at least *min_beyond* samples beyond it.

    With ``n`` sorted samples the reported value is ``sorted[n - min_beyond
    - 1]``: exactly *min_beyond* samples rank above it, and it sits at
    percentile ``100 * (n - min_beyond) / n``. Fewer than ``min_beyond + 1``
    samples support no such percentile, which raises ``ValueError`` —
    a workload must collect enough samples rather than report a tail it
    cannot back.
    """
    xs = sorted(float(x) for x in samples)
    n = len(xs)
    if n < min_beyond + 1:
        raise ValueError(
            f"{n} samples cannot support a tail with {min_beyond} beyond it"
        )
    k = n - min_beyond - 1
    return Tail(
        value=xs[k],
        percentile=100.0 * (k + 1) / n,
        samples=n,
        beyond=n - 1 - k,
    )


def median(samples) -> float:
    return float(statistics.median([float(x) for x in samples]))


# -- span attribution -------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``.

    Overlapping children (concurrent work) are counted once, so a span's
    self time never goes negative.
    """
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, child_intervals, inner: float = 0.0) -> float:
    """A span's self time: its duration minus the part of it that child
    spans cover, minus *inner* seconds measured inside it without spans
    (e.g. dense-kernel seconds read from the program's front profile)."""
    return max(end - start - covered(child_intervals, start, end) - inner, 0.0)


# -- open-loop accounting ----------------------------------------------------


@dataclass(frozen=True)
class OpenLoopRequest:
    """Timestamps of one open-loop request, seconds from the loop start."""

    due: float
    #: when the generator actually submitted it (>= due when it ran late)
    submitted: float
    #: when the drain() that returned it ended; None if it never completed
    completed: float | None


def due_latency(req: OpenLoopRequest) -> float | None:
    """Latency measured from the *due* time, so a generator stall is
    charged to every request it delayed (no coordinated omission)."""
    if req.completed is None:
        return None
    return req.completed - req.due


def generator_lag(req: OpenLoopRequest) -> float:
    """How late the generator submitted the request (never negative)."""
    return max(req.submitted - req.due, 0.0)


def slo_attainment(latencies, sent: int, limit: float) -> float:
    """Share of requests *sent* that completed within *limit* seconds.

    *latencies* holds one entry per completed request; failed or refused
    requests have none and so count as misses through *sent*.
    """
    if sent <= 0:
        raise ValueError("slo_attainment needs at least one request sent")
    met = sum(1 for lat in latencies if lat is not None and lat <= limit)
    return met / sent


# -- host-speed normalization ---------------------------------------------


def speed_factor(samples, start: float, end: float, nominal: float) -> float:
    """How much slower than nominal the host ran over ``[start, end]``.

    *samples* are ``(start, duration)`` timings of a fixed reference work,
    in start order, taken between the timed intervals. The factor is the
    mean of the last sample starting at or before *start* and the first
    starting at or after *end* — the reference timed just around the
    interval — divided by *nominal*. An interval with samples on one side
    only takes that one; no samples at all give 1.
    """
    if not samples:
        return 1.0
    starts = [s for s, _d in samples]
    before = bisect.bisect_right(starts, start) - 1
    after = bisect.bisect_left(starts, end)
    around = [samples[i][1] for i in (before, after) if 0 <= i < len(samples)]
    return sum(around) / len(around) / nominal


# -- ratios ------------------------------------------------------------------


@dataclass(frozen=True)
class Ratio:
    """A ratio that carries its base: ``value = numerator / denominator``."""

    numerator: float
    denominator: float
    #: what the denominator measured, e.g. "seq refactor, same matrices"
    base: str

    @property
    def value(self) -> float:
        return self.numerator / self.denominator if self.denominator else 0.0

    def describe(self) -> str:
        return (
            f"{self.value:.4g} = {self.numerator:.6g} / {self.denominator:.6g}"
            f" (base: {self.base})"
        )
