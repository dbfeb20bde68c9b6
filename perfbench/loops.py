"""The closed-loop load generator and the record every workload's run
produces."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.util.errors import ReproError

from bmath import TAIL_MIN_BEYOND
from common import BERR_LIMIT, ExactCounts, Outcome
from hostspeed import HostSpeed
from tracer import Tracer

#: a run sends at least this many requests, enough for the tail rule
#: (TAIL_MIN_BEYOND samples beyond the reported one)
MIN_SENT = TAIL_MIN_BEYOND + 1


@dataclass
class Measurement:
    """Everything one run measured; the metrics are computed from this."""

    slo_s: float
    sent: int = 0
    #: requests that raised, were refused, or never completed
    failed: int = 0
    #: completed requests whose answer failed the backward-error gate
    wrong: int = 0
    #: latency of each completed untraced request, in reference seconds
    #: (see ``hostspeed.py``)
    latencies: list[float] = field(default_factory=list)
    #: the same latencies in wall-clock seconds
    raw_latencies: list[float] = field(default_factory=list)
    #: the independent samples the tail is taken over, when requests come
    #: in groups that complete together (None: the latencies themselves)
    tail_samples: list[float] | None = None
    tail_unit: str = "request"
    #: seconds of the timed phase the throughput is taken over
    busy: float = 0.0
    #: the host-speed reference samples of an untraced run
    host: HostSpeed | None = None
    berr_max: float = 0.0
    tracer: Tracer | None = None
    #: per-layer raw values of the traced requests (see :func:`merge`)
    extras: dict = field(default_factory=dict)
    #: Σ traced and Σ untraced wall of the same requests (trace overhead)
    traced_wall: float = 0.0
    untraced_wall: float = 0.0
    #: per-layer metrics a workload computes itself (serve_open)
    layer: dict = field(default_factory=dict)

    def gate(self, out: Outcome | None, counts: ExactCounts) -> None:
        """The correctness gate, run outside every timed region."""
        if out is None:
            self.failed += 1
            return
        berr = out.backward_error()
        self.berr_max = max(self.berr_max, berr)
        if not berr <= BERR_LIMIT:
            self.wrong += 1
        if out.key is not None:
            counts.check(out.key, out.counts)


def merge(total: dict, extras: dict) -> None:
    """Fold one request's extras into *total*: dotted names (exact
    per-request values such as ``symbolic.nnz_factor``) keep a running sum
    and count for their mean, names ending in ``_max`` keep the maximum,
    everything else is summed."""
    for key, value in extras.items():
        if "." in key:
            s, n = total.get(key, (0.0, 0))
            total[key] = (s + value, n + 1)
        elif key.endswith("_max"):
            total[key] = max(total.get(key, value), value)
        else:
            total[key] = total.get(key, 0) + value


def closed_loop(wl, state, seconds: float, counts: ExactCounts, trace: bool) -> Measurement:
    """One client sending each request after the previous one returned.

    A run sends a fixed number of whole cycles of the workload's mix:
    *seconds* divided by the workload's ``cycle_s``, the time one cycle
    takes on the recording host, and at least ``MIN_SENT`` requests. Every
    run so sees the same blend and the same sample count, whose tail
    percentile therefore means the same thing on both sides of a
    comparison. Untraced, a request's latency is its front-door call, in
    reference seconds: the host-speed reference is timed before every
    request and after the last, and each latency is divided by the host
    factor measured around it.
    Traced, every request runs twice — once through the front doors, once
    through the traced replay, in alternating order — which gives the
    tracing overhead on identical inputs; half as many cycles keep the run
    about as long.
    """
    m = Measurement(slo_s=wl.slo_s)
    m.tracer = Tracer() if trace else None
    m.host = None if trace else HostSpeed()
    timed = []
    cycles = max(round(seconds / wl.cycle_s / (2 if trace else 1)), 1)
    while cycles > 0 or m.sent < MIN_SENT:
        cycles -= 1
        for req in wl.cycle(state):
            if trace:
                _traced_pair(m, wl, state, req, counts)
                continue
            m.sent += 1
            m.host.sample()
            t0 = time.perf_counter()
            out = _call(wl.front_door, state, req)
            t1 = time.perf_counter()
            if out is not None:
                timed.append((t0, t1))
            m.gate(out, counts)
    if m.host is not None:
        m.host.sample()
        for t0, t1 in timed:
            m.raw_latencies.append(t1 - t0)
            m.latencies.append(m.host.scale(t1 - t0, t0, t1))
        m.busy = sum(m.latencies)
    return m


def _traced_pair(m: Measurement, wl, state, req, counts: ExactCounts) -> None:
    """Run *req* through the front doors and through the traced replay,
    in an order that alternates with the request id."""
    tr = m.tracer
    m.sent += 2
    for traced in (False, True) if req[0] % 2 == 0 else (True, False):
        if traced:
            out = _call(wl.replay, state, req, tr)
            m.traced_wall += tr.last_request.duration
            if out is not None:
                merge(m.extras, out.extras)
        else:
            t0 = time.perf_counter()
            out = _call(wl.front_door, state, req)
            m.untraced_wall += time.perf_counter() - t0
        m.gate(out, counts)


def _call(fn, *args):
    """A request that fails with a typed library error counts as failed."""
    try:
        return fn(*args)
    except ReproError:
        return None
