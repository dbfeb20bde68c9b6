"""``serve_open``: the default ``SolverService`` under open-loop traffic.

Tenants send *value waves*: at each arrival a tenant's time step brings new
values on its recurring pattern and ``WAVE_RHS`` single-RHS requests, all
due at once, so the service coalesces them into one blocked panel. Wave
arrivals form a Poisson process at ``WAVE_RATE``: a fixed count of waves
placed uniformly over the phase, which is a Poisson process conditioned on
its count. Six patterns recur with hot-pattern skew; two of the eight
tenants ask for fp32 factors. The analysis cache is pre-filled in set-up.

One process drives the load: it submits every request that is due, then
calls ``drain()``. A request's latency runs from its due time to the end
of the drain that returned it; requests refused with ``AdmissionError``
count as sent and missed.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.gen import elasticity3d, grid2d_9pt, grid3d_27pt, grid3d_laplacian, unstructured2d
from repro.obs import recording
from repro.service import (
    COMPLETED,
    AdmissionError,
    ServiceConfig,
    SolverService,
    pattern_fingerprint,
)

from bmath import OpenLoopRequest, due_latency, generator_lag, median, tail
from common import ExactCounts, Outcome, drift, symbolic_counts
from hostspeed import REF_RUNS, HostSpeed
from loops import Measurement
from tracer import Tracer

#: the recurring patterns (lower triangles), built once per set-up
PATTERNS = (
    lambda: grid3d_laplacian(6),
    lambda: grid2d_9pt(14),
    lambda: elasticity3d(4, seed=3),
    lambda: grid3d_27pt(5),
    lambda: unstructured2d(250, seed=11),
    lambda: grid3d_laplacian(7),
)
#: tenant -> pattern index; patterns 0 and 1 are shared by two tenants
TENANT_PATTERN = (0, 1, 2, 3, 4, 5, 0, 1)
#: arrival share of each tenant (hot-pattern skew)
TENANT_WEIGHT = (0.25, 0.18, 0.12, 0.10, 0.09, 0.08, 0.10, 0.08)
#: tenants whose requests ask for fp32 factors (two of eight)
FP32_TENANTS = frozenset({1, 4})
#: single-RHS requests per value wave
WAVE_RHS = 4
#: wave arrivals per second: about a sixth of the single-executor
#: capacity measured by ``python3 perfbench/calibrate.py``; at higher load
#: more waves queue behind each other, and the queueing amplifies the
#: host's speed jitter in the tail past the latency bounds (see README.md)
WAVE_RATE = 6.0
#: seed of the arrival process (times and tenant order), fixed across runs
ARRIVAL_SEED = 20090101
#: a request meets the SLO when it completes within this many seconds of
#: its due time
SLO_S = 0.5


@dataclass
class Wave:
    due: float
    tenant: int
    a: object
    bs: list


@dataclass
class Phase:
    """Raw record of one open-loop phase."""

    requests: list[OpenLoopRequest] = field(default_factory=list)
    #: per request: the index of its wave
    wave: list[int] = field(default_factory=list)
    #: per request: its outcome, None when refused or not completed
    outcomes: list[Outcome | None] = field(default_factory=list)
    results: list = field(default_factory=list)
    rejected: int = 0
    #: seconds from the phase start to the end of the last drain
    wall: float = 0.0
    #: seconds the generator slept waiting for the next due wave
    idle: float = 0.0
    #: clock reading at the phase start (request times are relative to it)
    t0: float = 0.0
    #: (drain span or None, results of that drain)
    drains: list = field(default_factory=list)

    def _latencies(self, host: HostSpeed | None):
        """(wave, due-time latency) of each completed request; with *host*
        in reference seconds, divided by the host factor around it."""
        for w, req in zip(self.wave, self.requests):
            lat = due_latency(req)
            if lat is not None and host is not None:
                lat = host.scale(lat, self.t0 + req.due, self.t0 + req.completed)
            if lat is not None:
                yield w, lat

    def latencies(self, host: HostSpeed | None = None) -> list[float]:
        return [lat for _w, lat in self._latencies(host)]

    def wave_latencies(self, host: HostSpeed | None = None) -> list[float]:
        """Latency of each wave: its slowest completed request. A wave's
        requests are due together and coalesced into one batch, so they
        complete together: one independent sample, not ``WAVE_RHS``."""
        out: dict[int, float] = {}
        for w, lat in self._latencies(host):
            out[w] = max(out.get(w, lat), lat)
        return list(out.values())


def precision(tenant: int) -> str:
    return "fp32" if tenant in FP32_TENANTS else "fp64"


class ServeOpen:
    name = "serve_open"
    slo_s = SLO_S

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        bases = [make() for make in PATTERNS]
        service = SolverService(ServiceConfig())
        # Cache pre-fill: one wave per tenant analyzes every pattern once
        # and runs the coalesced-panel path of both precisions before
        # timing starts.
        for t, p in enumerate(TENANT_PATTERN):
            for _ in range(WAVE_RHS):
                service.submit(
                    bases[p], np.ones(bases[p].shape[0]), precision=precision(t), tenant=f"t{t}"
                )
        if not all(r.ok for r in service.drain().values()):
            raise RuntimeError("serve_open: a cache pre-fill request failed")
        return {"rng": rng, "bases": bases, "service": service}

    def setup_counts(self, state: dict) -> dict:
        cache = state["service"].cache
        return {
            f"serve_open/pattern{p}": symbolic_counts(
                cache.get(pattern_fingerprint(base)).solver.sym
            )
            for p, base in enumerate(state["bases"])
        }

    def schedule(self, state: dict, duration: float) -> list[Wave]:
        """The arrivals of one phase. Arrival times and the tenant sequence
        are one fixed Poisson realization per phase length, so every run
        queues the same way; the run's seed draws the values and the
        right-hand sides."""
        rng = state["rng"]
        arrivals = np.random.default_rng(ARRIVAL_SEED)
        n_waves = max(int(round(WAVE_RATE * duration)), 1)
        dues = np.sort(arrivals.uniform(0.0, duration, n_waves))
        # Each tenant's share of the waves is fixed (largest remainder).
        quota = np.asarray(TENANT_WEIGHT) * n_waves
        counts = np.floor(quota).astype(int)
        short = n_waves - counts.sum()
        counts[np.argsort(counts - quota)[:short]] += 1
        tenants = arrivals.permutation(np.repeat(np.arange(len(TENANT_WEIGHT)), counts))
        waves = []
        for due, t in zip(dues, tenants):
            base = state["bases"][TENANT_PATTERN[t]]
            bs = [rng.standard_normal(base.shape[0]) for _ in range(WAVE_RHS)]
            waves.append(Wave(float(due), int(t), drift(base, rng), bs))
        return waves

    # -- the open loop ------------------------------------------------------

    def run(
        self,
        state: dict,
        waves: list[Wave],
        tr: Tracer | None = None,
        rec=None,
        host: HostSpeed | None = None,
    ) -> Phase:
        """Drive *waves* against the service. With a tracer, each submit,
        drain and idle wait gets a span; with the program's recorder *rec*
        each drain span is credited with the dense-kernel seconds of the
        front profile and the phase seconds the service measured (pass
        both or neither). With *host*, the host-speed reference is timed
        before and after the phase and in the idle gaps."""

        def span(name):
            return tr.span(name) if tr is not None else nullcontext()

        svc = state["service"]
        ph = Phase()
        pending: dict[int, int] = {}
        clock = time.perf_counter
        nxt = 0
        if host is not None:
            host.sample()
        t0 = ph.t0 = clock()
        while nxt < len(waves) or pending:
            while nxt < len(waves) and waves[nxt].due <= clock() - t0:
                wave = waves[nxt]
                nxt += 1
                for b in wave.bs:
                    submitted = clock() - t0
                    ph.requests.append(OpenLoopRequest(wave.due, submitted, None))
                    ph.wave.append(nxt - 1)
                    ph.outcomes.append(None)
                    try:
                        with span("service.submit"):
                            jid = svc.submit(
                                wave.a, b, precision=precision(wave.tenant), tenant=f"t{wave.tenant}"
                            )
                    except AdmissionError:
                        ph.rejected += 1
                        continue
                    pending[jid] = len(ph.requests) - 1
                    ph.outcomes[-1] = Outcome(wave.a, True, b, np.empty(0))
            if pending:
                fronts = len(rec.profile.host) if rec is not None else 0
                with span("service.drain") as sp:
                    results = svc.drain()
                done = clock() - t0
                if sp is not None:
                    dense = sum(r.seconds for r in rec.profile.host[fronts:])
                    _credit(sp, results.values(), dense)
                ph.drains.append((sp, list(results.values())))
                for jid, res in results.items():
                    idx = pending.pop(jid)
                    ph.results.append(res)
                    if res.status == COMPLETED:
                        req = ph.requests[idx]
                        ph.requests[idx] = OpenLoopRequest(req.due, req.submitted, done)
                        ph.outcomes[idx].x = res.x
                    else:
                        ph.outcomes[idx] = None
            elif nxt < len(waves):
                t_idle = clock()
                with span("idle.wait"):
                    if host is not None:
                        self._sample_gap(host, lambda: waves[nxt].due - (clock() - t0))
                    time.sleep(max(waves[nxt].due - (clock() - t0), 0.0))
                ph.idle += clock() - t_idle
        ph.wall = clock() - t0
        if host is not None:
            host.sample()
        return ph

    @staticmethod
    def _sample_gap(host: HostSpeed, room) -> None:
        """Time the host-speed reference at both ends of an idle gap: just
        after the drain that ended the last wave and just before the next
        wave is due, each only when *room* (seconds until it is due) leaves
        a sample's time several times over, so no wave waits for it."""
        lead = 4 * REF_RUNS * host.nominal
        if room() > 2 * lead:
            host.sample()
        if room() > lead:
            time.sleep(room() - lead)
            host.sample()

    def measure(self, state: dict, seconds: float, counts: ExactCounts, trace: bool) -> Measurement:
        m = Measurement(slo_s=self.slo_s)
        if not trace:
            # Latencies in reference seconds; the throughput stays wall
            # clock, since the arrival schedule sets the phase's length.
            m.host = HostSpeed()
            ph = self.run(state, self.schedule(state, seconds), host=m.host)
            self._account(m, ph, counts)
            m.raw_latencies = ph.latencies()
            m.latencies = ph.latencies(m.host)
            m.tail_samples = ph.wave_latencies(m.host)
            m.tail_unit = "wave"
            m.busy = ph.wall
            return m
        # Traced: the same schedule twice, untraced then traced, each half
        # the run; busy time (wall minus generator idle) gives the overhead.
        waves = self.schedule(state, seconds / 2)
        plain = self.run(state, waves)
        self._account(m, plain, counts)
        svc = state["service"]
        before = _service_counts(svc)
        tr = Tracer()
        with recording() as rec, tr.request(0):
            ph = self.run(state, waves, tr, rec)
        self._account(m, ph, counts)
        after = _service_counts(svc)
        m.tracer = tr
        m.extras["requests"] = len(ph.requests)
        m.untraced_wall = plain.wall - plain.idle
        m.traced_wall = ph.wall - ph.idle
        m.layer = service_layer_metrics(ph, tr, rec, {k: after[k] - before[k] for k in after})
        return m

    def _account(self, m: Measurement, ph: Phase, counts: ExactCounts) -> None:
        m.sent += len(ph.requests)
        for out in ph.outcomes:
            m.gate(out, counts)


def _credit(sp, results, dense: float) -> None:
    """Credit a drain span with the phase seconds the service measured for
    its batches; what is left of the drain is dispatch (service layer)."""
    hit = miss = factor = solve = 0.0
    for t in batches(results):
        hit += t.get("values_update", 0.0)
        miss += t.get("analyze", 0.0)
        factor += t.get("factor", 0.0)
        solve += t.get("solve", 0.0)
    dense = min(dense, factor)
    sp.inner.update({"sparse": hit, "symbolic": miss, "dense": dense, "mf": factor - dense + solve})


def batches(results) -> list[dict]:
    """One timings dict per executed batch: the jobs of one coalesced
    batch carry equal copies of its timings."""
    seen: dict = {}
    for res in results:
        if res.timings:
            seen.setdefault(tuple(sorted(res.timings.items())), res.timings)
    return list(seen.values())


def _service_counts(svc) -> dict:
    st = svc.cache.stats
    return {
        "hits": st.hits,
        "lookups": st.hits + st.misses,
        "fallbacks": svc.metrics.counter("service_precision_fallback_total"),
        "retries": svc.metrics.counter("retries"),
    }


def service_layer_metrics(ph: Phase, tr: Tracer, rec, delta: dict) -> dict:
    """Per-layer numbers of the traced phase, read from the bench spans in
    *tr*, from the service's own outputs — JobResult timings and queue
    waits, its counters and cache statistics — and from the program's spans
    and front profile in *rec*.
    Service and mf seconds are per batch, the service's unit of work."""
    runs = batches(ph.results)
    nb = max(len(runs), 1)
    sent = max(len(ph.requests), 1)

    def per_batch(*keys):
        return sum(t.get(k, 0.0) for t in runs for k in keys) / nb

    factor = per_batch("factor") * nb
    drain_wall = sum(sp.duration for sp, _ in ph.drains)
    waits = [r.queue_wait for r in ph.results if r.status == COMPLETED]
    solves = [s for s in rec.spans if s.name == "mf.solve"]
    solve_s = sum(s.duration for s in solves)
    # A refined solve is one service.solve span with refine=True; each of
    # its mf.solve children is the direct solve or one correction.
    kids: dict[int, list] = {}
    for s in solves:
        kids.setdefault(s.parent_id, []).append(s)
    refined = [s for s in rec.spans if s.name == "service.solve" and s.attrs.get("refine")]
    iters = [len(kids.get(s.span_id, [])) - 1 for s in refined]
    refine_self = sum(
        s.duration - sum(k.duration for k in kids.get(s.span_id, [])) for s in refined
    )
    prof = rec.profile
    return {
        "service.batches": len(runs),
        "service.batch_rhs_mean": sum(r.batched_rhs for r in ph.results) / max(len(ph.results), 1),
        "service.cache_hit_ratio": delta["hits"] / delta["lookups"] if delta["lookups"] else 0.0,
        "service.queue_wait_p50_s": median(waits) if waits else 0.0,
        "service.queue_wait_tail_s": tail(waits).value if len(waits) > 10 else 0.0,
        "service.submit_seconds": tr.total("service.submit") / sent,
        "service.prepare_seconds": per_batch("values_update", "analyze"),
        "service.factor_seconds": per_batch("factor"),
        "service.solve_seconds": per_batch("solve"),
        "service.dispatch_overhead_share": (
            (drain_wall - per_batch("job_total") * nb) / drain_wall if drain_wall else 0.0
        ),
        "service.precision_fallbacks": delta["fallbacks"] / sent,
        "service.retries": delta["retries"] / sent,
        "service.rejected": ph.rejected / sent,
        "sparse.update_values_seconds": per_batch("values_update"),
        "mf.factor_seconds": per_batch("factor"),
        "mf.factor_gflops": prof.total_flops / factor / 1e9 if factor else 0.0,
        "mf.assembly_seconds": max(factor - prof.total_seconds, 0.0) / nb,
        "mf.solve_seconds": solve_s / nb,
        "mf.solve_rhs_per_s": sum(s.attrs.get("rhs", 1) for s in solves) / solve_s if solve_s else 0.0,
        "mf.refine_seconds": refine_self / nb,
        "mf.refine_iterations": sum(iters) / len(iters) if iters else 0.0,
        "dense.kernel_seconds": prof.total_seconds / nb,
        "dense.share": prof.total_seconds / factor if factor else 0.0,
        "dense.gflops": prof.measured_gflops(),
        "dense.bytes_computed": prof.total_bytes / nb,
        "bench.generator_lag_max_s": max((generator_lag(r) for r in ph.requests), default=0.0),
    }
