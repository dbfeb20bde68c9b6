"""Benchmark-side spans: one span per call into a layer of ``repro``.

The spans are recorded here, around public calls, never inside the
program. A span's layer is the first dotted part of its name
(``"ordering.nd"`` -> ``ordering``). Each request has one root span named
``request``; the root's self time is the request's unattributed time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from bmath import self_time

#: the layers a span name may start with (``graph`` work is timed under
#: ``ordering``, ``simmpi`` and ``machine`` work under ``parallel``)
LAYERS = (
    "core",
    "ordering",
    "symbolic",
    "sparse",
    "mf",
    "dense",
    "exec",
    "service",
    "parallel",
    "idle",
)
ROOT = "request"


@dataclass
class BenchSpan:
    span_id: int
    name: str
    start: float
    end: float
    #: span_id of the enclosing span, -1 for a request root
    parent: int
    request: int
    #: layer -> seconds measured inside this span without a span of their
    #: own (dense-kernel time from the program's front profile, service
    #: phase time from JobResult.timings); credited to that layer and
    #: taken out of this span's self time
    inner: dict[str, float] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return "bench" if self.name == ROOT else self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; :meth:`dump` writes them when the run ends."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[BenchSpan] = []
        self._stack: list[BenchSpan] = []
        self._request = -1
        #: the root span of the latest request
        self.last_request: BenchSpan | None = None

    @contextmanager
    def request(self, request_id: int):
        if self._stack:
            raise RuntimeError("a request span cannot nest in another span")
        self._request = request_id
        with self.span(ROOT) as root:
            self.last_request = root
            yield root

    @contextmanager
    def span(self, name: str):
        if name != ROOT and name.split(".", 1)[0] not in LAYERS:
            raise ValueError(f"span {name!r} names no known layer")
        parent = self._stack[-1].span_id if self._stack else -1
        sp = BenchSpan(len(self.spans), name, self.clock(), 0.0, parent, self._request)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._stack.pop()

    # -- attribution ---------------------------------------------------------

    def attribution(self) -> dict:
        """Self seconds per layer over every finished request.

        Returns ``{"wall": Σ request durations, "layers": {layer: self
        seconds}, "unattributed": Σ root self seconds, "requests": n}``;
        ``sum(layers) + unattributed == wall`` up to rounding.
        """
        children = self._children()
        layers = {name: 0.0 for name in LAYERS}
        wall = unattributed = 0.0
        requests = 0
        for sp in self.spans:
            inner = sum(sp.inner.values())
            own = self_time(sp.start, sp.end, children.get(sp.span_id, ()), inner)
            for layer, seconds in sp.inner.items():
                layers[layer] += seconds
            if sp.name == ROOT:
                requests += 1
                wall += sp.duration
                unattributed += own
            else:
                layers[sp.layer] += own
        return {
            "wall": wall,
            "layers": layers,
            "unattributed": unattributed,
            "requests": requests,
        }

    def _children(self) -> dict[int, list[tuple[float, float]]]:
        children: dict[int, list[tuple[float, float]]] = {}
        for sp in self.spans:
            if sp.parent >= 0:
                children.setdefault(sp.parent, []).append((sp.start, sp.end))
        return children

    def self_total(self, name: str) -> float:
        """Summed self time of the spans called exactly *name*."""
        children = self._children()
        return sum(
            self_time(sp.start, sp.end, children.get(sp.span_id, ()), sum(sp.inner.values()))
            for sp in self.spans
            if sp.name == name
        )

    def total(self, prefix: str) -> float:
        """Summed duration of the spans whose name starts with *prefix*."""
        return sum(sp.duration for sp in self.spans if sp.name.startswith(prefix))

    def dump(self, path) -> None:
        """Write the spans as one JSON list."""
        with open(path, "w") as fh:
            json.dump([asdict(sp) for sp in self.spans], fh)


# -- helpers of the traced replays ------------------------------------------


def timed_solve(tr, fn, ex: dict, name: str = "mf.solve"):
    """Wrap a triangular-solve kernel in a span called *name*, counting the
    right-hand sides it solved."""

    def solve_fn(factor, b):
        with tr.span(name):
            x = fn(factor, b)
        ex["rhs_solved"] = ex.get("rhs_solved", 0) + (1 if b.ndim == 1 else b.shape[1])
        return x

    return solve_fn


def note_dense(sp, profile, ex: dict, attribute: bool = True) -> None:
    """Read the program's front profile: dense-kernel seconds, flops and
    computed bytes of the factorization that just ran. With *attribute*
    the dense seconds are credited to the ``dense`` layer inside span
    *sp* (sequential factorizations only — concurrent workers' seconds
    would overlap)."""
    ex["dense_s"] = ex.get("dense_s", 0.0) + profile.total_seconds
    ex["dense_flops"] = ex.get("dense_flops", 0) + profile.total_flops
    ex["dense_bytes"] = ex.get("dense_bytes", 0) + profile.total_bytes
    if attribute:
        sp.inner["dense"] = sp.inner.get("dense", 0.0) + profile.total_seconds
