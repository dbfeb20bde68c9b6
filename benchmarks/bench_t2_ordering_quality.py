"""T2 — ordering quality and analysis cost.

Paper analogue: the justification for nested dissection — fill and operation
count versus minimum-degree-style and bandwidth orderings, plus elimination
tree height (the parallelism proxy). Ordering is also part of a cold solve's
cost, so each ordering's wall time is reported (median of ``REPS``).

Gate, meaningful on a 1–2-core host: in one process, alternating runs,
``nd`` on ``GATE_INSTANCE`` is at least ``GATE_SPEEDUP``× faster than the
same driver on the original per-vertex kernels (``tests/nd_reference.py``)
and returns the same permutation byte for byte.

The table goes to ``results/test_t2_ordering_quality_table.txt`` (conftest
tee); the same numbers go to ``results/test_t2_ordering_quality.json``.
"""

import json
import os
from pathlib import Path

import numpy as np

from harness import banner

from repro.gen import get_paper_matrix
from repro.graph import AdjacencyGraph
from repro.ordering import get_ordering, ordering_quality
from repro.util.tables import format_table
from repro.util.timing import WallTimer
from tests import nd_reference

INSTANCES = ["cube-s", "cube-m", "plate-m", "elast-s"]
ORDER_NAMES = ["natural", "rcm", "amd", "nd", "nd-ml", "nd-c"]
REPS = 3
GATE_INSTANCE = "cube-m"
GATE_SPEEDUP = 2.0
RESULTS = Path(__file__).parent / "results" / "test_t2_ordering_quality.json"


def _timed(fn, graph):
    """Permutation and wall seconds of one call."""
    with WallTimer() as t:
        perm = fn(graph)
    return perm, t.elapsed


def _gate(graph) -> dict:
    """Alternate ``nd`` on the current and the reference kernels."""
    nd = get_ordering("nd")
    fast, slow = [], []
    for _ in range(REPS):
        perm, secs = _timed(nd, graph)
        fast.append(secs)
        with nd_reference.reference_kernels():
            ref, secs = _timed(nd, graph)
        slow.append(secs)
        assert perm.tobytes() == ref.tobytes(), "nd differs from the reference kernels"
    return {
        "instance": GATE_INSTANCE,
        "nd_s": float(np.median(fast)),
        "reference_nd_s": float(np.median(slow)),
        "speedup": float(np.median(slow) / np.median(fast)),
    }


def test_t2_ordering_quality_table(benchmark):
    rows = []
    for name in INSTANCES:
        lower = get_paper_matrix(name).build()
        graph = AdjacencyGraph.from_symmetric_lower(lower)
        for oname in ORDER_NAMES:
            runs = [_timed(get_ordering(oname), graph) for _ in range(REPS)]
            q = ordering_quality(lower, runs[0][0])
            rows.append(
                {
                    "matrix": name,
                    "ordering": oname,
                    "n": q.n,
                    "nnz_factor": int(q.nnz_factor),
                    "fill": q.fill_ratio,
                    "mflops": q.factor_flops / 1e6,
                    "etree_height": int(q.etree_height),
                    "order_s": float(np.median([secs for _, secs in runs])),
                }
            )
    gate = _gate(
        AdjacencyGraph.from_symmetric_lower(get_paper_matrix(GATE_INSTANCE).build())
    )
    banner("T2", "Ordering quality: fill, flops, etree height, time per ordering")
    print(
        format_table(
            ["matrix", "ordering", "n", "nnz(L)", "fill", "Mflops", "tree height",
             "order [ms]"],
            [
                [r["matrix"], r["ordering"], r["n"], r["nnz_factor"],
                 round(r["fill"], 2), r["mflops"], r["etree_height"],
                 r["order_s"] * 1e3]
                for r in rows
            ],
        )
    )
    print(
        f"\nhost cores: {os.cpu_count()}; median of {REPS}; gate: nd on "
        f"{GATE_INSTANCE} {gate['nd_s'] * 1e3:.0f} ms vs reference kernels "
        f"{gate['reference_nd_s'] * 1e3:.0f} ms = {gate['speedup']:.1f}x "
        f"(floor {GATE_SPEEDUP}x), same permutation"
    )
    RESULTS.parent.mkdir(exist_ok=True)
    RESULTS.write_text(
        json.dumps(
            {
                "experiment": "T2",
                "host_cores": os.cpu_count(),
                "reps": REPS,
                "gate": gate,
                "rows": rows,
            },
            indent=2,
        )
        + "\n"
    )

    # ND must beat natural on every 3D instance (the paper-family claim).
    by_key = {(r["matrix"], r["ordering"]): r for r in rows}
    for name in ("cube-s", "cube-m"):
        assert by_key[(name, "nd")]["mflops"] < by_key[(name, "natural")]["mflops"]
    assert gate["speedup"] >= GATE_SPEEDUP, gate

    lower = get_paper_matrix("cube-s").build()
    graph = AdjacencyGraph.from_symmetric_lower(lower)
    amd = get_ordering("amd")
    benchmark(lambda: amd(graph))
