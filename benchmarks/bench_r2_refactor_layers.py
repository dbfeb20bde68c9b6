"""R2 (refactor layers) — where a sequential refactor's time goes.

Design choice probed: the analyze phase computes a pattern-invariant
assembly plan (scatter map, relative indices, value map — see
:mod:`repro.symbolic.assembly`), so a refactor does no index search: its
Python-side work is one scatter per front, one indexed add per child and
one value gather. This bench splits a refactor of the 16³ and 20³ 7-point
Laplacians into its layers:

* seq factor wall time (median of ``REPS`` untimed-profile refactors);
* dense-kernel seconds (partial Cholesky, from the ``repro.obs`` front
  profile) and their share of the profiled factor wall time;
* assembly + extend-add seconds (same profile);
* ``update_values`` seconds (the value gather);
* map bytes against the stored factor bytes (8 × stored entries).

Gates, meaningful on a 1–2-core host (BLAS pinned to one thread):

* dense share ≥ ``DENSE_SHARE_FLOOR`` at 16³ — index bookkeeping may not
  dominate the numeric phase;
* map bytes ≤ ``MAP_BYTES_CEIL`` of the stored factor bytes at every size.

The table goes to ``results/test_r2_refactor_layers.txt`` (conftest tee);
the same numbers go to ``results/test_r2_refactor_layers.json``.
"""

import json
import os
from pathlib import Path

import numpy as np

from harness import banner

from repro.core.solver import SparseSolver
from repro.gen import grid3d_laplacian
from repro.mf.numeric import multifrontal_factor
from repro.obs import recording
from repro.util.rng import make_rng
from repro.util.tables import format_table
from repro.util.timing import WallTimer

SIZES = (16, 20)
REPS = 7
DENSE_SHARE_FLOOR = 0.42
DENSE_SHARE_SIZE = 16
MAP_BYTES_CEIL = 0.05
RESULTS = Path(__file__).parent / "results" / "test_r2_refactor_layers.json"


def _drifted(lower, rng):
    return type(lower)(
        lower.shape, lower.indptr, lower.indices,
        lower.data * rng.uniform(0.95, 1.05, lower.nnz),
    )


def _measure(size: int) -> dict:
    lower = grid3d_laplacian(size)
    solver = SparseSolver(lower)
    solver.analyze()
    sym = solver.sym
    rng = make_rng(2009 + size)
    solver.refactor(_drifted(lower, rng))  # warm-up
    walls, updates, dense, asm, shares = [], [], [], [], []
    for _ in range(REPS):
        new = _drifted(lower, rng)
        with WallTimer() as t:
            solver.update_values(new)
        updates.append(t.elapsed)
        with WallTimer() as t:
            multifrontal_factor(sym)
        walls.append(t.elapsed)
        with recording() as rec, WallTimer() as tp:
            multifrontal_factor(sym)
        prof = rec.profile
        dense.append(prof.total_seconds)
        asm.append(prof.total_assembly_seconds)
        shares.append(prof.total_seconds / tp.elapsed)
    stored_bytes = 8 * sym.nnz_stored
    map_bytes = sym.assembly.nbytes
    return {
        "size": size,
        "n": sym.n,
        "supernodes": sym.n_supernodes,
        "factor_wall_s": float(np.median(walls)),
        "dense_kernel_s": float(np.median(dense)),
        "dense_share": float(np.median(shares)),
        "assembly_extend_add_s": float(np.median(asm)),
        "update_values_s": float(np.median(updates)),
        "map_bytes": int(map_bytes),
        "stored_factor_bytes": int(stored_bytes),
        "map_bytes_ratio": map_bytes / stored_bytes,
    }


def test_r2_refactor_layers():
    rows = [_measure(size) for size in SIZES]
    banner(
        "R2",
        f"Refactor layer split, 7-point Laplacian cubes (median of {REPS}, "
        "seq backend)",
    )
    print(
        format_table(
            [
                "grid", "n", "factor [ms]", "dense [ms]", "dense share",
                "asm+ea [ms]", "update_values [ms]", "map [KiB]", "map/factor",
            ],
            [
                [
                    f"{r['size']}^3", r["n"], r["factor_wall_s"] * 1e3,
                    r["dense_kernel_s"] * 1e3, r["dense_share"],
                    r["assembly_extend_add_s"] * 1e3,
                    r["update_values_s"] * 1e3, r["map_bytes"] / 1024,
                    r["map_bytes_ratio"],
                ]
                for r in rows
            ],
        )
    )
    blas = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    print(
        f"\nhost cores: {os.cpu_count()}; OPENBLAS_NUM_THREADS={blas}; gates: "
        f"dense share >= {DENSE_SHARE_FLOOR} at {DENSE_SHARE_SIZE}^3, "
        f"map bytes <= {MAP_BYTES_CEIL:.0%} of stored factor bytes"
    )
    RESULTS.parent.mkdir(exist_ok=True)
    RESULTS.write_text(
        json.dumps(
            {
                "experiment": "R2",
                "host_cores": os.cpu_count(),
                "openblas_num_threads": blas,
                "reps": REPS,
                "rows": rows,
            },
            indent=2,
        )
        + "\n"
    )
    for r in rows:
        assert r["map_bytes_ratio"] <= MAP_BYTES_CEIL, r
        if r["size"] == DENSE_SHARE_SIZE:
            assert r["dense_share"] >= DENSE_SHARE_FLOOR, r
