"""``refactor_stream`` and ``refactor_threads``: one 3D pattern analyzed in
set-up; each request is a time step — drifted values, ``refactor``, one
single right-hand-side ``solve`` (closed loop, one client).

``refactor_stream`` runs the sequential backend; ``refactor_threads`` runs
the identical request stream on the ``repro.exec`` thread pool with two
workers. The traced run of ``refactor_threads`` also times a sequential
refactor of every request's matrix, the base of ``exec.speedup_vs_seq``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.solver import SparseSolver
from repro.exec import multifrontal_factor_threads, solve_many_threads
from repro.gen import grid3d_laplacian
from repro.mf.numeric import multifrontal_factor
from repro.mf.refine import iterative_refinement_many
from repro.mf.solve_phase import solve_many
from repro.obs import recording

from common import Outcome, drift, symbolic_counts, symbolic_extras
from tracer import note_dense, timed_solve

#: 7-point Laplacian on a 16³ grid: n = 4096 unknowns
GRID = 16
ORDERING = "nd"
TOL = 1e-12
WORKERS = 2


class Refactor:
    #: per-request latency limit of slo_attainment [s]
    slo_s = 2.0
    #: seconds one sequential request takes on the recording host; both
    #: backends send the same number of requests, at least 21, so the tail
    #: percentile sits above the median
    cycle_s = 0.45
    #: set-ups per run: each analyzes a 16³ cube (about 3 s), so three
    #: rather than the default five keep a run near 20 s
    setup_reps = 3

    def __init__(self, name: str, backend: str) -> None:
        self.name = name
        self.backend = backend
        self.workers = WORKERS if backend == "threads" else None

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        solver = SparseSolver(drift(grid3d_laplacian(GRID), rng), ordering=ORDERING)
        solver.analyze()
        state = {"rng": rng, "solver": solver, "base": solver.lower, "next": 0}
        # Warm-up time step: lazy imports and first-touch allocations are
        # paid here, not by the first timed request.
        self.front_door(state, self.cycle(state)[0])
        return state

    def setup_counts(self, state: dict) -> dict:
        return {"refactor/pattern": symbolic_counts(state["solver"].sym)}

    def cycle(self, state: dict) -> list[tuple]:
        rng = state["rng"]
        a = drift(state["base"], rng)
        b = rng.standard_normal(a.shape[0])
        state["next"] += 1
        return [(state["next"] - 1, a, b)]

    def front_door(self, state: dict, req: tuple) -> Outcome:
        _i, a, b = req
        solver = state["solver"]
        solver.refactor(a, backend=self.backend, workers=self.workers)
        x = solver.solve(b, backend=self.backend, workers=self.workers).x
        return Outcome(a, True, b, x)

    def replay(self, state: dict, req: tuple, tr) -> Outcome:
        i, a, b = req
        solver = state["solver"]
        ex = {"requests": 1, **symbolic_extras(solver.sym)}
        with tr.request(i):
            with tr.span("sparse.update_values"):
                solver.update_values(a)
            if self.backend == "seq":
                with tr.span("mf.factor") as sp, recording() as rec:
                    numeric = multifrontal_factor(solver.sym, method=solver.method)
                note_dense(sp, rec.profile, ex)
                kernel, span = solve_many, "mf.solve"
            else:
                with tr.span("exec.factor") as sp, recording() as rec:
                    numeric = multifrontal_factor_threads(
                        solver.sym, method=solver.method, workers=self.workers
                    )
                note_dense(sp, rec.profile, ex, attribute=False)
                st = numeric.exec_stats
                ex["exec_busy_s"] = sum(st.busy_seconds)
                ex["exec_capacity_s"] = st.workers * sp.duration
                ex["exec_tasks"] = st.completed
                ex["exec_queue_depth_peak_max"] = st.max_queue_depth

                def kernel(factor, rhs):
                    return solve_many_threads(factor, rhs, workers=self.workers)

                span = "exec.solve"

            with tr.span("mf.refine"):
                res = iterative_refinement_many(
                    numeric, solver.lower, b, tol=TOL, solve_fn=timed_solve(tr, kernel, ex, span)
                )
        ex["refine_iterations"] = int(np.max(res.iterations))
        if self.backend == "threads":
            # Base of exec.speedup_vs_seq: both backends refactor this very
            # matrix, untraced, back to back, in alternating order.
            pair = [("seq", "seq_refactor_s"), ("threads", "threads_refactor_s")]
            for backend, key in pair[:: 1 if i % 2 else -1]:
                t0 = time.perf_counter()
                solver.refactor(a, backend=backend, workers=self.workers)
                ex[key] = time.perf_counter() - t0
        return Outcome(a, True, b, res.x[:, 0], extras=ex)
