"""``cold_solve``: every request is a never-seen pattern, analyzed, factored
and solved from scratch (closed loop, one client).

The mix cycles through eight kinds — 3D 7-point and 27-point cubes, 2D
9-point plates, 3-dof elasticity, seeded unstructured 2D meshes and, in two
slots of eight, unsymmetric convection–diffusion — so every run sees the
same blend. Each request relabels its kind's base matrix by a seeded
random permutation (unstructured meshes also draw new points), so no two
requests share a pattern.
"""

from __future__ import annotations

import numpy as np

from repro.core.lu_solver import UnsymmetricSolver
from repro.core.solver import SparseSolver, as_symmetric_lower
from repro.gen import (
    convection_diffusion2d,
    elasticity3d,
    grid2d_9pt,
    grid3d_27pt,
    grid3d_laplacian,
    unstructured2d,
)
from repro.graph.structure import AdjacencyGraph
from repro.mf.lu import lu_analyze, lu_solve, multifrontal_lu
from repro.mf.numeric import multifrontal_factor
from repro.mf.refine import iterative_refinement_many
from repro.mf.solve_phase import solve_many
from repro.obs import recording
from repro.ordering.registry import get_ordering
from repro.sparse.ops import matvec_csc, symmetrize, tril
from repro.symbolic.analyze import analyze

from common import Outcome, relabel, symbolic_counts, symbolic_extras
from tracer import note_dense, timed_solve

ORDERING = "nd"
#: refinement settings of the front doors' defaults
SPD_TOL = 1e-12
LU_TOL = 1e-12
LU_MAX_ITER = 5

#: (kind, symmetric lower?) per slot of one cycle; 2 of 8 unsymmetric
CYCLE = (
    ("cube7", True),
    ("plate9", True),
    ("convection", False),
    ("cube27", True),
    ("elasticity", True),
    ("unstructured", True),
    ("convection", False),
    ("cube7", True),
)
#: per-kind sizes, chosen so each request costs about the same
SIZES = {
    "cube7": 8,
    "plate9": 22,
    "convection": 22,
    "cube27": 7,
    "elasticity": 5,
    "unstructured": 500,
}
#: cycles of inputs generated in set-up, more than one run consumes
POOL_CYCLES = 6


class ColdSolve:
    name = "cold_solve"
    #: per-request latency limit of slo_attainment [s]
    slo_s = 5.0
    #: seconds one cycle of requests takes on the recording host
    cycle_s = 1.8

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        bases = {
            "cube7": grid3d_laplacian(SIZES["cube7"]),
            "plate9": grid2d_9pt(SIZES["plate9"]),
            "convection": convection_diffusion2d(SIZES["convection"]),
            "cube27": grid3d_27pt(SIZES["cube27"]),
            "elasticity": elasticity3d(SIZES["elasticity"], seed=seed),
        }
        state = {"rng": rng, "seed": seed, "bases": bases, "next": 0}
        state["pool"] = [self._generate(state) for _ in range(POOL_CYCLES)]
        return state

    def setup_counts(self, state: dict) -> dict:
        return {}

    def cycle(self, state: dict) -> list[tuple]:
        """The next cycle's requests: pre-generated in set-up while the pool
        lasts, generated here (outside any timed region) after that."""
        return state["pool"].pop(0) if state["pool"] else self._generate(state)

    def _generate(self, state: dict) -> list[tuple]:
        rng = state["rng"]
        reqs = []
        for kind, sym in CYCLE:
            if kind == "unstructured":
                a = unstructured2d(SIZES[kind], seed=int(rng.integers(2**31)))
            else:
                a = relabel(state["bases"][kind], rng, sym)
            b = rng.standard_normal(a.shape[0])
            reqs.append((state["next"], kind, sym, a, b))
            state["next"] += 1
        return reqs

    def _key(self, state: dict, req: tuple) -> str:
        return f"cold_solve/seed{state['seed']}/req{req[0]}"

    # -- the front doors ----------------------------------------------------

    def front_door(self, state: dict, req: tuple) -> Outcome:
        _i, _kind, sym, a, b = req
        if sym:
            solver = SparseSolver(a, ordering=ORDERING)
            solver.analyze()
            solver.factor()
            x = solver.solve(b).x
            counts = symbolic_counts(solver.sym)
        else:
            lu = UnsymmetricSolver(a, ordering=ORDERING)
            lu.analyze()
            lu.factor()
            x = lu.solve(b).x
            counts = symbolic_counts(lu.sym)
        return Outcome(a, sym, b, x, self._key(state, req), counts)

    # -- the traced replay --------------------------------------------------

    def replay(self, state: dict, req: tuple, tr) -> Outcome:
        i, _kind, sym, a, b = req
        ex = {"requests": 1}
        with tr.request(i):
            if sym:
                x, s = self._replay_spd(a, b, tr, ex)
            else:
                x, s = self._replay_lu(a, b, tr, ex)
        ex.update(symbolic_extras(s))
        return Outcome(a, sym, b, x, self._key(state, req), symbolic_counts(s), ex)

    def _replay_spd(self, a, b, tr, ex):
        with tr.span("core.canonicalize"):
            lower = as_symmetric_lower(a)
        with tr.span("ordering.graph"):
            graph = AdjacencyGraph.from_symmetric_lower(lower)
        with tr.span("ordering.nd"):
            perm = get_ordering(ORDERING)(graph)
        with tr.span("symbolic.analyze"):
            s = analyze(lower, perm, None)
        with tr.span("mf.factor") as sp, recording() as rec:
            numeric = multifrontal_factor(s, method="cholesky")
        note_dense(sp, rec.profile, ex)
        with tr.span("mf.refine"):
            res = iterative_refinement_many(
                numeric, lower, b, tol=SPD_TOL, solve_fn=timed_solve(tr, solve_many, ex)
            )
        ex["refine_iterations"] = int(np.max(res.iterations))
        return res.x[:, 0], s

    def _replay_lu(self, a, b, tr, ex):
        with tr.span("sparse.symmetrize"):
            pattern = tril(symmetrize(a, mode="pattern"))
        with tr.span("ordering.graph"):
            graph = AdjacencyGraph.from_symmetric_lower(pattern)
        with tr.span("ordering.nd"):
            perm = get_ordering(ORDERING)(graph)
        with tr.span("symbolic.lu_analyze"):
            s, permuted = lu_analyze(a, perm, None)
        with tr.span("mf.lu_factor"):
            f = multifrontal_lu(s, permuted)
        # UnsymmetricSolver.solve: direct solve, then refinement on the
        # max-norm relative residual.
        with tr.span("mf.refine"):
            solve = timed_solve(tr, lu_solve, ex)
            norm_b = float(np.max(np.abs(b)))
            x = solve(f, b)
            with tr.span("sparse.matvec"):
                r = b - matvec_csc(a, x)
            rel = float(np.max(np.abs(r))) / norm_b
            iters = 0
            for iters in range(1, LU_MAX_ITER + 1):
                if rel <= LU_TOL:
                    iters -= 1
                    break
                x = x + solve(f, r)
                with tr.span("sparse.matvec"):
                    r = b - matvec_csc(a, x)
                rel = float(np.max(np.abs(r))) / norm_b
        ex["refine_iterations"] = iters
        return x, s

