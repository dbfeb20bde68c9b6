"""``simulate_scale``: the paper's own instrument. One pattern analyzed in
set-up; each request builds one ``FactorPlan`` and runs the distributed
factorization and solve on the simulated machine (closed loop, one
client). Requests cycle through p ∈ {16, 64, 256} on the Blue Gene/P and
POWER5-cluster presets, so every run sees the same configurations.
"""

from __future__ import annotations

import numpy as np

from repro.core.solver import SparseSolver
from repro.gen import grid3d_laplacian
from repro.machine.presets import BLUEGENE_P, POWER5_CLUSTER
from repro.parallel.driver import simulate_factorization, simulate_solve
from repro.parallel.plan import FactorPlan, PlanOptions

from common import Outcome, drift, symbolic_counts, symbolic_extras

#: 7-point Laplacian on a 6³ grid (n = 216): the largest cube whose
#: cycle fits a run several times over
GRID = 6
PRESETS = (("bgp", BLUEGENE_P), ("p5", POWER5_CLUSTER))
RANKS = (16, 64, 256)
#: requests of each rank count per preset in one cycle. p = 64 comes three
#: times: the median and the tail sample of a run fall among the p = 64
#: requests, and a p = 256 request, about a second long, is the least
#: steady timing of the mix (the host's speed can switch inside it)
WEIGHTS = {16: 1, 64: 3, 256: 1}
CONFIGS = tuple(
    (p, tag, machine) for p in RANKS for _ in range(WEIGHTS[p]) for tag, machine in PRESETS
)


class SimulateScale:
    name = "simulate_scale"
    #: per-request latency limit of slo_attainment [s]
    slo_s = 10.0
    #: seconds one cycle of requests takes on the recording host; four
    #: cycles in a 15-second run put the tail sample (p75 of 40) among the
    #: 24 p = 64 requests, three below the first p = 256 one
    cycle_s = 3.75

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        solver = SparseSolver(drift(grid3d_laplacian(GRID), rng))
        solver.analyze()
        state = {"rng": rng, "solver": solver, "next": 0}
        # Warm-up at the smallest machine: lazy imports are paid here.
        self.front_door(state, self._request(state, CONFIGS[0]))
        return state

    def setup_counts(self, state: dict) -> dict:
        return {"simulate/pattern": symbolic_counts(state["solver"].sym)}

    def _request(self, state: dict, config: tuple) -> tuple:
        n = state["solver"].lower.shape[0]
        state["next"] += 1
        return (state["next"] - 1, config, state["rng"].standard_normal(n))

    def cycle(self, state: dict) -> list[tuple]:
        return [self._request(state, config) for config in CONFIGS]

    def _outcome(self, state, req, fres, sres, ex=None) -> Outcome:
        _i, (p, tag, _machine), b = req
        counts = {
            "factor_messages": fres.sim.ledger.n_messages,
            "factor_bytes": fres.sim.ledger.total_bytes,
            "factor_makespan": fres.makespan,
            "solve_messages": sres.sim.ledger.n_messages,
            "solve_bytes": sres.sim.ledger.total_bytes,
            "solve_makespan": sres.makespan,
        }
        key = f"simulate/{tag}/p{p}"
        return Outcome(state["solver"].lower, True, b, sres.x, key, counts, ex or {})

    def front_door(self, state: dict, req: tuple) -> Outcome:
        _i, (p, _tag, machine), b = req
        sym = state["solver"].sym
        plan = FactorPlan(sym, p, PlanOptions())
        fres = simulate_factorization(sym, p, machine, PlanOptions(), plan=plan)
        sres = simulate_solve(fres, b)
        return self._outcome(state, req, fres, sres)

    def replay(self, state: dict, req: tuple, tr) -> Outcome:
        i, (p, tag, machine), b = req
        sym = state["solver"].sym
        with tr.request(i):
            with tr.span("parallel.plan"):
                plan = FactorPlan(sym, p, PlanOptions())
            with tr.span("parallel.factor_sim") as fsp:
                fres = simulate_factorization(sym, p, machine, PlanOptions(), plan=plan)
            with tr.span("parallel.solve_sim") as ssp:
                sres = simulate_solve(fres, b)
        messages = fres.sim.ledger.n_messages + sres.sim.ledger.n_messages
        ex = {
            "requests": 1,
            "sim_messages": messages,
            "sim_seconds": fsp.duration + ssp.duration,
            f"simmpi.messages.p{p}": fres.sim.ledger.n_messages,
            f"simmpi.bytes.p{p}": fres.sim.ledger.total_bytes,
            f"simmpi.modeled_factor_s.{tag}.p{p}": fres.makespan,
        }
        ex.update(symbolic_extras(sym))
        return self._outcome(state, req, fres, sres, ex)
