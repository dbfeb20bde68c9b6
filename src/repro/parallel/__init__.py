"""The paper's contribution: scalable parallel multifrontal factorization.

Pieces:

* :mod:`repro.parallel.mapping` — subtree-to-subcube (subforest-to-
  subcluster) mapping of the assembly tree onto rank groups;
* :mod:`repro.parallel.grid2d` — 2D process grids and block-cyclic front
  distribution;
* :mod:`repro.parallel.plan` — the static factorization plan every rank
  derives from the (replicated) symbolic data: who owns which block, which
  extend-add transfers exist, block partitions;
* :mod:`repro.parallel.dist_front` — one rank's blocks of a distributed
  front, its assembly and the extend-add packer;
* :mod:`repro.parallel.factor_par` — the rank program performing the
  distributed numeric factorization under :mod:`repro.simmpi`;
* :mod:`repro.parallel.solve_par` — distributed triangular solves;
* :mod:`repro.parallel.driver` — host-side helpers that run the simulated
  factorization/solve and reassemble/verify the results;
* :mod:`repro.parallel.hybrid` — MPI×SMP hybrid execution model.

One engine serves every factorization: ``method`` sets the front's shape.
Cholesky and LDLᵀ fronts are lower triangular; ``method="lu"`` (static
pivoting on the symmetrized pattern) keeps full fronts and runs through the
same plan, rank walk, extend-add, solve fan-in/fan-out and drivers. Only the
dense kernels, the broadcasts of the diagonal block and U panels, the width
of the redistributed pivot rows and the pivot sweeps of the solve differ.
"""

from repro.parallel.mapping import map_supernodes_to_ranks, TreeMapping
from repro.parallel.grid2d import ProcessGrid, grid_dims, block_starts
from repro.parallel.plan import FactorPlan, PlanOptions
from repro.parallel.driver import (
    simulate_factorization,
    simulate_solve,
    ParallelFactorResult,
    ParallelSolveResult,
)
from repro.parallel.hybrid import hybrid_configurations

__all__ = [
    "map_supernodes_to_ranks",
    "TreeMapping",
    "ProcessGrid",
    "grid_dims",
    "block_starts",
    "FactorPlan",
    "PlanOptions",
    "simulate_factorization",
    "simulate_solve",
    "ParallelFactorResult",
    "ParallelSolveResult",
    "hybrid_configurations",
]
