"""Reverse Cuthill–McKee ordering.

Bandwidth/profile-oriented: BFS from a pseudo-peripheral vertex, visiting
neighbours in increasing-degree order, then reverse. Not competitive with
ND/AMD on fill for 3D problems — which is exactly the contrast benchmark T2
reports — but cheap and predictable.
"""

from __future__ import annotations

import numpy as np

from repro.graph.structure import AdjacencyGraph
from repro.graph.traversal import bfs_fill, pseudo_peripheral_vertex
from repro.util.errors import InvariantError


def rcm_order(g: AdjacencyGraph) -> np.ndarray:
    """RCM permutation: ``perm[k]`` = vertex eliminated at step ``k``.

    Handles disconnected graphs by restarting from a pseudo-peripheral
    vertex of each unvisited component.
    """
    seen = np.full(g.n, -1, dtype=np.int64)
    parts = []
    for s in range(g.n):
        if seen[s] >= 0:
            continue
        # The peripheral search stays in s's component, which is unvisited.
        parts.append(bfs_fill(g, pseudo_peripheral_vertex(g, s), seen))
    order = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    if order.size != g.n:
        raise InvariantError(f"RCM visited {order.size} of {g.n} vertices")
    return order[::-1].copy()
