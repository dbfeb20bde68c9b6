"""Graph traversal: BFS level structures, connected components,
pseudo-peripheral vertices.

These feed both RCM ordering (level structures) and nested-dissection
bisection (start-vertex selection, per-component recursion).

Every traversal here runs on one level-synchronous BFS kernel,
:func:`bfs_fill`, which expands a whole frontier per numpy step instead of
one vertex per Python iteration.
"""

from __future__ import annotations

import numpy as np

from repro.graph.structure import AdjacencyGraph


def bfs_fill(g: AdjacencyGraph, start: int, levels: np.ndarray) -> np.ndarray:
    """Breadth-first search from *start* over the vertices with
    ``levels < 0``.

    Writes the BFS depth of every vertex it reaches into *levels* (in
    place) and returns those vertices in Cuthill–McKee order: level by
    level; within a level by the queue position of the earliest neighbour
    that reached them, then by degree, then by index. That is exactly the
    visit order of a queue BFS that appends each vertex's unvisited
    neighbours sorted by (degree, index).
    """
    levels[start] = 0
    frontier = np.array([start], dtype=np.int64)
    parts = [frontier]
    depth = 0
    while True:
        nbrs, cnt = g.neighbors_of(frontier)
        fresh = levels[nbrs] < 0
        nbrs = nbrs[fresh]
        if nbrs.size == 0:
            break
        parent = np.repeat(np.arange(frontier.size, dtype=np.int64), cnt)[fresh]
        # First occurrence = the earliest frontier vertex reaching it.
        found, first = np.unique(nbrs, return_index=True)
        depth += 1
        levels[found] = depth
        deg = g.xadj[found + 1] - g.xadj[found]
        frontier = found[np.lexsort((found, deg, parent[first]))]
        parts.append(frontier)
    return np.concatenate(parts)


def bfs_levels(g: AdjacencyGraph, start: int) -> np.ndarray:
    """BFS distance of every vertex from *start* (-1 where unreachable)."""
    levels = np.full(g.n, -1, dtype=np.int64)
    bfs_fill(g, start, levels)
    return levels


def connected_components(g: AdjacencyGraph) -> np.ndarray:
    """Component label per vertex (labels are 0..k-1, in discovery order)."""
    comp = np.full(g.n, -1, dtype=np.int64)
    label = 0
    for s in range(g.n):
        if comp[s] >= 0:
            continue
        # The BFS writes depths, then the component's label overwrites them.
        comp[bfs_fill(g, s, comp)] = label
        label += 1
    return comp


def peripheral_levels(
    g: AdjacencyGraph, start: int = 0, max_iter: int = 10
) -> tuple[int, np.ndarray]:
    """George–Liu pseudo-peripheral vertex heuristic.

    Repeatedly BFS from the current candidate and jump to a minimum-degree
    vertex in the deepest level until the eccentricity stops growing.
    Operates within the component of *start*. Returns the vertex and its
    BFS levels (the last level structure the search built), so callers
    need not run that BFS again.
    """
    u = start
    levels = bfs_levels(g, u)
    ecc = int(levels.max(initial=0))
    degrees = g.degrees()
    for _ in range(max_iter):
        reachable = levels >= 0
        deepest = np.flatnonzero((levels == levels[reachable].max()) & reachable)
        cand = int(deepest[np.argmin(degrees[deepest])])
        cand_levels = bfs_levels(g, cand)
        cand_ecc = int(cand_levels[cand_levels >= 0].max(initial=0))
        if cand_ecc <= ecc:
            break
        u, levels, ecc = cand, cand_levels, cand_ecc
    return u, levels


def pseudo_peripheral_vertex(g: AdjacencyGraph, start: int = 0, max_iter: int = 10) -> int:
    """The vertex :func:`peripheral_levels` picks."""
    return peripheral_levels(g, start, max_iter)[0]
