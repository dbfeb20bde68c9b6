"""Graph bisection: BFS level-set growing plus Fiduccia–Mattheyses-style
edge-cut refinement.

This is the work-horse under nested dissection. It aims for the quality/
simplicity point of early METIS: grow a half from a pseudo-peripheral
vertex, then a few FM passes moving vertices by gain under a balance
constraint. The FM kernel, :func:`fm_refine`, also refines every level of
the multilevel bisector (:mod:`repro.graph.multilevel`).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph.structure import AdjacencyGraph
from repro.graph.traversal import bfs_levels, peripheral_levels
from repro.util.errors import OrderingError


def bisect(
    g: AdjacencyGraph,
    balance: float = 0.55,
    refine_passes: int = 4,
    start: int | None = None,
) -> np.ndarray:
    """Split the vertices of *g* into two parts.

    Returns a boolean array ``side`` of length ``g.n``: ``False`` = part 0,
    ``True`` = part 1. Each part holds at most ``balance * n`` vertices
    (for n >= 2). The initial split halves the vertices in BFS order from
    the start vertex, by (level, index); vertices the BFS cannot reach sort
    after every reachable one, so they fill part 1 from its tail before
    FM refinement may move them.

    Parameters
    ----------
    balance
        Maximum fraction of vertices either part may hold (0.5 < balance <= 1).
    refine_passes
        Maximum number of FM refinement sweeps (refinement stops after the
        first sweep that does not improve the cut).
    start
        Optional fixed BFS start vertex (default: pseudo-peripheral pick).
    """
    n = g.n
    if not (0.5 < balance <= 1.0):
        raise OrderingError(f"balance must be in (0.5, 1]; got {balance}")
    if n == 0:
        return np.zeros(0, dtype=bool)
    if n == 1:
        return np.zeros(1, dtype=bool)

    if start is None:
        start, levels = peripheral_levels(g, 0)
    else:
        levels = bfs_levels(g, start)

    # Order vertices by (level, index); unreachable (-1) go last.
    sort_key = np.where(levels >= 0, levels, np.iinfo(np.int64).max)
    order = np.lexsort((np.arange(n), sort_key))
    half = n // 2
    side = np.zeros(n, dtype=bool)
    side[order[half:]] = True

    max_part = int(np.floor(balance * n))
    max_part = max(max_part, half + (n % 2))  # always feasible
    fm_refine(g.xadj, g.adjncy, side, max_part, refine_passes, tail_limit=n)
    return side


def cut_size(g: AdjacencyGraph, side: np.ndarray) -> int:
    """Number of edges crossing the partition."""
    deg = np.diff(g.xadj)
    src = np.repeat(np.arange(g.n, dtype=np.int64), deg)
    return int(np.count_nonzero(side[src] != side[g.adjncy])) // 2


def fm_refine(
    xadj: np.ndarray,
    adjncy: np.ndarray,
    side: np.ndarray,
    max_w: int,
    passes: int,
    *,
    adjwgt: np.ndarray | None = None,
    vwgt: np.ndarray | None = None,
    tail_limit: int | None = None,
) -> None:
    """Up to *passes* Fiduccia–Mattheyses sweeps over a CSR graph,
    stopping after the first sweep that does not improve the cut.

    Mutates the boolean *side* in place. Each sweep computes every
    vertex's gain (weight of its cut edges minus its uncut ones), then
    repeatedly moves the unlocked vertex of highest gain, lowest index
    first, whose target part holds less than *max_w* vertex weight; it
    locks the vertex, updates its neighbours' gains and finally rolls back
    to the best prefix of moves. A vertex whose weight would push its
    target part over *max_w* is locked without moving. With *tail_limit*
    set, a sweep also stops once a losing move would leave the running
    gain *tail_limit* or more below its best.

    Candidates sit in one min-heap per side keyed ``(-gain, vertex)``;
    every gain change pushes a new entry, and stale ones (locked vertex,
    outdated gain) are dropped when they surface. The surviving top is
    exactly the argmax a full scan would pick, at O(E log n) per sweep
    instead of O(n) per move.
    """
    n = side.size
    if adjwgt is None:
        adjwgt = np.ones(adjncy.size, dtype=np.int64)
    if vwgt is None:
        vwgt = np.ones(n, dtype=np.int64)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(xadj))
    tot = np.bincount(src, weights=adjwgt, minlength=n)
    ptr, adj, step = xadj.tolist(), adjncy.tolist(), (2 * adjwgt).tolist()
    vw = vwgt.tolist()
    total = int(vwgt.sum())
    heappop, heappush = heapq.heappop, heapq.heappush
    for _ in range(passes):
        cut = side[src] != side[adjncy]
        ext = np.bincount(src[cut], weights=adjwgt[cut], minlength=n)
        neg = (tot - 2 * ext).astype(np.int64)  # minus the gain
        # A sorted list is a valid heap: order each side by (-gain, vertex).
        heaps = []
        for part in (~side, side):
            members = np.flatnonzero(part)
            members = members[np.argsort(neg[members], kind="stable")]
            heaps.append(list(zip(neg[members].tolist(), members.tolist())))
        neg = neg.tolist()
        sd = side.astype(np.int64).tolist()  # unlocked vertices never move
        w1 = int(vwgt[side].sum())
        sizes = [total - w1, w1]
        locked = [False] * n
        moves: list[int] = []
        cum = best = best_prefix = 0
        while True:
            s = None
            for t in (0, 1):
                if sizes[1 - t] >= max_w:
                    continue  # no room on the other side
                h = heaps[t]
                while h and (locked[h[0][1]] or h[0][0] != neg[h[0][1]]):
                    heappop(h)
                if h and (s is None or h[0] < heaps[s][0]):
                    s = t
            if s is None:
                break
            ng, v = heappop(heaps[s])
            wv = vw[v]
            locked[v] = True
            if sizes[1 - s] + wv > max_w:
                continue
            if tail_limit is not None and ng > 0 and cum - ng <= best - tail_limit:
                break  # hopeless tail; bail early
            sizes[s] -= wv
            sizes[1 - s] += wv
            moves.append(v)
            cum -= ng
            if cum > best:
                best = cum
                best_prefix = len(moves)
            # Each edge at v flips between cut and uncut: a neighbour on
            # v's old side gains twice the edge weight, one across loses it.
            # Locked neighbours are out of this sweep; skip them.
            a, b = ptr[v], ptr[v + 1]
            for u, d in zip(adj[a:b], step[a:b]):
                if locked[u]:
                    continue
                su = sd[u]
                nu = neg[u] - d if su == s else neg[u] + d
                neg[u] = nu
                heappush(heaps[su], (nu, u))
        if best_prefix:
            moved = np.asarray(moves[:best_prefix], dtype=np.int64)
            side[moved] = ~side[moved]
        if best <= 0:
            break
