"""Reference copies of the original per-vertex nested-dissection kernels.

These are the O(n)-per-move FM passes, the vertex-at-a-time BFS and
induced-subgraph builder, and the queue-BFS RCM that the heap/frontier
kernels in :mod:`repro.graph` replaced. The replacements promise
byte-identical orderings, so tests and the T2 bench run both and compare.

:func:`reference_kernels` swaps the originals in under the current
nested-dissection driver, so ``get_ordering("nd" | "nd-c" | "nd-ml")``
produces the reference permutation inside the ``with`` block. :func:`graphs`
is the hypothesis strategy the identity tests draw inputs from.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
from hypothesis import strategies as st

from repro.graph import multilevel
from repro.graph.structure import AdjacencyGraph
from repro.util.errors import OrderingError
from repro.util.rng import make_rng
from repro.util.validation import as_index_array


def bfs_levels(g, start):
    levels = np.full(g.n, -1, dtype=np.int64)
    levels[start] = 0
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for u in frontier:
            for v in g.neighbors(u):
                v = int(v)
                if levels[v] < 0:
                    levels[v] = depth
                    nxt.append(v)
        frontier = nxt
    return levels


def pseudo_peripheral_vertex(g, start=0, max_iter=10):
    u = start
    levels = bfs_levels(g, u)
    ecc = int(levels.max(initial=0))
    for _ in range(max_iter):
        reachable = levels >= 0
        deepest = np.flatnonzero((levels == levels[reachable].max()) & reachable)
        degs = g.degrees()[deepest]
        cand = int(deepest[np.argmin(degs)])
        cand_levels = bfs_levels(g, cand)
        cand_ecc = int(cand_levels[cand_levels >= 0].max(initial=0))
        if cand_ecc <= ecc:
            break
        u, levels, ecc = cand, cand_levels, cand_ecc
    return u


def subgraph(self, vertices):
    vmap = as_index_array(vertices, "vertices")
    inv = np.full(self.n, -1, dtype=np.int64)
    inv[vmap] = np.arange(vmap.size, dtype=np.int64)
    xadj = [0]
    adjncy = []
    for k in range(vmap.size):
        local = inv[self.neighbors(vmap[k])]
        local = local[local >= 0]
        adjncy.append(np.sort(local))
        xadj.append(xadj[-1] + local.size)
    adj = np.concatenate(adjncy) if adjncy else np.empty(0, dtype=np.int64)
    sub = AdjacencyGraph(
        vmap.size, np.asarray(xadj, dtype=np.int64), adj, _skip_check=True
    )
    return sub, vmap


def fm_pass(g, side, max_part):
    n = g.n
    deg = np.diff(g.xadj)
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    cut_edge = side[src] != side[g.adjncy]
    ext = np.zeros(n, dtype=np.int64)
    np.add.at(ext, src, cut_edge.astype(np.int64))
    gains = 2 * ext - deg
    locked = np.zeros(n, dtype=bool)
    part1_size = int(side.sum())
    sizes = [n - part1_size, part1_size]
    moves = []
    cum_gain = best_gain = best_prefix = 0
    for _ in range(n):
        room_in_1 = sizes[1] < max_part
        room_in_0 = sizes[0] < max_part
        cand = np.flatnonzero(~locked & np.where(side, room_in_0, room_in_1))
        if cand.size == 0:
            break
        v = int(cand[np.argmax(gains[cand])])
        g_v = int(gains[v])
        if g_v < 0 and cum_gain + g_v <= best_gain - n:
            break
        s = int(side[v])
        sizes[s] -= 1
        sizes[1 - s] += 1
        side[v] = not side[v]
        locked[v] = True
        moves.append(v)
        cum_gain += g_v
        if cum_gain > best_gain:
            best_gain = cum_gain
            best_prefix = len(moves)
        gains[v] = -g_v
        for u in g.neighbors(v):
            u = int(u)
            if side[u] != side[v]:
                gains[u] += 2
            else:
                gains[u] -= 2
    for v in moves[best_prefix:]:
        side[v] = not side[v]
    return best_gain > 0


def bisect(g, balance=0.55, refine_passes=4, start=None):
    n = g.n
    if not (0.5 < balance <= 1.0):
        raise OrderingError(f"balance must be in (0.5, 1]; got {balance}")
    if n <= 1:
        return np.zeros(n, dtype=bool)
    if start is None:
        start = pseudo_peripheral_vertex(g, 0)
    levels = bfs_levels(g, start)
    sort_key = np.where(levels >= 0, levels, np.iinfo(np.int64).max)
    order = np.lexsort((np.arange(n), sort_key))
    half = n // 2
    side = np.zeros(n, dtype=bool)
    side[order[half:]] = True
    max_part = max(int(np.floor(balance * n)), half + (n % 2))
    for _ in range(refine_passes):
        if not fm_pass(g, side, max_part):
            break
    return side


def weighted_fm_pass(g, side, max_w):
    n = g.n
    deg = np.diff(g.xadj)
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    cut_edge = side[src] != side[g.adjncy]
    ext = np.zeros(n, dtype=np.int64)
    np.add.at(ext, src, np.where(cut_edge, g.adjwgt, 0))
    tot = np.zeros(n, dtype=np.int64)
    np.add.at(tot, src, g.adjwgt)
    gains = 2 * ext - tot
    locked = np.zeros(n, dtype=bool)
    w1 = int(g.vwgt[side].sum())
    sizes = [int(g.vwgt.sum()) - w1, w1]
    moves = []
    cum = best = best_prefix = 0
    for _ in range(n):
        room1 = sizes[1] < max_w
        room0 = sizes[0] < max_w
        cand = np.flatnonzero(~locked & np.where(side, room0, room1))
        if cand.size == 0:
            break
        v = int(cand[np.argmax(gains[cand])])
        gv = int(gains[v])
        s = int(side[v])
        wv = int(g.vwgt[v])
        if sizes[1 - s] + wv > max_w:
            locked[v] = True
            continue
        sizes[s] -= wv
        sizes[1 - s] += wv
        side[v] = not side[v]
        locked[v] = True
        moves.append(v)
        cum += gv
        if cum > best:
            best = cum
            best_prefix = len(moves)
        gains[v] = -gv
        for k in range(int(g.xadj[v]), int(g.xadj[v + 1])):
            u = int(g.adjncy[k])
            w = int(g.adjwgt[k])
            if side[u] != side[v]:
                gains[u] += 2 * w
            else:
                gains[u] -= 2 * w
    for v in moves[best_prefix:]:
        side[v] = not side[v]
    return best > 0


def _initial_bisection(g, balance, rng):
    n = g.n
    if n == 1:
        return np.zeros(1, dtype=bool)
    plain = AdjacencyGraph(n, g.xadj, g.adjncy, _skip_check=True)
    start = pseudo_peripheral_vertex(plain, int(rng.integers(0, n)))
    levels = bfs_levels(plain, start)
    sort_key = np.where(levels >= 0, levels, np.iinfo(np.int64).max)
    order = np.lexsort((np.arange(n), sort_key))
    total = int(g.vwgt.sum())
    side = np.zeros(n, dtype=bool)
    acc = 0
    for u in order:
        if acc >= total // 2:
            side[u] = True
        else:
            acc += int(g.vwgt[u])
    return side


def bisect_multilevel(g, balance=0.55, coarsest=40, refine_passes=3, seed=0):
    if not (0.5 < balance <= 1.0):
        raise OrderingError(f"balance must be in (0.5, 1]; got {balance}")
    n = g.n
    if n <= 1:
        return np.zeros(n, dtype=bool)
    rng = make_rng(seed)
    levels = []
    wg = multilevel.WeightedGraph.from_adjacency(g)
    while wg.n > coarsest:
        match = multilevel.heavy_edge_matching(wg, rng)
        coarse, cmap = multilevel.contract(wg, match)
        if coarse.n >= wg.n:
            break
        levels.append((wg, cmap))
        wg = coarse
    total = int(wg.vwgt.sum())
    max_w = max(int(np.floor(balance * total)), total // 2 + total % 2)
    side = _initial_bisection(wg, balance, rng)
    for _ in range(refine_passes):
        if not weighted_fm_pass(wg, side, max_w):
            break
    for fine, cmap in reversed(levels):
        side = side[cmap]
        ftotal = int(fine.vwgt.sum())
        fmax = max(int(np.floor(balance * ftotal)), ftotal // 2 + ftotal % 2)
        for _ in range(refine_passes):
            if not weighted_fm_pass(fine, side, fmax):
                break
    return side


def rcm_order(g):
    n = g.n
    visited = np.zeros(n, dtype=bool)
    degs = g.degrees()
    order = np.empty(n, dtype=np.int64)
    pos = 0
    for s in range(n):
        if visited[s]:
            continue
        start = pseudo_peripheral_vertex(g, s)
        visited[start] = True
        queue = [start]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            order[pos] = u
            pos += 1
            nbrs = g.neighbors(u)
            fresh = nbrs[~visited[nbrs]]
            if fresh.size:
                fresh = fresh[np.argsort(degs[fresh], kind="stable")]
                visited[fresh] = True
                queue.extend(int(v) for v in fresh)
    return order[::-1].copy()


def connected_components(g):
    comp = np.full(g.n, -1, dtype=np.int64)
    label = 0
    for s in range(g.n):
        if comp[s] >= 0:
            continue
        comp[s] = label
        stack = [s]
        while stack:
            u = stack.pop()
            for v in g.neighbors(u):
                v = int(v)
                if comp[v] < 0:
                    comp[v] = label
                    stack.append(v)
        label += 1
    return comp


@contextmanager
def reference_kernels():
    """Run the nested-dissection driver on the original kernels."""
    with ExitStack() as stack:
        for target, new in (
            ("repro.ordering.nested_dissection.bisect", bisect),
            ("repro.graph.multilevel.bisect_multilevel", bisect_multilevel),
            ("repro.graph.structure.AdjacencyGraph.subgraph", subgraph),
        ):
            stack.enter_context(mock.patch(target, new))
        yield


@st.composite
def graphs(draw):
    """Graphs whose orderings hinge on FM ties and BFS order: random edge
    sets, 2D/3D grids, stars, complete graphs, disconnected unions and
    n in {0, 1, 2}, optionally under a random relabelling."""
    kind = draw(
        st.sampled_from(
            ["random", "grid2d", "grid3d", "star", "complete", "disconnected", "tiny"]
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        n = draw(st.integers(3, 150))
        m = draw(st.integers(0, 4 * n))
        a, b = rng.integers(0, n, m), rng.integers(0, n, m)
    elif kind in ("grid2d", "grid3d"):
        dims = draw(st.lists(st.integers(1, 9), min_size=2, max_size=2)) if kind == "grid2d" \
            else draw(st.lists(st.integers(1, 6), min_size=3, max_size=3))
        n = int(np.prod(dims))
        idx = np.arange(n).reshape(dims)
        pairs = []
        for axis in range(len(dims)):
            lo = np.take(idx, np.arange(dims[axis] - 1), axis=axis).ravel()
            hi = np.take(idx, np.arange(1, dims[axis]), axis=axis).ravel()
            pairs.append((lo, hi))
        a = np.concatenate([p[0] for p in pairs])
        b = np.concatenate([p[1] for p in pairs])
    elif kind == "star":
        n = draw(st.integers(2, 80))
        a, b = np.zeros(n - 1, dtype=np.int64), np.arange(1, n)
    elif kind == "complete":
        n = draw(st.integers(2, 30))
        a, b = np.triu_indices(n, 1)
    elif kind == "disconnected":
        sizes = draw(st.lists(st.integers(1, 40), min_size=2, max_size=5))
        n = sum(sizes)
        chunks, base = [], 0
        for s in sizes:
            m = int(rng.integers(0, 3 * s + 1))
            chunks.append((base + rng.integers(0, s, m), base + rng.integers(0, s, m)))
            base += s
        a = np.concatenate([c[0] for c in chunks])
        b = np.concatenate([c[1] for c in chunks])
    else:
        n = draw(st.integers(0, 2))
        edge = n == 2 and draw(st.booleans())
        a, b = ([0], [1]) if edge else ([], [])
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if n and draw(st.booleans()):
        p = rng.permutation(n)
        a, b = p[a], p[b]
    return AdjacencyGraph.from_edges(n, a, b)
