"""One rank's share of a distributed frontal matrix.

Blocks are stored in a dict keyed by block coordinates. A symmetric
(Cholesky/LDLᵀ) front keeps only its lower-triangle blocks (bi >= bj); an
LU front keeps every block. Assembly, scatter-add of extend-add
contributions, and packing of outgoing extend-add messages live here.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.plan import FactorPlan, SupernodeDist


class LocalFront:
    """The blocks of a distributed front owned by one rank."""

    __slots__ = ("d", "me", "blocks")

    def __init__(self, d: SupernodeDist, me: int, lower_only: bool = True):
        self.d = d
        self.me = me
        self.blocks: dict[tuple[int, int], np.ndarray] = {}
        for bi, bj in d.grid.owned_blocks(me, d.nblocks, lower_only=lower_only):
            r0, r1 = d.block_range(bi)
            c0, c1 = d.block_range(bj)
            self.blocks[(bi, bj)] = np.zeros((r1 - r0, c1 - c0))

    def block(self, bi: int, bj: int) -> np.ndarray:
        return self.blocks[(bi, bj)]

    def owns(self, bi: int, bj: int) -> bool:
        return (bi, bj) in self.blocks

    @property
    def entries(self) -> int:
        return sum(b.size for b in self.blocks.values())

    def add_entries(self, pa: np.ndarray, pb: np.ndarray, vals: np.ndarray) -> None:
        """Scatter-add entries at front-local (row, col) positions into the
        owned blocks (all positions must belong to owned blocks)."""
        if pa.size == 0:
            return
        d = self.d
        bi = d.block_of(pa)
        bj = d.block_of(pb)
        # Group by destination block: sort by (bi, bj).
        key = bi * d.nblocks + bj
        order = np.argsort(key, kind="stable")
        key_s = key[order]
        boundaries = np.flatnonzero(np.diff(key_s)) + 1
        starts = np.concatenate([[0], boundaries, [key_s.size]])
        for a, b in zip(starts[:-1], starts[1:]):
            idx = order[a:b]
            tbi = int(bi[idx[0]])
            tbj = int(bj[idx[0]])
            blk = self.blocks[(tbi, tbj)]
            r0 = int(d.starts[tbi])
            c0 = int(d.starts[tbj])
            np.add.at(blk, (pa[idx] - r0, pb[idx] - c0), vals[idx])


def assemble_dist_entries(
    plan: FactorPlan, s: int, me: int, lf: LocalFront, scatter
) -> int:
    """Scatter this rank's share of A's entries into its front blocks.

    *scatter* is ``(pos, vals, ptr)``: supernode s's entries are
    ``vals[ptr[s]:ptr[s+1]]`` at flat front positions ``pos[ptr[s]:ptr[s+1]]``
    (see :func:`repro.parallel.factor_par.front_scatter`).

    Returns the number of entries scattered (for memory-traffic charging).
    The input matrix is assumed pre-distributed so that each rank holds the
    entries of the blocks it owns (the standard assumption for distributed
    solvers; re-distribution of A is not part of the timed factorization).
    """
    pos, vals, ptr = scatter
    d = plan.dist[s]
    lo, hi = ptr[s], ptr[s + 1]
    pa, pb = np.divmod(pos[lo:hi].astype(np.intp), d.m)
    mine = d.grid.owners(d.block_of(pa), d.block_of(pb)) == me
    lf.add_entries(pa[mine], pb[mine], vals[lo:hi][mine])
    return int(mine.sum())


def pack_update_messages(
    plan: FactorPlan,
    c: int,
    me: int,
    value_getter,
    lower_only: bool = True,
) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Pack this rank's share of child *c*'s update matrix for its parent.

    *value_getter(ia, ib)* returns the update values at child-update-local
    index grids (2-D arrays) — the indirection lets sequential children read
    from a dense update matrix and distributed children read from their
    blocks. A symmetric update ships its lower triangle (run pairs b <= a);
    an LU update (``lower_only=False``) ships every run pair.

    Returns ``dest_rank -> (parent_rows, parent_cols, values)`` with only
    nonempty destinations present.
    """
    sym = plan.sym
    parent = int(sym.sn_parent[c])
    dc = plan.dist[c]
    dp = plan.dist[parent]
    pa = plan.parent_positions(c)
    runs = plan.ea_runs(c)
    out: dict[int, list] = {}
    for a in range(len(runs)):
        ia0, ia1, cba, pba = runs[a]
        for b in range(a + 1 if lower_only else len(runs)):
            ib0, ib1, cbb, pbb = runs[b]
            sender = dc.group[0] if dc.is_seq else dc.grid.owner(cba, cbb)
            if sender != me:
                continue
            dest = dp.group[0] if dp.is_seq else dp.grid.owner(pba, pbb)
            ia = np.arange(ia0, ia1, dtype=np.int64)
            ib = np.arange(ib0, ib1, dtype=np.int64)
            ga, gb = np.meshgrid(ia, ib, indexing="ij")
            vals_blk = value_getter(ga, gb)
            if lower_only:
                mask = ga >= gb  # lower triangle of the update
                ga, gb, vals_blk = ga[mask], gb[mask], vals_blk[mask]
            out.setdefault(dest, []).append(
                (pa[ga.ravel()], pa[gb.ravel()], vals_blk.ravel())
            )
    packed = {}
    for dest, pieces in out.items():
        pas = np.concatenate([p[0] for p in pieces])
        pbs = np.concatenate([p[1] for p in pieces])
        vs = np.concatenate([p[2] for p in pieces])
        packed[dest] = (pas, pbs, vs)
    return packed


def seq_update_getter(update: np.ndarray):
    """value_getter over a dense (sequential) update matrix."""

    def get(ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
        return update[ia, ib]

    return get


def dist_update_getter(lf: LocalFront, width: int):
    """value_getter over a distributed child's owned blocks.

    Child-update-local indices are offset by the pivot width to become
    front-local, then resolved into blocks.
    """
    d = lf.d

    def get(ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
        fa = ia + width
        fb = ib + width
        # Runs guarantee each (run a, run b) pair lies in a single block.
        bi = int(d.block_of(np.asarray([fa.flat[0]]))[0])
        bj = int(d.block_of(np.asarray([fb.flat[0]]))[0])
        blk = lf.block(bi, bj)
        r0 = int(d.starts[bi])
        c0 = int(d.starts[bj])
        return blk[fa - r0, fb - c0]

    return get
