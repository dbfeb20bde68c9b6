"""Distributed multifrontal LU (static pivoting) on the simulated machine.

The unsymmetric sibling of :mod:`repro.parallel.factor_par`. Fronts are
*full* matrices distributed 2D block-cyclic over the same
subtree-to-subcube plan (built on the symmetrized pattern, so the symmetric
plan machinery — groups, grids, extend-add runs — carries over directly;
only the lower-triangle restrictions drop away).

Per pivot block column k the communication is actually *simpler* than the
symmetric case: the diagonal LU block broadcasts along both its grid row
and column; L panels (below) broadcast along their grid rows, U panels
(right) along their grid columns; every trailing block (a, b) then updates
locally with ``A_ab -= L_ak U_kb``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dense.trsm import solve_unit_lower_inplace
from repro.mf.lu import _partial_lu, assemble_lu_front, lu_scatter
from repro.parallel.factor_par import ea_message_nbytes, gemm_flops, trsm_flops
from repro.parallel.plan import FactorPlan, PlanOptions, SupernodeDist
from repro.simmpi.comm import Comm
from repro.simmpi.ops import Compute, Recv, Send
from repro.symbolic.analyze import SymbolicFactor, dense_partial_factor_flops


class LocalFrontLU:
    """One rank's full-block share of a distributed unsymmetric front."""

    __slots__ = ("d", "me", "blocks")

    def __init__(self, d: SupernodeDist, me: int):
        self.d = d
        self.me = me
        self.blocks: dict[tuple[int, int], np.ndarray] = {}
        for bi, bj in d.grid.owned_blocks(me, d.nblocks, lower_only=False):
            r0, r1 = d.block_range(bi)
            c0, c1 = d.block_range(bj)
            self.blocks[(bi, bj)] = np.zeros((r1 - r0, c1 - c0))

    def block(self, bi: int, bj: int) -> np.ndarray:
        return self.blocks[(bi, bj)]

    def owns(self, bi: int, bj: int) -> bool:
        return (bi, bj) in self.blocks

    def add_entries(self, pa: np.ndarray, pb: np.ndarray, vals: np.ndarray) -> None:
        if pa.size == 0:
            return
        d = self.d
        bi = d.block_of(pa)
        bj = d.block_of(pb)
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


@dataclass
class RankLUData:
    """One rank's LU factor pieces after the distributed factorization."""

    rank: int
    #: seq supernode -> (lu11, l21, u12)
    seq_panels: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )
    #: dist supernode -> {row_block: full-width row array}
    #: pivot row blocks carry all m columns; update row blocks carry the
    #: leading w (L) columns only.
    dist_rows: dict[int, dict[int, np.ndarray]] = field(default_factory=dict)
    factor_entries: int = 0
    flops: float = 0.0
    perturbed: list[int] = field(default_factory=list)


# ---------------------------------------------------------------------------
# extend-add over full updates
# ---------------------------------------------------------------------------


def ea_pairs_full(plan: FactorPlan, c: int) -> set[tuple[int, int]]:
    """(sender, dest) pairs of the *full* (both-triangle) extend-add."""
    sym = plan.sym
    parent = int(sym.sn_parent[c])
    dc = plan.dist[c]
    dp = plan.dist[parent]
    runs = plan.ea_runs(c)
    pairs: set[tuple[int, int]] = set()
    for a in range(len(runs)):
        _, _, cba, pba = runs[a]
        for b in range(len(runs)):
            _, _, cbb, pbb = runs[b]
            sender = dc.group[0] if dc.is_seq else dc.grid.owner(cba, cbb)
            dest = dp.group[0] if dp.is_seq else dp.grid.owner(pba, pbb)
            pairs.add((sender, dest))
    return pairs


def _pack_full(plan: FactorPlan, c: int, me: int, value_getter):
    """Pack this rank's share of child *c*'s full update for its parent."""
    sym = plan.sym
    parent = int(sym.sn_parent[c])
    dc = plan.dist[c]
    dp = plan.dist[parent]
    pa = plan.parent_positions(c)
    runs = plan.ea_runs(c)
    out: dict[int, list] = {}
    for a in range(len(runs)):
        ia0, ia1, cba, pba = runs[a]
        for b in range(len(runs)):
            ib0, ib1, cbb, pbb = runs[b]
            sender = dc.group[0] if dc.is_seq else dc.grid.owner(cba, cbb)
            if sender != me:
                continue
            dest = dp.group[0] if dp.is_seq else dp.grid.owner(pba, pbb)
            ia = np.arange(ia0, ia1, dtype=np.int64)
            ib = np.arange(ib0, ib1, dtype=np.int64)
            ga, gb = np.meshgrid(ia, ib, indexing="ij")
            vals = value_getter(ga, gb)
            out.setdefault(dest, []).append(
                (pa[ga.ravel()], pa[gb.ravel()], vals.ravel())
            )
    return {
        dest: (
            np.concatenate([p[0] for p in pieces]),
            np.concatenate([p[1] for p in pieces]),
            np.concatenate([p[2] for p in pieces]),
        )
        for dest, pieces in out.items()
    }


def _seq_getter(update: np.ndarray):
    def get(ga, gb):
        return update[ga, gb]

    return get


def _dist_getter(lf: LocalFrontLU, width: int):
    d = lf.d

    def get(ga, gb):
        fa = ga + width
        fb = gb + width
        bi = int(d.block_of(np.asarray([fa.flat[0]]))[0])
        bj = int(d.block_of(np.asarray([fb.flat[0]]))[0])
        blk = lf.block(bi, bj)
        return blk[fa - int(d.starts[bi]), fb - int(d.starts[bj])]

    return get


# ---------------------------------------------------------------------------
# the LU factor program
# ---------------------------------------------------------------------------


def make_lu_factor_program(
    plan: FactorPlan,
    permuted_full,
    pivot_perturbation: float | None = None,
):
    """Rank program for the distributed LU factorization."""
    scatter = lu_scatter(plan.sym, permuted_full)
    perturb_abs = None
    if pivot_perturbation is not None:
        scale = float(np.max(np.abs(permuted_full.data), initial=0.0))
        perturb_abs = pivot_perturbation * max(scale, 1.0)

    def program(comm: Comm):
        me = comm.world_rank
        sym = plan.sym
        data = RankLUData(rank=me)
        seq_updates: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        dist_updates: dict[int, LocalFrontLU] = {}

        for s in plan.supernodes_for_rank(me):
            d = plan.dist[s]
            if d.is_seq:
                yield from _seq_lu_step(
                    comm, plan, s, me, data, seq_updates, dist_updates,
                    scatter, perturb_abs,
                )
            else:
                yield from _dist_lu_step(
                    comm, plan, s, me, data, seq_updates, dist_updates,
                    scatter, perturb_abs,
                )
        return data

    return program


def _send_full_update(plan, s, me, seq_updates, dist_updates):
    parent = int(plan.sym.sn_parent[s])
    if parent < 0:
        return
    d = plan.dist[s]
    if d.is_seq:
        getter = _seq_getter(seq_updates[s][0])
    else:
        getter = _dist_getter(dist_updates[s], d.width)
    packed = _pack_full(plan, s, me, getter)
    for dest in sorted(packed):
        if dest == me:
            continue
        pa, pb, vals = packed[dest]
        yield Send(
            dest,
            ("lea", parent, s),
            (s, pa, pb, vals),
            nbytes=ea_message_nbytes(vals.size),
        )


def _recv_full_contributions(plan, s, me, apply_fn, seq_updates, dist_updates):
    sym = plan.sym
    for c in sym.sn_children[s]:
        pairs = ea_pairs_full(plan, c)
        senders = sorted({src for src, dst in pairs if dst == me})
        if me in senders:
            dc = plan.dist[c]
            if dc.is_seq:
                getter = _seq_getter(seq_updates[c][0])
            else:
                getter = _dist_getter(dist_updates[c], dc.width)
            packed = _pack_full(plan, c, me, getter)
            if me in packed:
                apply_fn(*packed[me])
        for sender in senders:
            if sender == me:
                continue
            c_got, pa, pb, vals = yield Recv(sender, ("lea", s, c))
            assert c_got == c
            apply_fn(pa, pb, vals)
        if plan.dist[c].is_seq:
            seq_updates.pop(c, None)
        else:
            dist_updates.pop(c, None)


def _seq_lu_step(
    comm, plan, s, me, data, seq_updates, dist_updates, scatter, perturb_abs
):
    sym = plan.sym
    d = plan.dist[s]
    rows = sym.sn_rows[s]
    m, w = rows.size, d.width
    front = assemble_lu_front(scatter, s, m)

    def apply_fn(pa, pb, vals):
        np.add.at(front, (pa, pb), vals)

    yield from _recv_full_contributions(
        plan, s, me, apply_fn, seq_updates, dist_updates
    )
    _partial_lu(front, w, perturb_abs, d.c0, data.perturbed)
    flops = 2 * dense_partial_factor_flops(m, w)
    yield Compute(flops=flops, front_order=m, mem_bytes=8.0 * m * m)
    data.flops += flops
    data.seq_panels[s] = (
        front[:w, :w].copy(),
        front[w:, :w].copy(),
        front[:w, w:].copy(),
    )
    data.factor_entries += w * w + 2 * (m - w) * w
    if m > w:
        seq_updates[s] = (front[w:, w:].copy(), rows[w:])
        yield from _send_full_update(plan, s, me, seq_updates, dist_updates)


def _dist_lu_step(
    comm, plan, s, me, data, seq_updates, dist_updates, scatter, perturb_abs
):
    sym = plan.sym
    d = plan.dist[s]
    grid = d.grid
    nb = plan.opts.nb
    myr, myc = grid.coords(me)
    row_comm = Comm(me, grid.row_members(myr), ctx=("lsn", s, "row", myr))
    col_comm = Comm(me, grid.col_members(myc), ctx=("lsn", s, "col", myc))

    lf = LocalFrontLU(d, me)
    n_assembled = _assemble_dist_lu(plan, s, me, lf, scatter)
    yield Compute(mem_bytes=16.0 * n_assembled)

    yield from _recv_full_contributions(
        plan, s, me, lf.add_entries, seq_updates, dist_updates
    )

    nblocks = d.nblocks
    for k in range(d.npb):
        kb = int(d.starts[k + 1] - d.starts[k])
        diag_owner = grid.owner(k, k)
        payload = None
        if me == diag_owner:
            blk = lf.block(k, k)
            _partial_lu(blk, kb, perturb_abs, d.c0 + int(d.starts[k]), data.perturbed)
            f = 2 * dense_partial_factor_flops(kb, kb)
            yield Compute(flops=f, front_order=kb)
            data.flops += f
            payload = blk
        # Diagonal LU block to its column (for L panels) and row (for U).
        lukk = None
        if myc == k % grid.gc:
            lukk = yield from col_comm.bcast(payload, root=k % grid.gr)
        if myr == k % grid.gr:
            lukk = yield from row_comm.bcast(
                payload if me == diag_owner else (lukk if myc == k % grid.gc else None),
                root=k % grid.gc,
            )

        # L panels: blocks (i, k), i > k — right-solve with U_kk.
        pf = 0
        if myc == k % grid.gc:
            for bi in range(k + 1, nblocks):
                if lf.owns(bi, k):
                    _trsm_right_upper(lukk, lf.block(bi, k))
                    pf += trsm_flops(lf.block(bi, k).shape[0], kb)
        # U panels: blocks (k, j), j > k — left-solve with unit L_kk.
        if myr == k % grid.gr:
            for bj in range(k + 1, nblocks):
                if lf.owns(k, bj):
                    solve_unit_lower_inplace(lukk, lf.block(k, bj))
                    pf += trsm_flops(lf.block(k, bj).shape[1], kb)
        if pf:
            yield Compute(flops=pf, front_order=nb)
            data.flops += pf

        # Panel broadcasts: L_ik along grid row i, U_kj along grid col j.
        row_l: dict[int, np.ndarray] = {}
        col_u: dict[int, np.ndarray] = {}
        for bi in range(k + 1, nblocks):
            if myr == bi % grid.gr:
                pay = lf.block(bi, k) if myc == k % grid.gc else None
                row_l[bi] = yield from row_comm.bcast(pay, root=k % grid.gc)
        for bj in range(k + 1, nblocks):
            if myc == bj % grid.gc:
                pay = lf.block(k, bj) if myr == k % grid.gr else None
                col_u[bj] = yield from col_comm.bcast(pay, root=k % grid.gr)

        # Trailing update on all owned blocks (a, b), a > k, b > k.
        uf = 0
        for (a, b), blk in lf.blocks.items():
            if a <= k or b <= k:
                continue
            blk -= row_l[a] @ col_u[b]
            uf += gemm_flops(blk.shape[0], blk.shape[1], kb)
        if uf:
            yield Compute(flops=uf, front_order=nb)
            data.flops += uf

    yield from _lu_solve_redistribution(plan, s, me, lf, data)
    if d.m > d.width:
        dist_updates[s] = lf
        yield from _send_full_update(plan, s, me, seq_updates, dist_updates)


def _assemble_dist_lu(plan, s, me, lf: LocalFrontLU, scatter) -> int:
    """Scatter this rank's share of A's pivot columns and rows into its
    front blocks; returns the number of entries scattered."""
    pos, vals, ptr = scatter
    d = plan.dist[s]
    pa, pb = np.divmod(pos[ptr[s]: ptr[s + 1]], d.m)
    mine = d.grid.owners(d.block_of(pa), d.block_of(pb)) == me
    lf.add_entries(pa[mine], pb[mine], vals[ptr[s]: ptr[s + 1]][mine])
    return int(mine.sum())


def _lu_solve_redistribution(plan, s, me, lf: LocalFrontLU, data):
    """Gather per-row data onto row owners: pivot rows full-width, update
    rows L-width."""
    d = plan.dist[s]
    grid = d.grid
    outgoing: dict[int, dict[int, list]] = {}
    for (bi, bj), blk in lf.blocks.items():
        keep = bj < d.npb or bi < d.npb
        if not keep:
            continue
        if bi >= d.npb and bj >= d.npb:
            continue
        dest = d.row_owner(bi)
        outgoing.setdefault(dest, {}).setdefault(bi, []).append((bj, blk))
    for dest in sorted(outgoing):
        if dest == me:
            continue
        payload = outgoing[dest]
        nbytes = sum(b.nbytes for pieces in payload.values() for _, b in pieces)
        yield Send(dest, ("lredist", s), payload, nbytes=nbytes + 64)

    my_rows = [bi for bi in range(d.nblocks) if d.row_owner(bi) == me]
    assembled: dict[int, np.ndarray] = {}
    expected: set[int] = set()
    for bi in my_rows:
        r0, r1 = d.block_range(bi)
        width = d.m if bi < d.npb else d.width
        assembled[bi] = np.zeros((r1 - r0, width))
        bj_range = range(d.nblocks) if bi < d.npb else range(d.npb)
        for bj in bj_range:
            owner = grid.owner(bi, bj)
            if owner != me:
                expected.add(owner)
    local = outgoing.get(me, {})

    def place(bi, bj, blk):
        if bi >= d.npb and bj >= d.npb:
            return
        c0, c1 = d.block_range(bj)
        assembled[bi][:, c0:c1] = blk

    for bi, pieces in local.items():
        for bj, blk in pieces:
            place(bi, bj, blk)
    for sender in sorted(expected):
        payload = yield Recv(sender, ("lredist", s))
        for bi, pieces in payload.items():
            for bj, blk in pieces:
                place(bi, bj, blk)
    if assembled:
        data.dist_rows[s] = assembled
        data.factor_entries += sum(a.size for a in assembled.values())


def _trsm_right_upper(lu: np.ndarray, b: np.ndarray) -> None:
    """``B <- B U^{-1}`` with U = upper triangle (incl. diagonal) of the
    packed LU block."""
    k = lu.shape[0]
    for j in range(k):
        b[:, j] /= lu[j, j]
        if j + 1 < k:
            b[:, j + 1:] -= np.outer(b[:, j], lu[j, j + 1:])


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


@dataclass
class ParallelLUResult:
    """Outcome of one simulated distributed LU factorization."""

    plan: FactorPlan
    sim: object
    datas: list[RankLUData]
    machine: object
    permuted_full: object

    @property
    def makespan(self) -> float:
        return self.sim.makespan

    @property
    def total_flops(self) -> float:
        return sum(d.flops for d in self.datas)

    def to_dense_lu(self) -> tuple[np.ndarray, np.ndarray]:
        """Reassemble dense (L, U) from the rank pieces (tests)."""
        sym = self.plan.sym
        n = sym.n
        l = np.eye(n)
        u = np.zeros((n, n))
        for data in self.datas:
            for s, (lu11, l21, u12) in data.seq_panels.items():
                rows = sym.sn_rows[s]
                w = sym.supernode_width(s)
                c0 = int(sym.partition.sn_start[s])
                cols = np.arange(c0, c0 + w)
                l[np.ix_(cols, cols)] = np.tril(lu11, -1) + np.eye(w)
                u[np.ix_(cols, cols)] = np.triu(lu11)
                if rows.size > w:
                    l[np.ix_(rows[w:], cols)] = l21
                    u[np.ix_(cols, rows[w:])] = u12
            for s, segs in data.dist_rows.items():
                d = self.plan.dist[s]
                rows = sym.sn_rows[s]
                c0 = int(sym.partition.sn_start[s])
                w = d.width
                for bi, arr in segs.items():
                    r0, r1 = d.block_range(bi)
                    for li, r in enumerate(range(r0, r1)):
                        gr_ = rows[r]
                        if bi < d.npb:
                            # full factor row: L strictly left, U from diag.
                            l[gr_, c0: c0 + r] = arr[li, :r]
                            u[gr_, rows] = 0.0
                            u[gr_, rows[r:]] = arr[li, r:]
                        else:
                            l[gr_, c0: c0 + w] = arr[li, :w]
        return l, u


def simulate_lu_factorization(
    sym: SymbolicFactor,
    permuted_full,
    n_ranks: int,
    machine,
    options: PlanOptions | None = None,
    pivot_perturbation: float | None = None,
) -> ParallelLUResult:
    """Run the distributed LU factorization on the simulated machine."""
    from repro.simmpi.scheduler import Simulator

    plan = FactorPlan(sym, n_ranks, options)
    program = make_lu_factor_program(
        plan, permuted_full, pivot_perturbation=pivot_perturbation
    )
    sim = Simulator(machine, n_ranks).run(program)
    return ParallelLUResult(
        plan=plan,
        sim=sim,
        datas=list(sim.returns),
        machine=machine,
        permuted_full=permuted_full,
    )


def simulate_lu_solve(result: ParallelLUResult, b: np.ndarray):
    """Distributed LU solve for one RHS (original ordering)."""
    from repro.parallel.lu_solve_par import make_lu_solve_program
    from repro.simmpi.scheduler import Simulator
    from repro.sparse.permute import permute_vector, unpermute_vector
    from repro.util.errors import ShapeError
    from repro.util.validation import as_float_array

    b = as_float_array(b, "b")
    sym = result.plan.sym
    if b.shape[0] != sym.n or b.ndim > 2:
        raise ShapeError(
            f"b must have shape ({sym.n},) or ({sym.n}, k); got {b.shape}"
        )
    bp = permute_vector(b, sym.perm)
    program = make_lu_solve_program(result.plan, result.datas, bp)
    sim = Simulator(result.machine, result.plan.n_ranks).run(program)
    xp = np.zeros(b.shape)
    seen = np.zeros(sym.n, dtype=bool)
    for pieces, _ in sim.returns:
        for rows, vals in pieces:
            xp[rows] = vals
            seen[rows] = True
    if not seen.all():
        raise ShapeError(
            f"LU solve left {int((~seen).sum())} rows unsolved"
        )
    return sim, unpermute_vector(xp, sym.perm)
