"""The distributed numeric factorization rank program.

Each rank walks the supernodes it participates in, in ascending (postorder)
order:

* **sequential supernodes** (group of one): assemble, extend-add local and
  remote child contributions, dense partial factorization — charged as one
  compute region;
* **distributed supernodes**: 2D block-cyclic blocked right-looking partial
  factorization with pipelined panel broadcasts along grid rows/columns
  (ScaLAPACK-style; 1D degenerates to the MUMPS-like fan-out), then the
  solve-ready redistribution of the panel to row owners.

After a supernode is factored, the ranks holding pieces of its update
matrix immediately pack and send them toward the owners of the parent's
blocks (parallel extend-add); local shares short-circuit the network.

``method`` sets the front's shape. Cholesky and LDLᵀ fronts are lower
triangular. ``method="lu"`` (static pivoting, on the symmetrized pattern
the analysis used) keeps full fronts: the diagonal LU block is broadcast
along its grid row and column, L panels (below) go along grid rows, U
panels (right) along grid columns, every trailing block updates with
``A_ab -= L_ak U_kb``, and pivot rows are redistributed full width.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dense.chol import cholesky_in_place, _trsm_right_lower_transpose
from repro.dense.ldlt import ldlt_in_place
from repro.dense.partial_factor import partial_cholesky, partial_ldlt, _trsm_right_unit_lower_transpose
from repro.dense.trsm import solve_unit_lower_inplace
from repro.mf.lu import _partial_lu, assemble_lu_front, lu_scatter
from repro.obs.profile import active_profile
from repro.parallel.dist_front import (
    LocalFront,
    assemble_dist_entries,
    dist_update_getter,
    pack_update_messages,
    seq_update_getter,
)
from repro.parallel.plan import FactorPlan
from repro.simmpi.comm import Comm
from repro.simmpi.ops import Compute, Recv, Send
from repro.symbolic.analyze import dense_partial_factor_flops


def trsm_flops(rows: int, k: int) -> int:
    """Triangular panel solve flop count (consistent with the dense
    convention: k divisions + 2 madds per remaining element per row)."""
    return rows * k * (k + 1)


def gemm_flops(m: int, n: int, k: int) -> int:
    return 2 * m * n * k


def ea_message_nbytes(n_vals: int) -> int:
    """Wire size of an extend-add fragment: 8B values + compressed local
    indices (real codes ship block-relative 16-bit offsets)."""
    return 8 * n_vals + 4 * n_vals + 64


@dataclass
class RankFactorData:
    """Everything one rank keeps after the factorization (its slice of the
    factor plus bookkeeping the driver aggregates)."""

    rank: int
    #: seq supernode -> m×w panel (LU: packed LU11 over L21)
    seq_panels: dict[int, np.ndarray] = field(default_factory=dict)
    #: LU: seq supernode -> w×(m-w) U12 panel
    seq_upanels: dict[int, np.ndarray] = field(default_factory=dict)
    #: seq supernode -> LDLᵀ pivots
    seq_diag: dict[int, np.ndarray] = field(default_factory=dict)
    #: dist supernode -> {row_block: rows array}, w wide (LU pivot rows:
    #: m wide, the full factor row)
    dist_row_panels: dict[int, dict[int, np.ndarray]] = field(default_factory=dict)
    #: dist supernode -> LDLᵀ pivots of the pivot rows this rank owns
    dist_diag: dict[int, dict[int, np.ndarray]] = field(default_factory=dict)
    #: LU: global columns whose tiny pivot was statically perturbed
    perturbed: list[int] = field(default_factory=list)
    #: stored factor entries on this rank
    factor_entries: int = 0
    #: peak transient entries (front blocks + pending updates)
    peak_entries: int = 0
    #: flops charged
    flops: float = 0.0


@dataclass(frozen=True)
class FrontValues:
    """The numeric inputs of one factorization, shared by every rank."""

    method: str
    #: ``(pos, vals, ptr)``: supernode s's entries of A and their flat
    #: front positions, see :func:`front_scatter`
    scatter: tuple[np.ndarray, np.ndarray, np.ndarray]
    #: LU: absolute static-perturbation threshold (None: tiny pivots raise)
    perturb_abs: float | None = None

    @property
    def lower_only(self) -> bool:
        return self.method != "lu"


def front_scatter(sym, permuted_full=None):
    """``(pos, vals, ptr)`` scatter of A's entries into the fronts.

    Symmetric fronts take the analysis' lower-triangle map; an LU front
    (*permuted_full* given) takes :func:`repro.mf.lu.lu_scatter`, which adds
    the pivot rows above the diagonal.
    """
    if permuted_full is not None:
        return lu_scatter(sym, permuted_full)
    asm = sym.assembly
    return np.concatenate(asm.dst), sym.permuted_lower.data, asm.a_ptr


def make_factor_program(
    plan: FactorPlan,
    method: str = "cholesky",
    permuted_full=None,
    pivot_perturbation: float | None = None,
):
    """Build the rank program (a generator function for the simulator).

    ``method="lu"`` factors *permuted_full* (the analysis-permuted full
    matrix), perturbing pivots below ``pivot_perturbation · max|A|``.
    """
    perturb_abs = None
    if pivot_perturbation is not None:
        scale = float(np.max(np.abs(permuted_full.data), initial=0.0))
        perturb_abs = pivot_perturbation * max(scale, 1.0)
    num = FrontValues(method, front_scatter(plan.sym, permuted_full), perturb_abs)

    def program(comm: Comm):
        me = comm.world_rank
        data = RankFactorData(rank=me)
        # Child update holdings of this rank, consumed by parents:
        seq_updates: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        dist_updates: dict[int, LocalFront] = {}
        live_entries = 0

        def bump_peak() -> None:
            data.peak_entries = max(data.peak_entries, live_entries)

        for s in plan.supernodes_for_rank(me):
            d = plan.dist[s]
            if d.is_seq:
                live_delta = yield from _seq_step(
                    plan, s, me, num, data, seq_updates, dist_updates
                )
            else:
                live_delta = yield from _dist_step(
                    plan, s, me, num, data, seq_updates, dist_updates
                )
            live_entries += live_delta
            bump_peak()
        return data

    return program


# ---------------------------------------------------------------------------
# shared extend-add machinery
# ---------------------------------------------------------------------------


def _send_update_to_parent(plan, s, me, lower_only, seq_updates, dist_updates):
    """Yield Sends of this rank's share of s's update toward the parent's
    owners; local shares stay in the holdings dicts for the parent step."""
    sym = plan.sym
    parent = int(sym.sn_parent[s])
    if parent < 0:
        return
    d = plan.dist[s]
    if d.is_seq:
        update, _rows = seq_updates[s]
        getter = seq_update_getter(update)
    else:
        getter = dist_update_getter(dist_updates[s], d.width)
    packed = pack_update_messages(plan, s, me, getter, lower_only)
    for dest in sorted(packed):
        if dest == me:
            continue  # applied locally during the parent's step
        pa, pb, vals = packed[dest]
        yield Send(
            dest,
            ("ea", parent, s),
            (s, pa, pb, vals),
            nbytes=ea_message_nbytes(vals.size),
        )


def _receive_contributions(
    plan, s, me, lower_only, apply_fn, seq_updates, dist_updates
):
    """Apply local child shares and receive remote ones for supernode s.

    *apply_fn(pa, pb, vals)* scatters into this rank's piece of the front.
    Returns entries freed from local holdings.
    """
    sym = plan.sym
    freed = 0
    for c in sym.sn_children[s]:
        dc = plan.dist[c]
        # Local share first (deterministic order: local, then ranks asc).
        senders = plan.ea_senders_to(c, me, lower_only)
        if me in senders:
            if dc.is_seq:
                update, _rows = seq_updates[c]
                getter = seq_update_getter(update)
            else:
                getter = dist_update_getter(dist_updates[c], dc.width)
            packed = pack_update_messages(plan, c, me, getter, lower_only)
            if me in packed:
                pa, pb, vals = packed[me]
                apply_fn(pa, pb, vals)
        for sender in senders:
            if sender == me:
                continue
            payload = yield Recv(sender, ("ea", s, c))
            c_got, pa, pb, vals = payload
            assert c_got == c
            apply_fn(pa, pb, vals)
        # Free the child holding once its parent consumed it.
        if dc.is_seq and c in seq_updates:
            update, _ = seq_updates.pop(c)
            freed += update.size
        elif not dc.is_seq and c in dist_updates:
            lf = dist_updates.pop(c)
            freed += sum(
                b.size
                for (bi, bj), b in lf.blocks.items()
                if bi >= lf.d.npb and bj >= lf.d.npb
            )
    return freed


# ---------------------------------------------------------------------------
# sequential supernode step
# ---------------------------------------------------------------------------


def _seq_step(plan, s, me, num, data, seq_updates, dist_updates):
    sym = plan.sym
    d = plan.dist[s]
    rows = sym.sn_rows[s]
    m = rows.size
    w = d.width
    front = assemble_lu_front(num.scatter, s, m)
    live_delta = m * m

    def apply_fn(pa, pb, vals):
        np.add.at(front, (pa, pb), vals)

    freed = yield from _receive_contributions(
        plan, s, me, num.lower_only, apply_fn, seq_updates, dist_updates
    )
    live_delta -= freed

    flops = dense_partial_factor_flops(m, w)
    mem_bytes = 8.0 * (m * w + m * m - (m - w) ** 2)
    if num.method == "cholesky":
        partial_cholesky(front, w)
    elif num.method == "ldlt":
        data.seq_diag[s] = partial_ldlt(front, w)
    else:
        _partial_lu(front, w, num.perturb_abs, d.c0, data.perturbed)
        flops *= 2
        mem_bytes = 8.0 * m * m
    yield Compute(flops=flops, front_order=m, mem_bytes=mem_bytes)
    data.flops += flops
    prof = active_profile()
    if prof is not None:
        prof.add_sim_flops(s, flops)

    panel = front[:, :w].copy()
    data.seq_panels[s] = panel
    data.factor_entries += panel.size
    if not num.lower_only:
        data.seq_upanels[s] = front[:w, w:].copy()
        data.factor_entries += data.seq_upanels[s].size
    if m > w:
        seq_updates[s] = (front[w:, w:].copy(), rows[w:])
        live_delta += (m - w) ** 2
        yield from _send_update_to_parent(
            plan, s, me, num.lower_only, seq_updates, dist_updates
        )
    live_delta -= m * m  # front released (panel accounted in factor entries)
    return live_delta


# ---------------------------------------------------------------------------
# distributed supernode step
# ---------------------------------------------------------------------------


def _dist_step(plan, s, me, num, data, seq_updates, dist_updates):
    method = num.method
    full = not num.lower_only
    d = plan.dist[s]
    grid = d.grid
    nb = plan.opts.nb
    myr, myc = grid.coords(me)
    sub = Comm(me, d.group, ctx=("sn", s))
    row_comm = Comm(me, grid.row_members(myr), ctx=("sn", s, "row", myr))
    col_comm = Comm(me, grid.col_members(myc), ctx=("sn", s, "col", myc))

    lf = LocalFront(d, me, lower_only=num.lower_only)
    live_delta = lf.entries
    step_flops = 0.0
    n_assembled = assemble_dist_entries(plan, s, me, lf, num.scatter)
    yield Compute(mem_bytes=16.0 * n_assembled)

    freed = yield from _receive_contributions(
        plan, s, me, num.lower_only, lf.add_entries, seq_updates, dist_updates
    )
    live_delta -= freed

    # Blocked right-looking partial factorization over pivot block-columns.
    nblocks = d.nblocks
    for k in range(d.npb):
        kb = int(d.starts[k + 1] - d.starts[k])
        diag_owner = grid.owner(k, k)
        diag_payload = None
        diag_d = None
        if me == diag_owner:
            blk = lf.block(k, k)
            f = dense_partial_factor_flops(kb, kb)
            if method == "cholesky":
                cholesky_in_place(blk, block=nb)
            elif method == "ldlt":
                diag_d = ldlt_in_place(blk)
            else:
                col0 = d.c0 + int(d.starts[k])
                _partial_lu(blk, kb, num.perturb_abs, col0, data.perturbed)
                f *= 2
            yield Compute(flops=f, front_order=kb)
            data.flops += f
            step_flops += f
            diag_payload = (blk, diag_d)
        # Diagonal factor broadcast down its grid column (panel owners);
        # LU also sends it along its grid row (U panel owners).
        lkk = None
        if myc == k % grid.gc:
            lkk, diag_d = yield from col_comm.bcast(diag_payload, root=k % grid.gr)
        if full and myr == k % grid.gr:
            lkk, _ = yield from row_comm.bcast(diag_payload, root=k % grid.gc)
        # LDLᵀ pivots reach everyone (needed in the trailing update).
        if method == "ldlt":
            diag_d = yield from sub.bcast(
                diag_d, root=d.group.index(diag_owner)
            )
            if me == diag_owner:
                data.dist_diag.setdefault(s, {})

        # Panel solves on my blocks (i, k), i > k, and for LU (k, j), j > k.
        panel_flops = 0
        if myc == k % grid.gc:
            for bi in range(k + 1, nblocks):
                if not lf.owns(bi, k):
                    continue
                pblk = lf.block(bi, k)
                if method == "cholesky":
                    _trsm_right_lower_transpose(lkk, pblk)
                elif method == "ldlt":
                    _trsm_right_unit_lower_transpose(lkk, pblk)
                    pblk /= diag_d[None, :]
                else:
                    # B <- B U_kk^{-1}: U_kk is the transpose of a lower factor.
                    _trsm_right_lower_transpose(lkk.T, pblk)
                panel_flops += trsm_flops(pblk.shape[0], kb)
        if full and myr == k % grid.gr:
            for bj in range(k + 1, nblocks):
                if lf.owns(k, bj):
                    ublk = lf.block(k, bj)
                    solve_unit_lower_inplace(lkk, ublk)
                    panel_flops += trsm_flops(ublk.shape[1], kb)
        if panel_flops:
            yield Compute(flops=panel_flops, front_order=nb)
            data.flops += panel_flops
            step_flops += panel_flops

        # Panel broadcasts: L_ik along grid row i (left operand). The right
        # operand of a symmetric front is L_jk again, sent down grid column j
        # from the freshly informed diagonal-row rank (the ScaLAPACK
        # pipeline); an LU front sends U_kj down grid column j.
        row_l: dict[int, np.ndarray] = {}
        col_r: dict[int, np.ndarray] = {}
        for bi in range(k + 1, nblocks):
            if myr == bi % grid.gr:
                payload = lf.block(bi, k) if myc == k % grid.gc else None
                row_l[bi] = yield from row_comm.bcast(payload, root=k % grid.gc)
            if not full and myc == bi % grid.gc:
                payload = row_l.get(bi) if myr == bi % grid.gr else None
                col_r[bi] = yield from col_comm.bcast(payload, root=bi % grid.gr)
        if full:
            for bj in range(k + 1, nblocks):
                if myc == bj % grid.gc:
                    payload = lf.block(k, bj) if myr == k % grid.gr else None
                    col_r[bj] = yield from col_comm.bcast(payload, root=k % grid.gr)

        # Trailing update on my blocks (a, b) with a, b > k.
        upd_flops = 0
        for (a, b), blk in lf.blocks.items():
            if a <= k or b <= k:
                continue
            la = row_l.get(a)
            rb = col_r.get(b)
            if la is None or rb is None:
                # Defensive: ownership implies membership in both bcasts.
                raise AssertionError(
                    f"rank {me} missing panel blocks for update ({a},{b})"
                )
            if method == "cholesky":
                blk -= la @ rb.T
            elif method == "ldlt":
                blk -= (la * diag_d[None, :]) @ rb.T
            else:
                blk -= la @ rb
            upd_flops += gemm_flops(blk.shape[0], blk.shape[1], kb)
        if upd_flops:
            yield Compute(flops=upd_flops, front_order=nb)
            data.flops += upd_flops
            step_flops += upd_flops

    # Solve-ready redistribution: gather panel row-blocks to row owners.
    yield from _solve_redistribution(plan, s, me, lf, data, method)

    # Keep the trailing blocks as this rank's share of s's update, send
    # remote shares toward the parent.
    has_update = d.m > d.width
    if has_update:
        dist_updates[s] = lf
        yield from _send_update_to_parent(
            plan, s, me, num.lower_only, seq_updates, dist_updates
        )
        # Pivot-panel blocks were copied out by the redistribution; drop
        # them from the live count.
        live_delta -= sum(
            b.size
            for (bi, bj), b in lf.blocks.items()
            if min(bi, bj) < d.npb
        )
    else:
        live_delta -= lf.entries
    prof = active_profile()
    if prof is not None:
        prof.add_sim_flops(s, step_flops)
    return live_delta


def _solve_redistribution(plan, s, me, lf: LocalFront, data, method):
    """Gather the factored panel's row-blocks onto their solve owners.

    Every block outside the trailing update region moves: the pivot
    column blocks and, for LU, the U blocks right of the pivot block, so
    an LU pivot row arrives full width.
    """
    d = plan.dist[s]
    grid = d.grid
    # Outgoing: my panel blocks grouped by destination row owner.
    outgoing: dict[int, dict[int, list]] = {}
    for (bi, bj), blk in lf.blocks.items():
        if min(bi, bj) >= d.npb:
            continue
        dest = d.row_owner(bi)
        outgoing.setdefault(dest, {}).setdefault(bi, []).append((bj, blk))
    for dest in sorted(outgoing):
        if dest == me:
            continue
        payload = outgoing[dest]
        nbytes = sum(
            blk.nbytes for blocks in payload.values() for _, blk in blocks
        )
        yield Send(dest, ("sredist", s), payload, nbytes=nbytes + 64)

    # Incoming: assemble full rows for the row blocks I own.
    full_rows = method == "lu"
    my_rows = [bi for bi in range(d.nblocks) if d.row_owner(bi) == me]
    assembled: dict[int, np.ndarray] = {}
    expected: set[int] = set()
    for bi in my_rows:
        r0, r1 = d.block_range(bi)
        if full_rows and bi < d.npb:
            assembled[bi] = np.zeros((r1 - r0, d.m))
            row_blocks = range(d.nblocks)
        else:
            assembled[bi] = np.zeros((r1 - r0, d.width))
            row_blocks = range(min(bi + 1, d.npb))
        for bj in row_blocks:
            owner = grid.owner(bi, bj)
            if owner != me:
                expected.add(owner)
    # Fill from local blocks.
    local = outgoing.get(me, {})
    for bi, pieces in local.items():
        for bj, blk in pieces:
            c0, c1 = d.block_range(bj)
            assembled[bi][:, c0:c1] = blk
    # Receive the rest (one message per sender).
    for sender in sorted(expected):
        payload = yield Recv(sender, ("sredist", s))
        for bi, pieces in payload.items():
            for bj, blk in pieces:
                c0, c1 = d.block_range(bj)
                assembled[bi][:, c0:c1] = blk

    if assembled:
        data.dist_row_panels[s] = assembled
        data.factor_entries += sum(a.size for a in assembled.values())
        if method == "ldlt":
            diag_map = data.dist_diag.setdefault(s, {})
            for bi in my_rows:
                if bi < d.npb:
                    r0, _ = d.block_range(bi)
                    rows_arr = assembled[bi]
                    # Diagonal entries of the pivot block hold D.
                    local_idx = np.arange(rows_arr.shape[0])
                    diag_map[bi] = rows_arr[local_idx, r0 + local_idx]
