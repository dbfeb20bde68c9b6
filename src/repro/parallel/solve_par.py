"""Distributed supernodal triangular solves.

The solve mirrors the multifrontal structure: right-hand-side "update
vectors" flow up the assembly tree during the forward sweep (fan-in) and
solution values flow back down during the backward sweep (fan-out).

Distributed supernodes operate on the solve-ready row-block layout produced
at factorization time: row block ``bi`` of a front lives on
``group[bi % g]``. Pivot solves proceed block-by-block with the computed
segment broadcast to the group; update rows are then purely local dgemvs.

The solve performs ~2 flops per factor entry — far lower arithmetic
intensity than factorization — so its simulated scaling rolls off earlier,
which is exactly the behaviour the paper family reports (bench T5).

The LU factor (``method="lu"``) runs the same fan-in and fan-out: its
forward sweep is the unit-lower one of LDLᵀ; its backward sweep solves
with U over the full-width pivot rows the factorization redistributed.
"""

from __future__ import annotations

import numpy as np

from repro.dense.trsm import (
    solve_lower_inplace,
    solve_lower_transpose_inplace,
    solve_unit_lower_inplace,
    solve_unit_lower_transpose_inplace,
)
from repro.parallel.factor_par import RankFactorData
from repro.parallel.plan import FactorPlan
from repro.simmpi.comm import Comm
from repro.simmpi.ops import Compute, Recv, Send


# ---------------------------------------------------------------------------
# routing helpers (pure functions of the plan)
# ---------------------------------------------------------------------------


def _solve_sender(plan: FactorPlan, c: int, cb: int) -> int:
    dc = plan.dist[c]
    if dc.is_seq:
        return dc.group[0]
    return dc.row_owner(cb)


def _solve_dest(plan: FactorPlan, parent: int, pb: int) -> int:
    dp = plan.dist[parent]
    if dp.is_seq:
        return dp.group[0]
    return dp.row_owner(pb)


def solve_pairs(plan: FactorPlan, c: int) -> set[tuple[int, int]]:
    """Nonempty (sender, dest) pairs for the rhs fan-in of child *c* into
    its parent (reversed for the backward fan-out)."""
    parent = int(plan.sym.sn_parent[c])
    pairs = set()
    for _i0, _i1, cb, pb in plan.ea_runs(c):
        pairs.add((_solve_sender(plan, c, cb), _solve_dest(plan, parent, pb)))
    return pairs


def _pack_up(plan, c, me, u_getter):
    """Pack this rank's rhs contributions of child *c* for the parent.

    *u_getter(i0, i1)* returns the child-update-local segment of u.
    Returns dest -> (parent_positions, values).
    """
    parent = int(plan.sym.sn_parent[c])
    pa = plan.parent_positions(c)
    out: dict[int, list] = {}
    for i0, i1, cb, pb in plan.ea_runs(c):
        if _solve_sender(plan, c, cb) != me:
            continue
        dest = _solve_dest(plan, parent, pb)
        out.setdefault(dest, []).append((pa[i0:i1], u_getter(i0, i1)))
    return {
        dest: (
            np.concatenate([p[0] for p in pieces]),
            np.concatenate([p[1] for p in pieces]),
        )
        for dest, pieces in out.items()
    }


def _pack_down(plan, c, me, x_getter):
    """Pack parent-side x values needed by child *c*'s solve owners.

    *x_getter(parent_positions)* returns x at those parent-local positions.
    Returns dest -> (child_update_positions, values).
    """
    pa = plan.parent_positions(c)
    parent = int(plan.sym.sn_parent[c])
    out: dict[int, list] = {}
    for i0, i1, cb, pb in plan.ea_runs(c):
        if _solve_dest(plan, parent, pb) != me:
            continue  # in backward the parent-side owner is the sender
        dest = _solve_sender(plan, c, cb)
        out.setdefault(dest, []).append(
            (np.arange(i0, i1, dtype=np.int64), x_getter(pa[i0:i1]))
        )
    return {
        dest: (
            np.concatenate([p[0] for p in pieces]),
            np.concatenate([p[1] for p in pieces]),
        )
        for dest, pieces in out.items()
    }


# ---------------------------------------------------------------------------
# the solve rank program
# ---------------------------------------------------------------------------


def make_solve_program(plan: FactorPlan, datas: list[RankFactorData], bp: np.ndarray, method: str):
    """Build the solve rank program.

    Parameters
    ----------
    datas
        Per-rank factor data from the factorization simulation (each rank
        reads only its own entry).
    bp
        Right-hand side in *permuted* order; assumed pre-distributed (each
        rank reads only the entries of rows it owns).
    """

    tail = bp.shape[1:]  # () for one RHS, (k,) for k right-hand sides

    def program(comm: Comm):
        me = comm.world_rank
        data = datas[me]
        sym = plan.sym
        my_sns = plan.supernodes_for_rank(me)

        # ------------------------------------------------------ forward --
        # Per-supernode rhs state this rank holds:
        #   seq: y_piv (after L11 solve), u vector
        #   dist: y segments per owned row block
        fwd_piv: dict[int, np.ndarray] = {}
        fwd_useg: dict[int, dict[int, np.ndarray]] = {}
        seq_u: dict[int, np.ndarray] = {}
        flops = 0.0

        for s in my_sns:
            d = plan.dist[s]
            if d.is_seq:
                flops += yield from _fwd_seq(
                    plan, s, me, data, bp, method, fwd_piv, seq_u, fwd_useg, comm
                )
            else:
                flops += yield from _fwd_dist(
                    plan, s, me, data, bp, method, fwd_piv, seq_u, fwd_useg, comm
                )

        # ----------------------------------------------------- backward --
        x_piv: dict[int, np.ndarray] = {}
        x_useg: dict[int, dict[int, np.ndarray]] = {}
        seq_xupd: dict[int, np.ndarray] = {}

        for s in reversed(my_sns):
            d = plan.dist[s]
            if d.is_seq:
                flops += yield from _bwd_seq(
                    plan, s, me, data, method, fwd_piv, x_piv, seq_xupd, x_useg, comm
                )
            else:
                flops += yield from _bwd_dist(
                    plan, s, me, data, method, fwd_piv, x_piv, seq_xupd, x_useg, comm
                )

        # Return owned solution segments: (global rows, values) pieces.
        pieces: list[tuple[np.ndarray, np.ndarray]] = []
        for s, xp in x_piv.items():
            d = plan.dist[s]
            rows = sym.sn_rows[s]
            if d.is_seq:
                pieces.append((rows[: d.width], xp))
        for s in my_sns:
            d = plan.dist[s]
            if d.is_seq:
                continue
            rows = sym.sn_rows[s]
            for bi in range(d.npb):
                if d.row_owner(bi) == me and (s, bi) in _dist_xpiv:
                    r0, r1 = d.block_range(bi)
                    pieces.append((rows[r0:r1], _dist_xpiv[(s, bi)]))
        return pieces, flops

    # Stash for distributed pivot segments (keyed (s, block)); lives in the
    # closure so the helpers below can fill it.
    _dist_xpiv: dict[tuple[int, int], np.ndarray] = {}

    # -- forward helpers ---------------------------------------------------

    def _fwd_seq(plan, s, me, data, bp, method, fwd_piv, seq_u, fwd_useg, comm):
        sym = plan.sym
        d = plan.dist[s]
        rows = sym.sn_rows[s]
        m, w = rows.size, d.width
        f = np.zeros((m,) + tail)
        f[:w] = bp[rows[:w]]
        yield from _recv_up(plan, s, me, f, seq_u, fwd_useg)
        panel = data.seq_panels[s]
        piv = f[:w]
        if method == "cholesky":
            solve_lower_inplace(panel[:w, :], piv)
        else:
            solve_unit_lower_inplace(panel[:w, :], piv)
        fwd_piv[s] = piv
        fl = float(w * w + 2 * (m - w) * w)
        yield Compute(flops=fl, front_order=max(w, 8))
        if m > w:
            u = f[w:] - panel[w:, :] @ piv
            seq_u[s] = u
            yield from _send_up(plan, s, me, seq_u, fwd_useg)
        return fl

    def _fwd_dist(plan, s, me, data, bp, method, fwd_piv, seq_u, fwd_useg, comm):
        sym = plan.sym
        d = plan.dist[s]
        rows = sym.sn_rows[s]
        g = len(d.group)
        sub = Comm(me, d.group, ctx=("slv", s))
        panels = data.dist_row_panels.get(s, {})
        my_blocks = [bi for bi in range(d.nblocks) if d.row_owner(bi) == me]
        f: dict[int, np.ndarray] = {}
        for bi in my_blocks:
            r0, r1 = d.block_range(bi)
            seg = np.zeros((r1 - r0,) + tail)
            if bi < d.npb:
                seg += bp[rows[r0:r1]]
            f[bi] = seg

        def apply(pa_idx, vals):
            bis = d.block_of(pa_idx)
            for bi in np.unique(bis):
                sel = bis == bi
                r0 = int(d.starts[bi])
                np.add.at(f[int(bi)], pa_idx[sel] - r0, vals[sel])

        yield from _recv_up_dist(plan, s, me, apply, seq_u, fwd_useg)

        # Pivot block substitution with segment broadcasts.
        x_piv_full = np.zeros((d.width,) + tail)
        fl = 0.0
        for k in range(d.npb):
            r0, r1 = d.block_range(k)
            owner = d.row_owner(k)
            if owner == me:
                rowsk = panels[k]  # (r1-r0, w)
                seg = f[k]
                if k > 0:
                    seg = seg - rowsk[:, :r0] @ x_piv_full[:r0]
                diag = rowsk[:, r0:r1]
                if method == "cholesky":
                    solve_lower_inplace(diag, seg)
                else:
                    solve_unit_lower_inplace(diag, seg)
                fl += (r1 - r0) * (r0 + (r1 - r0))
                payload = seg
            else:
                payload = None
            seg = yield from sub.bcast(payload, root=k % g)
            x_piv_full[r0:r1] = seg
            if owner == me:
                fwd_piv.setdefault(s, np.zeros((d.width,) + tail))
                f[k] = seg  # store forward-solved pivot segment
        if d.npb:
            yield Compute(flops=fl, front_order=plan.opts.nb)
        fwd_piv[s] = x_piv_full  # full forward-solved pivot vector
        # Update rows: local dgemv per owned block.
        ufl = 0.0
        for bi in my_blocks:
            if bi < d.npb:
                continue
            f[bi] = f[bi] - panels[bi] @ x_piv_full
            ufl += 2.0 * panels[bi].shape[0] * d.width
        if ufl:
            yield Compute(flops=ufl, front_order=plan.opts.nb)
        fwd_useg[s] = {bi: f[bi] for bi in my_blocks}
        if d.m > d.width:
            yield from _send_up(plan, s, me, seq_u, fwd_useg)
        return fl + ufl

    def _u_getter(s, seq_u, fwd_useg):
        """u_getter of :func:`_pack_up` over supernode s's update vector."""
        d = plan.dist[s]
        if d.is_seq:
            u = seq_u[s]

            def getter(i0, i1):
                return u[i0:i1]

        else:
            segs = fwd_useg[s]

            def getter(i0, i1):
                fa0 = i0 + d.width
                bi = int(d.block_of(np.asarray([fa0]))[0])
                r0 = int(d.starts[bi])
                return segs[bi][fa0 - r0: fa0 - r0 + (i1 - i0)]

        return getter

    def _x_getter(s, x_piv, seq_xupd, x_useg):
        """x_getter of :func:`_pack_down` over supernode s's solution."""
        d = plan.dist[s]
        xp = x_piv[s]
        if d.is_seq:
            xu = seq_xupd[s]

            def getter(pa_idx):
                out = np.empty((pa_idx.size,) + tail)
                piv = pa_idx < d.width
                out[piv] = xp[pa_idx[piv]]
                out[~piv] = xu[pa_idx[~piv] - d.width]
                return out

        else:
            xsegs = x_useg[s]

            def getter(pa_idx):
                out = np.empty((pa_idx.size,) + tail)
                piv = pa_idx < d.width
                out[piv] = xp[pa_idx[piv]]
                rest = pa_idx[~piv]
                if rest.size:
                    bis = d.block_of(rest)
                    vals = np.empty((rest.size,) + tail)
                    for bi in np.unique(bis):
                        sel = bis == bi
                        r0 = int(d.starts[bi])
                        vals[sel] = xsegs[int(bi)][rest[sel] - r0]
                    out[~piv] = vals
                return out

        return getter

    def _send_up(plan, s, me, seq_u, fwd_useg):
        parent = int(plan.sym.sn_parent[s])
        if parent < 0:
            return
        packed = _pack_up(plan, s, me, _u_getter(s, seq_u, fwd_useg))
        for dest in sorted(packed):
            if dest == me:
                continue
            pa_idx, vals = packed[dest]
            yield Send(
                dest,
                ("su", parent, s),
                (pa_idx, vals),
                nbytes=12 * vals.size + 64,
            )

    def _recv_up(plan, s, me, f, seq_u, fwd_useg):
        """Sequential-front version: scatter into the dense f vector."""

        def apply(pa_idx, vals):
            np.add.at(f, pa_idx, vals)

        yield from _recv_up_dist(plan, s, me, apply, seq_u, fwd_useg)

    def _recv_up_dist(plan, s, me, apply, seq_u, fwd_useg):
        for c in plan.sym.sn_children[s]:
            pairs = solve_pairs(plan, c)
            senders = sorted({src for src, dst in pairs if dst == me})
            if me in senders:
                packed = _pack_up(plan, c, me, _u_getter(c, seq_u, fwd_useg))
                if me in packed:
                    apply(*packed[me])
            for sender in senders:
                if sender == me:
                    continue
                pa_idx, vals = yield Recv(sender, ("su", s, c))
                apply(pa_idx, vals)

    # -- backward helpers ----------------------------------------------------

    def _bwd_seq(plan, s, me, data, method, fwd_piv, x_piv, seq_xupd, x_useg, comm):
        sym = plan.sym
        d = plan.dist[s]
        rows = sym.sn_rows[s]
        m, w = rows.size, d.width
        panel = data.seq_panels[s]
        rhs = fwd_piv[s].copy()
        if method == "ldlt":
            rhs /= data.seq_diag[s].reshape((-1,) + (1,) * len(tail))
        xu = np.zeros((m - w,) + tail)
        yield from _recv_down(plan, s, me, xu, x_piv, seq_xupd, x_useg)
        fl = float(w * w + 2 * (m - w) * w)
        if m > w:
            if method == "lu":
                rhs -= data.seq_upanels[s] @ xu
            else:
                rhs -= panel[w:, :].T @ xu
        if method == "cholesky":
            solve_lower_transpose_inplace(panel[:w, :], rhs)
        elif method == "ldlt":
            solve_unit_lower_transpose_inplace(panel[:w, :], rhs)
        else:
            # U x = rhs with U the upper triangle of the packed LU block.
            solve_lower_transpose_inplace(panel[:w, :].T, rhs)
        x_piv[s] = rhs
        seq_xupd[s] = xu
        yield Compute(flops=fl, front_order=max(w, 8))
        # Fan x values out to the children.
        yield from _send_down(plan, s, me, x_piv, seq_xupd, x_useg)
        return fl

    def _bwd_dist(plan, s, me, data, method, fwd_piv, x_piv, seq_xupd, x_useg, comm):
        d = plan.dist[s]
        sub = Comm(me, d.group, ctx=("slvb", s))
        panels = data.dist_row_panels.get(s, {})
        my_blocks = [bi for bi in range(d.nblocks) if d.row_owner(bi) == me]

        # 1. Receive x for my update row blocks from the parent.
        xseg: dict[int, np.ndarray] = {}
        for bi in my_blocks:
            if bi >= d.npb:
                r0, r1 = d.block_range(bi)
                xseg[bi] = np.zeros((r1 - r0,) + tail)

        def apply(upd_idx, vals):
            fa = upd_idx + d.width
            bis = d.block_of(fa)
            for bi in np.unique(bis):
                sel = bis == bi
                r0 = int(d.starts[bi])
                xseg[int(bi)][fa[sel] - r0] = vals[sel]

        yield from _recv_down_dist(plan, s, me, apply, x_piv, seq_xupd, x_useg)
        if method == "lu":
            x_piv_full, fl = yield from _bwd_pivots_lu(
                plan, s, me, sub, panels, xseg, fwd_piv[s]
            )
        else:
            x_piv_full, fl = yield from _bwd_pivots_sym(
                plan, s, me, sub, data, method, panels, xseg, fwd_piv[s]
            )
        x_piv[s] = x_piv_full
        x_useg[s] = xseg
        yield from _send_down(plan, s, me, x_piv, seq_xupd, x_useg)
        return fl

    def _bwd_pivots_sym(plan, s, me, sub, data, method, panels, xseg, yvec):
        """Cholesky/LDLᵀ pivot sweep: Lᵀ over the w-wide pivot rows, with
        direct correction sends between pivot-block owners."""
        d = plan.dist[s]
        g = len(d.group)
        # 2. Update-row corrections z = L21ᵀ x_update, group-summed.
        z = np.zeros((d.width,) + tail)
        fl = 0.0
        for bi, xs in xseg.items():
            z += panels[bi].T @ xs
            fl += 2.0 * panels[bi].shape[0] * d.width
        if g > 1:
            z = yield from sub.allreduce(z)
        if fl:
            yield Compute(flops=fl, front_order=plan.opts.nb)

        # 3. Pivot backward substitution, descending blocks, with direct
        # correction sends o_j -> o_k (k < j).
        x_piv_full = np.zeros((d.width,) + tail)
        corrections: dict[int, np.ndarray] = {}
        diag_map = data.dist_diag.get(s, {})
        for k in range(d.npb - 1, -1, -1):
            owner = d.row_owner(k)
            # Receive corrections from later pivot-block owners.
            if owner == me:
                r0, r1 = d.block_range(k)
                rhs = yvec[r0:r1].copy()
                if method == "ldlt":
                    rhs /= diag_map[k].reshape((-1,) + (1,) * len(tail))
                rhs -= z[r0:r1]
                if k in corrections:
                    rhs -= corrections.pop(k)
                for j in range(d.npb - 1, k, -1):
                    if d.row_owner(j) != me:
                        vals = yield Recv(d.row_owner(j), ("bcorr", s, j, k))
                        rhs -= vals
                rowsk = panels[k]
                diag = rowsk[:, r0:r1]
                if method == "ldlt":
                    solve_unit_lower_transpose_inplace(diag, rhs)
                else:
                    solve_lower_transpose_inplace(diag, rhs)
                x_piv_full[r0:r1] = rhs
                _dist_xpiv[(s, k)] = rhs
                # Send corrections to earlier pivot owners.
                for kk in range(k):
                    rr0, rr1 = d.block_range(kk)
                    contrib = rowsk[:, rr0:rr1].T @ rhs
                    tgt = d.row_owner(kk)
                    if tgt == me:
                        if kk in corrections:
                            corrections[kk] += contrib
                        else:
                            corrections[kk] = contrib
                    else:
                        yield Send(tgt, ("bcorr", s, k, kk), contrib)
                if k:
                    yield Compute(
                        flops=2.0 * (r1 - r0) * r0, front_order=plan.opts.nb
                    )
        # Broadcast assembled x_piv so every member can serve children.
        if g > 1:
            # Gather piecewise: owners hold their segments; share via
            # allreduce of the (sparse) full vector — w is small.
            x_piv_full = yield from sub.allreduce(x_piv_full)
        return x_piv_full, fl

    def _bwd_pivots_lu(plan, s, me, sub, panels, xseg, yvec):
        """LU pivot sweep: U over the full-width pivot rows. The update-row
        solution is summed over the group once; each pivot-block owner then
        solves its rows and broadcasts the segment."""
        d = plan.dist[s]
        w = d.width
        mu = d.m - w
        xu_full = np.zeros((mu,) + tail)
        for bi, seg in xseg.items():
            r0, _ = d.block_range(bi)
            xu_full[r0 - w: r0 - w + seg.shape[0]] = seg
        if len(d.group) > 1 and mu:
            xu_full = yield from sub.allreduce(xu_full)
        x_piv_full = np.zeros((w,) + tail)
        fl = 0.0
        for k in range(d.npb - 1, -1, -1):
            r0, r1 = d.block_range(k)
            owner = d.row_owner(k)
            if owner == me:
                arr = panels[k]
                rhs = yvec[r0:r1].copy()
                if r1 < w:
                    rhs -= arr[:, r1:w] @ x_piv_full[r1:]
                if mu:
                    rhs -= arr[:, w:] @ xu_full
                solve_lower_transpose_inplace(arr[:, r0:r1].T, rhs)
                fl += (r1 - r0) * (d.m - r0)
                payload = rhs
            else:
                payload = None
            seg = yield from sub.bcast(payload, root=k % len(d.group))
            x_piv_full[r0:r1] = seg
            if owner == me:
                _dist_xpiv[(s, k)] = seg
        if d.npb:
            yield Compute(flops=fl, front_order=plan.opts.nb)
        return x_piv_full, fl

    def _send_down(plan, s, me, x_piv, seq_xupd, x_useg):
        # Backward: parent-side owner sends, child-side owner receives.
        x_getter = _x_getter(s, x_piv, seq_xupd, x_useg)
        for c in plan.sym.sn_children[s]:
            packed = _pack_down(plan, c, me, x_getter)
            for dest in sorted(packed):
                if dest == me:
                    continue
                idx, vals = packed[dest]
                yield Send(
                    dest, ("sd", s, c), (idx, vals), nbytes=12 * vals.size + 64
                )

    def _recv_down(plan, s, me, xu, x_piv, seq_xupd, x_useg):
        """Sequential child: fill the dense x_update vector."""

        def apply(upd_idx, vals):
            xu[upd_idx] = vals

        yield from _recv_down_dist(plan, s, me, apply, x_piv, seq_xupd, x_useg)

    def _recv_down_dist(plan, s, me, apply, x_piv, seq_xupd, x_useg):
        parent = int(plan.sym.sn_parent[s])
        if parent < 0:
            return
        pairs = solve_pairs(plan, s)
        # Pairs are (child_side, parent_side); backward messages flow
        # parent_side -> child_side.
        senders_to_me = sorted({dst for src, dst in pairs if src == me})
        # Parent-side local values:
        if (me, me) in pairs:
            x_getter = _x_getter(parent, x_piv, seq_xupd, x_useg)
            packed = _pack_down(plan, s, me, x_getter)
            if me in packed:
                apply(*packed[me])
        for sender in senders_to_me:
            if sender == me:
                continue
            idx, vals = yield Recv(sender, ("sd", parent, s))
            apply(idx, vals)

    return program
