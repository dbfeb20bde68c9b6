"""Bit-identity oracle for the analyze-time assembly plan.

Every factor built through the plan's scatter maps and relative indices
must be byte-for-byte the factor of the per-column ``searchsorted``
assembly plus ``tril`` extend-add the plan replaced. That reference lives
here, test-local, so the contract keeps a fixed point to compare against.
Covered: Cholesky and LDLᵀ with and without static perturbation, fp64 and
fp32, the sequential driver, the threads backend at 2 and 4 workers, the
simulated machine at p = 1 and 4, multifrontal LU, and refactor after
``update_values``. Also here: the typed errors and the sanitizer checks of
the plan itself.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.solver import SparseSolver
from repro.dense.partial_factor import partial_cholesky, partial_ldlt
from repro.exec import multifrontal_factor_threads
from repro.gen import grid2d_laplacian, grid3d_laplacian, random_spd_sparse
from repro.graph import AdjacencyGraph
from repro.machine.presets import BLUEGENE_P
from repro.mf.lu import _partial_lu, lu_analyze, multifrontal_lu
from repro.mf.numeric import NumericFactor, multifrontal_factor
from repro.ordering import nested_dissection_order
from repro.parallel.driver import simulate_factorization
from repro.parallel.plan import PlanOptions
from repro.sparse import CSCMatrix
from repro.sparse.convert import csc_to_csr
from repro.sparse.ops import full_symmetric_from_lower
from repro.symbolic import analyze
from repro.symbolic.assembly import narrow_index
from repro.util.errors import InvariantError
from repro.util.validation import work_dtype

#: static-perturbation threshold that perturbs pivots of the generated
#: diagonally dominant matrices (relative to the largest diagonal entry)
PERTURB = 0.8


# -- the replaced code path, kept as the oracle -------------------------------


def _positions(front_rows, rows):
    pos = np.searchsorted(front_rows, rows)
    assert np.array_equal(front_rows[pos], rows)
    return pos


def reference_factor(sym, method="cholesky", pivot_perturbation=None, precision="fp64"):
    """Per-column searchsorted assembly, ``tril`` extend-add in the parent."""
    dtype = work_dtype(precision)
    a = sym.permuted_lower
    perturb_abs = None
    if pivot_perturbation is not None:
        scale = float(np.max(np.abs(a.diagonal()), initial=0.0))
        perturb_abs = pivot_perturbation * max(scale, 1.0)
    blocks, perturbed, updates = [], [], {}
    diag = np.empty(sym.n, dtype=dtype) if method == "ldlt" else None
    for s in range(sym.n_supernodes):
        rows = sym.sn_rows[s]
        w = sym.supernode_width(s)
        c0 = int(sym.partition.sn_start[s])
        m = rows.size
        front = np.zeros((m, m), dtype=dtype)
        for k in range(w):
            j = c0 + k
            r, v = a.col(j)
            keep = r >= j
            front[_positions(rows, r[keep]), k] = v[keep]
        for c in sym.sn_children[s]:
            upd, upd_rows = updates.pop(c)
            ix = _positions(rows, upd_rows)
            front[np.ix_(ix, ix)] += np.tril(upd)
        if method == "cholesky":
            partial_cholesky(front, w)
        else:
            diag[c0: c0 + w] = partial_ldlt(
                front, w, perturb=perturb_abs, col_offset=c0, perturbed=perturbed
            )
        blocks.append(front[:, :w].copy())
        if m > w:
            updates[s] = (front[w:, w:].copy(), rows[w:])
    return NumericFactor(
        sym=sym, method=method, blocks=blocks, diag=diag,
        perturbed_columns=tuple(perturbed), precision=precision,
    )


def reference_lu(sym, permuted_full, pivot_perturbation=None):
    """Per-column LU assembly of pivot columns and rows, full extend-add."""
    a_rows = csc_to_csr(permuted_full)
    perturb_abs = None
    if pivot_perturbation is not None:
        scale = float(np.max(np.abs(permuted_full.data), initial=0.0))
        perturb_abs = pivot_perturbation * max(scale, 1.0)
    panels, perturbed, updates = [], [], {}
    for s in range(sym.n_supernodes):
        rows = sym.sn_rows[s]
        w = sym.supernode_width(s)
        c0 = int(sym.partition.sn_start[s])
        m = rows.size
        front = np.zeros((m, m))
        for k in range(w):
            j = c0 + k
            r, v = permuted_full.col(j)
            keep = r >= j
            front[_positions(rows, r[keep]), k] = v[keep]
            c, v = a_rows.row(j)
            keep = c > j
            front[k, _positions(rows, c[keep])] = v[keep]
        for c in sym.sn_children[s]:
            upd, upd_rows = updates.pop(c)
            ix = _positions(rows, upd_rows)
            front[np.ix_(ix, ix)] += upd
        _partial_lu(front, w, perturb_abs, c0, perturbed)
        panels.append((front[:w, :w].copy(), front[w:, :w].copy(), front[:w, w:].copy()))
        if m > w:
            updates[s] = (front[w:, w:].copy(), rows[w:])
    return panels, tuple(perturbed)


# -- helpers -------------------------------------------------------------------


def assert_same_factor(got, ref):
    assert len(got.blocks) == len(ref.blocks)
    for s, (g, r) in enumerate(zip(got.blocks, ref.blocks)):
        assert g.dtype == r.dtype and g.shape == r.shape, s
        assert g.tobytes() == r.tobytes(), f"block {s} differs"
    if ref.diag is None:
        assert got.diag is None
    else:
        assert got.diag.tobytes() == ref.diag.tobytes()
    assert got.perturbed_columns == ref.perturbed_columns


def _problem(n, degree, seed):
    lower = random_spd_sparse(n, degree, seed=seed)
    perm = np.random.default_rng(seed).permutation(n)
    return lower, perm


problems = st.tuples(
    st.integers(1, 30), st.floats(0.5, 6.0), st.integers(0, 2**31 - 1)
)
factor_modes = st.sampled_from(
    [("cholesky", None), ("ldlt", None), ("ldlt", PERTURB)]
)
precisions = st.sampled_from(["fp64", "fp32"])


# -- the oracle ----------------------------------------------------------------


@pytest.mark.exec
@settings(max_examples=30, deadline=None)
@given(problem=problems, mode=factor_modes, precision=precisions)
def test_seq_and_threads_match_reference(problem, mode, precision):
    lower, perm = _problem(*problem)
    sym = analyze(lower, perm)
    method, pert = mode
    ref = reference_factor(sym, method, pert, precision)
    got = multifrontal_factor(
        sym, method=method, pivot_perturbation=pert, precision=precision
    )
    assert_same_factor(got, ref)
    for workers in (2, 4):
        thr = multifrontal_factor_threads(
            sym, method=method, pivot_perturbation=pert, workers=workers,
            precision=precision,
        )
        assert_same_factor(thr, ref)


@settings(max_examples=15, deadline=None)
@given(problem=problems, method=st.sampled_from(["cholesky", "ldlt"]))
def test_simulated_matches_reference(problem, method):
    lower, perm = _problem(*problem)
    sym = analyze(lower, perm)
    ref = reference_factor(sym, method).to_dense_l()
    for p in (1, 4):
        # One block per front: the distributed fronts run the sequential
        # operation order, so the factor is bitwise the reference.
        res = simulate_factorization(
            sym, p, BLUEGENE_P, PlanOptions(nb=64), method=method
        )
        assert res.to_dense_l().tobytes() == ref.tobytes()


@settings(max_examples=20, deadline=None)
@given(problem=problems, pert=st.sampled_from([None, 1e-8]))
def test_lu_matches_reference(problem, pert):
    lower, perm = _problem(*problem)
    dense = full_symmetric_from_lower(lower).to_dense()
    # Scale the strict upper triangle so the matrix is unsymmetric.
    skew = np.random.default_rng(problem[2]).uniform(0.5, 1.5, dense.shape)
    scale = np.triu(skew, 1) + np.tril(np.ones_like(dense))
    a_full = CSCMatrix.from_dense(dense * scale)
    sym, permuted_full = lu_analyze(a_full, perm)
    panels, perturbed = reference_lu(sym, permuted_full, pert)
    got = multifrontal_lu(sym, permuted_full, pivot_perturbation=pert)
    for s, (lu11, l21, u12) in enumerate(panels):
        assert got.lu11[s].tobytes() == lu11.tobytes(), s
        assert got.l21[s].tobytes() == l21.tobytes(), s
        assert got.u12[s].tobytes() == u12.tobytes(), s
    assert got.perturbed_columns == perturbed


@settings(max_examples=15, deadline=None)
@given(problem=problems, mode=factor_modes, precision=precisions)
def test_refactor_matches_fresh_factor(problem, mode, precision):
    lower, perm = _problem(*problem)
    method, pert = mode
    rng = np.random.default_rng(problem[2] + 1)
    drifted = CSCMatrix(
        lower.shape, lower.indptr, lower.indices,
        lower.data * rng.uniform(0.9, 1.1, lower.nnz),
    )
    solver = SparseSolver(
        lower, ordering=perm, method=method, pivot_perturbation=pert
    )
    solver.factor(precision=precision)
    again = solver.refactor(drifted, precision=precision)
    fresh = SparseSolver(
        drifted, ordering=perm, method=method, pivot_perturbation=pert
    )
    fresh.analyze()
    assert np.array_equal(fresh.sym.perm, solver.sym.perm)
    assert_same_factor(again, fresh.factor(precision=precision))
    assert_same_factor(again, reference_factor(fresh.sym, method, pert, precision))


@pytest.mark.parametrize(
    "method,pert,precision",
    [("cholesky", None, "fp64"), ("ldlt", PERTURB, "fp32")],
)
def test_wide_index_dtypes_match_reference(method, pert, precision):
    # Fronts above order 181 store int32 scatter positions and int16
    # relative indices: the widening paths the small hypothesis cases miss.
    sym = _nd_sym(grid3d_laplacian(12))
    assert any(d.dtype == np.int32 for d in sym.assembly.dst)
    assert any(r.dtype == np.int16 for r in sym.assembly.relix)
    ref = reference_factor(sym, method, pert, precision)
    got = multifrontal_factor(
        sym, method=method, pivot_perturbation=pert, precision=precision
    )
    assert_same_factor(got, ref)
    thr = multifrontal_factor_threads(
        sym, method=method, pivot_perturbation=pert, workers=2,
        precision=precision,
    )
    assert_same_factor(thr, ref)


def test_negative_zero_values_keep_their_bits():
    # The COO->CSC permutation adds every value to +0.0; the value map's
    # gather must too, or a -0.0 entry would change the factor's bits.
    lower = grid2d_laplacian(4)
    data = lower.data.copy()
    data[lower.indices != np.repeat(np.arange(16), np.diff(lower.indptr))] = -0.0
    zeroed = CSCMatrix(lower.shape, lower.indptr, lower.indices, data)
    sym = analyze(zeroed, np.arange(16))
    assert not np.signbit(sym.permuted_lower.data).any()
    solver = SparseSolver(lower, ordering=np.arange(16))
    solver.factor()
    solver.update_values(zeroed)
    assert solver.sym.permuted_lower.data.tobytes() == sym.permuted_lower.data.tobytes()


# -- the plan itself -------------------------------------------------------------


def _nd_sym(lower):
    return analyze(lower, nested_dissection_order(AdjacencyGraph.from_symmetric_lower(lower)))


def test_plan_relative_indices_reproduce_update_rows():
    sym = _nd_sym(grid3d_laplacian(5))
    plan = sym.assembly
    for c in range(sym.n_supernodes):
        p = int(sym.sn_parent[c])
        upd_rows = sym.sn_rows[c][sym.supernode_width(c):]
        if p < 0:
            assert plan.relix[c].size == 0
        else:
            assert np.array_equal(sym.sn_rows[p][plan.relix[c]], upd_rows)


def test_plan_uses_narrow_index_dtypes():
    sym = _nd_sym(grid3d_laplacian(10))
    plan = sym.assembly
    for s in range(sym.n_supernodes):
        m = sym.front_size(s)
        assert plan.dst[s].dtype == narrow_index(np.zeros(0), m * m).dtype
        p = int(sym.sn_parent[s])
        if p >= 0:
            bound = sym.front_size(p)
            assert plan.relix[s].dtype == narrow_index(np.zeros(0), bound).dtype
    assert plan.vmap.dtype == np.int16  # 3700 entries
    assert 0 < plan.nbytes <= 0.1 * 8 * sym.nnz_stored


def test_tampered_rows_raise_typed_error(monkeypatch):
    analyze_mod = importlib.import_module("repro.symbolic.analyze")

    real = analyze_mod.supernode_rows

    def drop_one_parent_row(part, patterns):
        rows = real(part, patterns)
        # Remove the root's copy of a child's last update row.
        for s in range(len(rows) - 1, -1, -1):
            if rows[s].size > part.width(s):
                rows[-1] = rows[-1][rows[-1] != rows[s][-1]]
                break
        return rows

    monkeypatch.setattr(analyze_mod, "supernode_rows", drop_one_parent_row)
    # Raised by the assembly-plan builder, typed, and not an assert.
    with pytest.raises(InvariantError, match="^assembly"):
        analyze(grid2d_laplacian(5), np.arange(25))


def _corrupt(sym, part):
    plan = sym.assembly
    if part == "dst":
        s = max(range(sym.n_supernodes), key=lambda s: plan.dst[s].size)
        bad = plan.dst[s].copy()
        bad[-1] = sym.front_size(s) ** 2  # out of range
        plan.dst[s] = bad
    elif part == "dst_upper":
        s = next(
            s for s in range(sym.n_supernodes)
            if sym.supernode_width(s) > 1 and plan.dst[s].size > 1
        )
        bad = plan.dst[s].astype(np.int64)
        bad[0] = 1  # (0, 1): above the diagonal
        plan.dst[s] = bad
    elif part == "relix":
        c = next(c for c in range(sym.n_supernodes) if plan.relix[c].size > 1)
        plan.relix[c] = plan.relix[c][::-1].copy()
    else:
        bad = plan.vmap.copy()
        bad[[0, 1]] = bad[[1, 0]]
        object.__setattr__(plan, "vmap", bad)


@pytest.mark.parametrize("part", ["dst", "dst_upper", "relix", "vmap"])
def test_sanitizer_catches_corrupted_map(part):
    from repro.check import sanitize

    lower = grid2d_laplacian(6)
    sym = _nd_sym(lower)
    sanitize.check_symbolic(sym, lower)
    _corrupt(sym, part)
    with pytest.raises(InvariantError):
        sanitize.check_symbolic(sym, lower)
