"""Debug-mode invariant sanitizer.

Validation routines for the structures every phase of the solver shares:
CSR/CSC index arrays, permutations, elimination trees, supernode
partitions, and the multifrontal update stack. Each check raises
:class:`~repro.util.errors.InvariantError` with enough evidence (indices,
offending values) to locate the corruption.

The checks are installed into hot paths behind the ``REPRO_CHECK=1``
environment switch (see :func:`enabled` /
:func:`repro.util.validation.runtime_checks_enabled`): matrix constructors
with ``_skip_check=True`` re-validate, the analyze phase checks the full
symbolic factor, the multifrontal loop asserts frontal-stack balance, and
the simulator teardown verifies message-ledger conservation. When the
switch is off the hooks cost one predicate call — no structure is walked.

The routines are duck-typed on purpose: they accept anything with the
right attributes, so this module sits at the bottom of the dependency
graph (it imports only :mod:`numpy` and :mod:`repro.util`) and every layer
can call into it without cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Mapping

import numpy as np

from repro.util.errors import InvariantError, ReproError
from repro.util.validation import (
    check_permutation as _check_permutation,
    runtime_checks_enabled,
    set_runtime_checks,
)

__all__ = [
    "enabled",
    "sanitized",
    "check_csc",
    "check_csr",
    "check_permutation",
    "check_etree",
    "check_postordered",
    "check_partition",
    "check_symbolic",
    "check_assembly_plan",
    "check_frontal_balance",
    "check_ledger",
]

#: alias for the switch every hook consults
enabled = runtime_checks_enabled


@contextmanager
def sanitized(on: bool = True) -> Iterator[None]:
    """Context manager forcing the sanitizer switch on (or off) within a
    block; restores the previous state on exit. Test/self-test helper."""
    previous = set_runtime_checks(on)
    try:
        yield
    finally:
        set_runtime_checks(previous)


def _fail(message: str) -> "InvariantError":
    return InvariantError(f"sanitizer: {message}")


# -- compressed-format well-formedness ---------------------------------------


def check_compressed(matrix: Any, axis_name: str = "column") -> None:
    """Well-formedness of a compressed sparse matrix (CSR or CSC).

    Checks the shared invariants: ``indptr`` length/monotonicity, index
    bounds, sorted-and-unique minor indices per major slice, and
    ``data``/``indices`` parallelism. *matrix* needs ``shape``, ``indptr``,
    ``indices``, and ``data`` attributes; *axis_name* only shapes messages.
    """
    indptr = np.asarray(matrix.indptr)
    indices = np.asarray(matrix.indices)
    data = np.asarray(matrix.data)
    n_major = matrix.shape[1] if axis_name == "column" else matrix.shape[0]
    n_minor = matrix.shape[0] if axis_name == "column" else matrix.shape[1]
    if indptr.ndim != 1 or indptr.size != n_major + 1:
        raise _fail(
            f"indptr must have shape ({n_major + 1},); got {indptr.shape}"
        )
    if indptr.size and indptr[0] != 0:
        raise _fail(f"indptr[0] must be 0; got {indptr[0]}")
    steps = np.diff(indptr)
    if np.any(steps < 0):
        j = int(np.argmax(steps < 0))
        raise _fail(f"indptr decreases at {axis_name} {j}")
    if indptr.size and indptr[-1] != indices.size:
        raise _fail(
            f"indptr[-1] = {indptr[-1]} but {indices.size} indices stored"
        )
    if indices.size != data.size:
        raise _fail(
            f"{indices.size} indices but {data.size} values stored"
        )
    if indices.size:
        lo, hi = int(indices.min()), int(indices.max())
        if lo < 0 or hi >= n_minor:
            raise _fail(
                f"index entries must lie in [0, {n_minor}); got [{lo}, {hi}]"
            )
        # Sorted + unique within each major slice: a decreasing step in the
        # flat array is legal only at a slice boundary.
        flat_steps = np.diff(indices)
        boundaries = np.zeros(indices.size - 1, dtype=bool) if indices.size > 1 else None
        if boundaries is not None:
            interior = indptr[1:-1]
            boundaries[interior[(interior > 0) & (interior < indices.size)] - 1] = True
            bad = np.flatnonzero((flat_steps <= 0) & ~boundaries)
            if bad.size:
                k = int(bad[0])
                j = int(np.searchsorted(indptr, k, side="right")) - 1
                raise _fail(
                    f"{axis_name} {j} has unsorted or duplicate indices "
                    f"(position {k}: {int(indices[k])} then {int(indices[k + 1])})"
                )
    if data.size and not np.all(np.isfinite(data)):
        k = int(np.argmin(np.isfinite(data)))
        raise _fail(f"non-finite value at position {k}: {data[k]!r}")


def check_csc(matrix: Any) -> None:
    """CSC well-formedness (column-compressed invariants)."""
    check_compressed(matrix, axis_name="column")


def check_csr(matrix: Any) -> None:
    """CSR well-formedness (row-compressed invariants)."""
    check_compressed(matrix, axis_name="row")


# -- permutations ------------------------------------------------------------


def check_permutation(perm: Any, n: int, name: str = "perm") -> None:
    """*perm* must be a permutation of ``range(n)``."""
    try:
        _check_permutation(perm, n, name)
    except ReproError as exc:
        raise _fail(str(exc)) from exc


# -- elimination trees -------------------------------------------------------


def check_etree(parent: Any) -> None:
    """Elimination-tree validity: parent pointers in range and acyclic."""
    p = np.asarray(parent, dtype=np.int64)
    n = p.size
    if n == 0:
        return
    if p.ndim != 1:
        raise _fail(f"parent must be 1-D; got shape {p.shape}")
    bad = np.flatnonzero((p < -1) | (p >= n))
    if bad.size:
        j = int(bad[0])
        raise _fail(f"parent[{j}] = {int(p[j])} out of range [-1, {n})")
    if np.any(p == np.arange(n)):
        j = int(np.argmax(p == np.arange(n)))
        raise _fail(f"self-loop: parent[{j}] == {j}")
    # Cycle detection by chain-walking with path marking: color[j] = 0
    # unvisited, 1 on the current chain, 2 settled.
    color = np.zeros(n, dtype=np.int8)
    for j0 in range(n):
        if color[j0]:
            continue
        j = j0
        chain = []
        while j >= 0 and color[j] == 0:
            color[j] = 1
            chain.append(j)
            j = int(p[j])
        if j >= 0 and color[j] == 1:
            raise _fail(f"elimination tree contains a cycle through node {j}")
        for c in chain:
            color[c] = 2


def check_postordered(parent: Any) -> None:
    """Postorder consistency: valid etree with ``parent[j] > j`` everywhere
    (children numbered before parents — the multifrontal stack invariant)."""
    check_etree(parent)
    p = np.asarray(parent, dtype=np.int64)
    viol = np.flatnonzero((p >= 0) & (p <= np.arange(p.size)))
    if viol.size:
        j = int(viol[0])
        raise _fail(
            f"not postordered: parent[{j}] = {int(p[j])} <= {j}"
        )


# -- supernode partitions ----------------------------------------------------


def check_partition(partition: Any, n: int) -> None:
    """Supernode partition coverage: ``sn_start`` strictly increasing from
    0 to n, and ``col_to_sn`` consistent with it."""
    sn_start = np.asarray(partition.sn_start, dtype=np.int64)
    if sn_start.ndim != 1 or sn_start.size < 1:
        raise _fail(f"sn_start must be 1-D and nonempty; got shape {sn_start.shape}")
    if sn_start[0] != 0:
        raise _fail(f"sn_start[0] must be 0; got {int(sn_start[0])}")
    if sn_start[-1] != n:
        raise _fail(
            f"partition covers [0, {int(sn_start[-1])}) but the matrix has "
            f"{n} columns"
        )
    if np.any(np.diff(sn_start) <= 0):
        s = int(np.argmax(np.diff(sn_start) <= 0))
        raise _fail(f"empty or reversed supernode at position {s}")
    col_to_sn = np.asarray(partition.col_to_sn, dtype=np.int64)
    if col_to_sn.size != n:
        raise _fail(
            f"col_to_sn has {col_to_sn.size} entries for {n} columns"
        )
    expect = np.repeat(
        np.arange(sn_start.size - 1, dtype=np.int64), np.diff(sn_start)
    )
    if not np.array_equal(col_to_sn, expect):
        j = int(np.argmax(col_to_sn != expect))
        raise _fail(
            f"col_to_sn[{j}] = {int(col_to_sn[j])} but column {j} lies in "
            f"supernode {int(expect[j])}"
        )


# -- whole symbolic factors --------------------------------------------------


def check_symbolic(sym: Any, lower: Any = None) -> None:
    """Composite invariant check of a :class:`~repro.symbolic.analyze.
    SymbolicFactor`: permutation validity, postordered etree, partition
    coverage, per-supernode row structure, assembly-tree consistency, and
    the assembly plan (:func:`check_assembly_plan`; its value map only when
    the unpermuted *lower* triangle is given)."""
    n = int(sym.n)
    check_permutation(sym.perm, n)
    check_postordered(sym.parent)
    check_partition(sym.partition, n)
    check_csc(sym.permuted_lower)
    nsn = int(sym.partition.n_supernodes)
    sn_start = np.asarray(sym.partition.sn_start, dtype=np.int64)
    for s in range(nsn):
        c0, c1 = int(sn_start[s]), int(sn_start[s + 1])
        rows = np.asarray(sym.sn_rows[s], dtype=np.int64)
        w = c1 - c0
        if rows.size < w or not np.array_equal(rows[:w], np.arange(c0, c1)):
            raise _fail(
                f"supernode {s}: first {w} rows must be its own columns "
                f"[{c0}, {c1}); got {rows[:w].tolist()}"
            )
        if rows.size > 1 and np.any(np.diff(rows) <= 0):
            raise _fail(f"supernode {s}: row structure unsorted")
        p = int(sym.sn_parent[s])
        if p >= 0 and not (0 <= p < nsn and p > s):
            raise _fail(
                f"supernode {s}: assembly-tree parent {p} invalid "
                f"(must be in ({s}, {nsn}))"
            )
    check_assembly_plan(sym, lower)


def check_assembly_plan(sym: Any, lower: Any = None) -> None:
    """The analyze-time assembly maps agree with the structure they index:

    * every scatter position ``dst[s]`` lies in the front's lower
      triangle, in a pivot column, at the row and column of the entry it
      places;
    * ``parent_rows[relix[c]]`` reproduces child c's update rows;
    * ``vmap`` reproduces ``permute_symmetric_lower(lower, perm).data``
      (only when *lower* is given).
    """
    plan = sym.assembly
    a = sym.permuted_lower
    nsn = int(sym.partition.n_supernodes)
    sn_start = np.asarray(sym.partition.sn_start, dtype=np.int64)
    if len(plan.dst) != nsn or len(plan.relix) != nsn:
        raise _fail(
            f"assembly plan covers {len(plan.dst)}/{len(plan.relix)} "
            f"supernodes, the partition has {nsn}"
        )
    a_ptr = np.asarray(plan.a_ptr, dtype=np.int64)
    if not np.array_equal(a_ptr, a.indptr[sn_start]):
        raise _fail("assembly plan: entry ranges a_ptr disagree with indptr")
    for s in range(nsn):
        c0, c1 = int(sn_start[s]), int(sn_start[s + 1])
        rows = np.asarray(sym.sn_rows[s], dtype=np.int64)
        m = rows.size
        dst = np.asarray(plan.dst[s], dtype=np.int64)
        lo, hi = int(a_ptr[s]), int(a_ptr[s + 1])
        if dst.size != hi - lo:
            raise _fail(
                f"supernode {s}: scatter map has {dst.size} positions for "
                f"{hi - lo} entries"
            )
        if dst.size and (dst.min() < 0 or dst.max() >= m * m):
            raise _fail(f"supernode {s}: scatter position out of [0, {m * m})")
        r, k = np.divmod(dst, max(m, 1))
        if np.any(k >= c1 - c0) or np.any(r < k):
            bad = int(np.argmax((k >= c1 - c0) | (r < k)))
            raise _fail(
                f"supernode {s}: scatter position {int(dst[bad])} = "
                f"({int(r[bad])}, {int(k[bad])}) is not in the lower "
                f"triangle of the {c1 - c0} pivot columns"
            )
        cols = np.repeat(np.arange(c0, c1), np.diff(a.indptr[c0: c1 + 1]))
        if not (
            np.array_equal(rows[r], a.indices[lo:hi])
            and np.array_equal(c0 + k, cols)
        ):
            raise _fail(
                f"supernode {s}: scatter map places entries away from "
                "their (row, column)"
            )
        p = int(sym.sn_parent[s])
        relix = np.asarray(plan.relix[s], dtype=np.int64)
        update_rows = rows[c1 - c0:]
        if p < 0:
            if relix.size:
                raise _fail(f"root supernode {s} has relative indices")
            continue
        prows = np.asarray(sym.sn_rows[p], dtype=np.int64)
        if (
            relix.size != update_rows.size
            or (relix.size and (relix.min() < 0 or relix.max() >= prows.size))
            or not np.array_equal(prows[relix], update_rows)
        ):
            raise _fail(
                f"supernode {s}: relative indices do not reproduce its "
                f"update rows in parent {p}"
            )
    if lower is not None:
        _check_value_map(plan.vmap, a, lower, sym.perm)


def _check_value_map(vmap: Any, permuted: Any, lower: Any, perm: Any) -> None:
    """``permuted.data == lower.data[vmap]``, derived independently: entry
    (i, j) of the permuted triangle is A[perm[i], perm[j]], the entry of
    *lower* at the (max, min) of the original indices."""
    n = int(lower.shape[0])
    perm = np.asarray(perm, dtype=np.int64)
    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(permuted.indptr))
    ri = perm[np.asarray(permuted.indices, dtype=np.int64)]
    ci = perm[cols]
    want = np.minimum(ri, ci) * n + np.maximum(ri, ci)
    lcols = np.repeat(np.arange(n, dtype=np.int64), np.diff(lower.indptr))
    lrows = np.asarray(lower.indices, dtype=np.int64)
    keys = np.minimum(lrows, lcols) * n + np.maximum(lrows, lcols)
    order = np.argsort(keys, kind="stable")
    found = np.minimum(np.searchsorted(keys[order], want), max(keys.size - 1, 0))
    pos = order[found] if keys.size else found
    vmap = np.asarray(vmap, dtype=np.int64)
    if vmap.shape != pos.shape or not np.array_equal(vmap, pos):
        raise _fail(
            "assembly plan: value map does not reproduce the permuted "
            "lower triangle"
        )


# -- frontal update stack ----------------------------------------------------


def check_frontal_balance(
    stack_entries: int, updates: Mapping[int, Any]
) -> None:
    """End-of-factorization stack balance: every pushed update matrix was
    consumed by its parent's extend-add, and the entry counter returned to
    zero."""
    if updates:
        raise _fail(
            f"unconsumed update matrices for supernodes "
            f"{sorted(updates)[:5]} (frontal stack leak)"
        )
    if stack_entries != 0:
        raise _fail(
            f"frontal stack entry counter ended at {stack_entries}, not 0"
        )


# -- ledgers -----------------------------------------------------------------


def check_ledger(ledger: Any) -> None:
    """Message-ledger conservation (wraps
    :meth:`repro.simmpi.ledger.MessageLedger.verify`)."""
    try:
        ledger.verify()
    except ReproError as exc:
        raise _fail(str(exc)) from exc
