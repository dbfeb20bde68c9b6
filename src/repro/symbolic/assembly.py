"""The assembly plan: pattern-invariant index maps of the numeric phase.

Every numeric factorization of a pattern scatters the same input entries
into the same front positions and adds every child's update into the same
rows of its parent. Those positions depend only on the sparsity pattern, so
the analyze phase computes them once — the "relative indices" of
production multifrontal codes — and every refactor reuses them:

* ``dst[s]`` — the flat position (``row * m + col`` in the m×m front) of
  every entry supernode *s* owns in the permuted lower triangle: the
  contiguous range ``a_ptr[s]:a_ptr[s+1]`` (its columns are contiguous in
  CSC and the permuted matrix is lower triangular), so assembly is one
  scatter ``front.flat[dst[s]] = data[a_ptr[s]:a_ptr[s+1]]``;
* ``relix[c]`` — the positions of child *c*'s update rows inside its
  parent's rows, so extend-add is ``front[ix_(relix[c], relix[c])] += upd``;
* ``vmap`` — the value permutation ``permuted.data = lower.data[vmap]``, so
  installing new values on an analyzed pattern is one gather.

:func:`build_assembly_plan` validates every relative index once (one
vectorized ``searchsorted`` plus equality over all supernodes) and raises
:class:`~repro.util.errors.InvariantError` when an entry or an update row
falls outside the front structure it must belong to.

Each index array is stored in the narrowest signed integer dtype that
holds its largest possible value (``m² - 1`` for a front's scatter, the
parent's order for relative indices, ``nnz - 1`` for the value map):
most fronts are small, so most maps are 1- or 2-byte arrays and the plan
stays a few percent of the factor it serves. Consumers widen an array to
``intp`` before index arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.sparse.permute import permute_symmetric_lower
from repro.util.errors import InvariantError

__all__ = [
    "AssemblyPlan",
    "build_assembly_plan",
    "gather_values",
    "narrow_index",
    "permute_with_value_map",
]


@dataclass(frozen=True)
class AssemblyPlan:
    """Index maps shared by every numeric factorization of one pattern."""

    #: ``permuted_lower.data == lower.data[vmap]``
    vmap: np.ndarray
    #: per supernode: flat front positions of its permuted-lower entries
    dst: list[np.ndarray]
    #: supernode s owns entries ``a_ptr[s]:a_ptr[s+1]``
    a_ptr: np.ndarray
    #: per supernode: positions of its update rows in its parent's rows
    #: (empty for roots)
    relix: list[np.ndarray]

    @property
    def nbytes(self) -> int:
        """Bytes held by the maps (index arrays only)."""
        return int(
            self.vmap.nbytes
            + self.a_ptr.nbytes
            + sum(d.nbytes for d in self.dst)
            + sum(r.nbytes for r in self.relix)
        )


def narrow_index(values: np.ndarray, bound: int) -> np.ndarray:
    """*values* (all in ``[0, bound)``) in the narrowest signed integer
    dtype that holds ``bound - 1``."""
    for dtype in (np.int8, np.int16, np.int32):
        if bound - 1 <= np.iinfo(dtype).max:
            return values.astype(dtype)
    return values.astype(np.int64)


def permute_with_value_map(
    lower: CSCMatrix, perm: np.ndarray
) -> tuple[CSCMatrix, np.ndarray]:
    """:func:`~repro.sparse.permute.permute_symmetric_lower` plus the value
    map ``vmap`` with ``result.data == lower.data[vmap]``.

    The pattern is permuted once with entry numbers as values (exact in
    fp64), so the map is the permutation itself, not a reconstruction.
    """
    numbered = CSCMatrix(
        lower.shape,
        lower.indptr,
        lower.indices,
        np.arange(lower.nnz, dtype=np.float64),
        _skip_check=True,
    )
    pattern = permute_symmetric_lower(numbered, perm)
    vmap = narrow_index(pattern.data, lower.nnz)
    if vmap.size != lower.nnz:
        raise InvariantError(
            f"permutation merged entries: {lower.nnz} in, {vmap.size} out"
        )
    return CSCMatrix(
        lower.shape, pattern.indptr, pattern.indices, gather_values(lower, vmap),
        _skip_check=True,
    ), vmap


def gather_values(lower: CSCMatrix, vmap: np.ndarray) -> np.ndarray:
    """``lower.data[vmap]`` with the bits the COO→CSC permutation produces:
    its duplicate-summing pass adds every value to ``+0.0``, which turns
    ``-0.0`` entries into ``+0.0``, so the gather does the same."""
    data = lower.data[vmap]
    data += 0.0
    return data


def _front_keys(
    sn_rows: list[np.ndarray], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Globally sorted ``s * n + row`` keys of every front row, with the
    offset of each supernode's rows in the concatenation."""
    sizes = np.fromiter((r.size for r in sn_rows), dtype=np.int64, count=len(sn_rows))
    offset = np.zeros(len(sn_rows) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offset[1:])
    owner = np.repeat(np.arange(len(sn_rows), dtype=np.int64), sizes)
    rows = np.concatenate(sn_rows) if sn_rows else np.zeros(0, dtype=np.int64)
    return owner * n + rows, offset


def _locate(keys: np.ndarray, want: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of *want* in the sorted *keys*, and a mask of the misses."""
    pos = np.searchsorted(keys, want)
    clipped = np.minimum(pos, max(keys.size - 1, 0))
    miss = (pos >= keys.size) | (keys[clipped] != want)
    return pos, miss


def build_assembly_plan(
    permuted_lower: CSCMatrix,
    vmap: np.ndarray,
    sn_start: np.ndarray,
    sn_rows: list[np.ndarray],
    sn_parent: np.ndarray,
) -> AssemblyPlan:
    """Compute and validate the assembly plan of an analyzed pattern
    (*permuted_lower* must be lower triangular, as
    :func:`permute_with_value_map` returns it)."""
    n = permuted_lower.shape[0]
    nsn = len(sn_rows)
    sn_start = np.asarray(sn_start, dtype=np.int64)
    keys, offset = _front_keys(sn_rows, n)
    sizes = np.diff(offset)

    # Input entries: column j of supernode s, row i -> (local(i), j - c0).
    indptr = permuted_lower.indptr
    a_ptr = indptr[sn_start].astype(np.int64)
    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    rows = permuted_lower.indices
    owner = np.repeat(np.arange(nsn, dtype=np.int64), np.diff(a_ptr))
    pos, miss = _locate(keys, owner * n + rows)
    if miss.any():
        e = int(np.argmax(miss))
        raise InvariantError(
            f"assembly plan: entry ({int(rows[e])}, {int(cols[e])}) is not in "
            f"the row structure of supernode {int(owner[e])}"
        )
    local = pos - offset[owner]
    flat_dst = local * sizes[owner] + (cols - sn_start[owner])
    dst = [
        narrow_index(flat_dst[a_ptr[s]: a_ptr[s + 1]], int(sizes[s]) ** 2)
        for s in range(nsn)
    ]

    # Child update rows -> positions in the parent's rows.
    width = np.diff(sn_start)
    upd = [r[int(w):] for r, w in zip(sn_rows, width)]
    parent = np.asarray(sn_parent, dtype=np.int64)
    upd_sizes = np.fromiter((u.size for u in upd), dtype=np.int64, count=nsn)
    relix_ptr = np.zeros(nsn + 1, dtype=np.int64)
    np.cumsum(upd_sizes, out=relix_ptr[1:])
    child = np.repeat(np.arange(nsn, dtype=np.int64), upd_sizes)
    upd_rows = np.concatenate(upd) if nsn else np.zeros(0, dtype=np.int64)
    pos, miss = _locate(keys, parent[child] * n + upd_rows)
    if miss.any():
        e = int(np.argmax(miss))
        c = int(child[e])
        p = int(parent[c])
        missing = upd_rows[miss & (child == c)]
        raise InvariantError(
            f"assembly tree violation: supernode {c} update rows "
            f"{missing[:5].tolist()} missing from parent {p}"
        )
    flat = pos - offset[parent[child]]
    relix = [
        narrow_index(flat[relix_ptr[c]: relix_ptr[c + 1]], int(sizes[parent[c]]))
        for c in range(nsn)
    ]
    return AssemblyPlan(vmap=vmap, dst=dst, a_ptr=a_ptr, relix=relix)
