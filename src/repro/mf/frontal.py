"""Frontal-matrix assembly and extend-add over the analyze-time maps.

A supernode's front is a dense symmetric matrix of order
``len(sn_rows[s])`` whose leading ``width`` columns correspond to the
supernode's own columns; only the lower triangle is meaningful. Assembly
scatters the supernode's entries of the permuted input matrix into the
front with one indexed store; extend-add adds a child's update matrix into
the rows its relative indices name. Both index maps come from the
:class:`~repro.symbolic.assembly.AssemblyPlan` the analyze phase built, so
no numeric factorization searches for a row.
"""

from __future__ import annotations

import numpy as np

from repro.symbolic.analyze import SymbolicFactor
from repro.util.errors import ShapeError
from repro.util.validation import VALUE_DTYPE


def assemble_front(
    sym: SymbolicFactor, s: int, dtype: np.dtype = VALUE_DTYPE
) -> np.ndarray:
    """Allocate the front of supernode *s* and scatter A's entries into it.

    *dtype* is the working dtype of the front (fp32 for mixed-precision
    fronts; the always-fp64 input entries are rounded once, here). Returns
    the m×m front with A's entries in the leading ``width`` columns of its
    lower triangle and zeros elsewhere.
    """
    plan = sym.assembly
    m = sym.sn_rows[s].size
    lo, hi = plan.a_ptr[s], plan.a_ptr[s + 1]
    front = np.zeros((m, m), dtype=dtype)
    front.ravel()[plan.dst[s].astype(np.intp)] = sym.permuted_lower.data[lo:hi]
    return front


def extend_add(front: np.ndarray, relix: np.ndarray, update: np.ndarray) -> None:
    """``front[relix, relix] += update`` in place: add a child's update
    matrix into the parent rows its relative indices *relix* name.

    Runs as one flat gather-add-scatter: *relix* is strictly increasing,
    so every target entry receives exactly one addition — the same
    floating-point result as the 2-D ``np.ix_`` form, about twice as fast
    on the small fronts that dominate the assembly tree.
    """
    if update.shape != (relix.size, relix.size):
        raise ShapeError(
            f"update of shape {update.shape} for {relix.size} relative indices"
        )
    if not front.flags.c_contiguous:
        raise ShapeError("extend-add needs a C-contiguous front")
    m = front.shape[0]
    ix = relix.astype(np.intp)
    flat = (ix[:, None] * m + ix).ravel()
    target = front.ravel()
    target[flat] += update.ravel()
