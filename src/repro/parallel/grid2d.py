"""2D process grids and block-cyclic front partitions.

A distributed front of order m is cut into row/column blocks (the block
boundaries are aligned so the pivot region [0, w) ends exactly on a block
boundary) and block (i, j) of the lower triangle lives on grid position
``(i mod gr, j mod gc)`` — the classic 2D block-cyclic layout whose
per-rank communication volume scales as O(m²/√g), versus O(m²) for 1D
layouts. That √g is the paper's scalability argument in one line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ShapeError


def grid_dims(g: int) -> tuple[int, int]:
    """Near-square factorization ``(gr, gc)`` of g with ``gr <= gc``."""
    if g < 1:
        raise ShapeError("group size must be >= 1")
    gr = int(np.sqrt(g))
    while g % gr:
        gr -= 1
    return gr, g // gr


def block_starts(m: int, w: int, nb: int) -> np.ndarray:
    """Block-row boundaries of a front of order *m* with *w* pivots.

    Returns the start offsets (length ``nblocks + 1``, last entry m). The
    pivot region [0, w) and the update region [w, m) are chunked
    independently so the pivot/update split is block-aligned.
    """
    if not (0 <= w <= m):
        raise ShapeError(f"invalid pivot width {w} for front of order {m}")
    if nb < 1:
        raise ShapeError("block size must be >= 1")
    starts = list(range(0, w, nb))
    starts.extend(range(w, m, nb))
    starts.append(m)
    return np.asarray(starts, dtype=np.int64)


@dataclass(frozen=True)
class ProcessGrid:
    """A group of ranks arranged as a ``gr × gc`` grid.

    ``ranks`` is the sorted global-rank tuple; grid position (r, c) is
    ``ranks[r * gc + c]``.
    """

    ranks: tuple[int, ...]
    gr: int
    gc: int

    def __post_init__(self) -> None:
        if self.gr * self.gc != len(self.ranks):
            raise ShapeError(
                f"grid {self.gr}x{self.gc} does not match group of {len(self.ranks)}"
            )

    @classmethod
    def for_group(cls, group: tuple[int, ...]) -> "ProcessGrid":
        gr, gc = grid_dims(len(group))
        return cls(tuple(group), gr, gc)

    @classmethod
    def one_d(cls, group: tuple[int, ...]) -> "ProcessGrid":
        """1D (row-cyclic) grid — the MUMPS-like baseline layout."""
        return cls(tuple(group), len(group), 1)

    @property
    def size(self) -> int:
        return len(self.ranks)

    def coords(self, rank: int) -> tuple[int, int]:
        """Grid coordinates of a global rank."""
        idx = self.ranks.index(rank)
        return idx // self.gc, idx % self.gc

    def at(self, r: int, c: int) -> int:
        """Global rank at grid position (r, c)."""
        return self.ranks[r * self.gc + c]

    def owner(self, bi: int, bj: int) -> int:
        """Global rank owning block (bi, bj)."""
        return self.at(bi % self.gr, bj % self.gc)

    def owners(self, bi: np.ndarray, bj: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`owner` over arrays of block coordinates."""
        return np.asarray(self.ranks)[(bi % self.gr) * self.gc + bj % self.gc]

    def row_members(self, r: int) -> tuple[int, ...]:
        """Global ranks of grid row r (left to right)."""
        return tuple(self.at(r, c) for c in range(self.gc))

    def col_members(self, c: int) -> tuple[int, ...]:
        """Global ranks of grid column c (top to bottom)."""
        return tuple(self.at(r, c) for r in range(self.gr))

    def owned_blocks(self, rank: int, nblocks: int, lower_only: bool = True):
        """Iterate the (bi, bj) block coordinates owned by *rank* within an
        ``nblocks × nblocks`` block grid (lower triangle by default)."""
        r, c = self.coords(rank)
        for bi in range(r, nblocks, self.gr):
            hi = (bi + 1) if lower_only else nblocks
            for bj in range(c, min(hi, nblocks), self.gc):
                yield bi, bj
