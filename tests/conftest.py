"""Shared fixtures and helpers for the test suite.

scipy is used here (and only here) as an independent oracle for sparse
formats, orderings, and factorizations.
"""

import numpy as np
import pytest

from repro.core import UnsymmetricSolver
from repro.gen import convection_diffusion2d
from repro.sparse import COOMatrix, coo_to_csc
from repro.sparse.ops import tril
from repro.util.rng import make_rng


def random_spd_dense(n: int, density: float, rng) -> np.ndarray:
    """Dense random SPD matrix via diagonally-dominated random symmetric
    sparsity. Small helper for oracle tests (dense path)."""
    a = np.zeros((n, n))
    mask = rng.random((n, n)) < density
    vals = rng.standard_normal((n, n))
    a[mask] = vals[mask]
    a = (a + a.T) / 2
    np.fill_diagonal(a, np.abs(a).sum(axis=1) + 1.0)
    return a


@pytest.fixture
def rng():
    return make_rng(12345)


@pytest.fixture
def small_spd_lower(rng):
    """Lower triangle (CSC) of a small random SPD matrix plus its dense form."""
    dense = random_spd_dense(12, 0.3, rng)
    full = coo_to_csc(COOMatrix.from_dense(dense))
    return tril(full), dense


@pytest.fixture(scope="module")
def lu_problem():
    """A small convection-diffusion matrix and its factored sequential LU
    solver (the reference for the simulated LU engine)."""
    a = convection_diffusion2d(8, wind=(1.0, -0.4), peclet=1.5)
    seq = UnsymmetricSolver(a)
    seq.factor()
    return a, seq


def dense_lower_to_csc(dense_lower: np.ndarray):
    """Dense lower triangle -> CSC lower triangle."""
    return coo_to_csc(COOMatrix.from_dense(np.tril(dense_lower)))
