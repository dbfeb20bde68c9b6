"""Inputs, the independent correctness gate, exact-count checks and the
run environment: everything the workloads share that is not timing."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sps

from repro.sparse.csc import CSCMatrix

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
#: run artifacts (results, spans, exact-count records); ignored by git
OUT_DIR = BENCH_DIR / "out"

#: a returned solution passes when its normwise backward error
#: ‖b − A x‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞), computed with scipy, is at most this
BERR_LIMIT = 1e-10


# -- inputs ------------------------------------------------------------------


def to_scipy(a: CSCMatrix, symmetric_lower: bool) -> sps.csr_matrix:
    """The full matrix as scipy CSR; a stored lower triangle is mirrored."""
    m = sps.csc_matrix((a.data, a.indices, a.indptr), shape=a.shape)
    if symmetric_lower:
        m = m + sps.tril(m, k=-1).T
    return m.tocsr()


def from_scipy(m) -> CSCMatrix:
    m = sps.csc_matrix(m)
    m.sum_duplicates()
    m.sort_indices()
    return CSCMatrix(m.shape, m.indptr, m.indices, m.data)


def relabel(a: CSCMatrix, rng: np.random.Generator, symmetric_lower: bool) -> CSCMatrix:
    """``P A Pᵀ`` for a random permutation P: the same graph under new
    vertex labels, so every request brings a never-seen sparsity pattern
    of the same size and difficulty."""
    full = to_scipy(a, symmetric_lower)
    p = rng.permutation(a.shape[0])
    out = full[p][:, p]
    return from_scipy(sps.tril(out) if symmetric_lower else out)


def drift(lower: CSCMatrix, rng: np.random.Generator) -> CSCMatrix:
    """New values on the same pattern, as one transient time step brings:
    a global rescale plus a positive diagonal shift, which keeps an SPD
    matrix SPD."""
    data = lower.data * (1.0 + 0.05 * rng.random())
    n = lower.shape[0]
    starts = lower.indptr[:-1]
    has_diag = (lower.indptr[1:] > starts) & (
        lower.indices[np.minimum(starts, max(lower.nnz - 1, 0))] == np.arange(n)
    )
    shift = 0.1 * rng.random(n) * np.abs(data[starts[has_diag]]).mean()
    data[starts[has_diag]] += shift[has_diag]
    return CSCMatrix(lower.shape, lower.indptr, lower.indices, data)


# -- correctness gate --------------------------------------------------------


@dataclass
class Outcome:
    """What one request returned, for the gate and the per-layer metrics."""

    #: the request's matrix as the program received it
    a: CSCMatrix
    #: True when *a* holds the lower triangle of a symmetric matrix
    symmetric_lower: bool
    b: np.ndarray
    x: np.ndarray
    #: exact counts of this request, checked under *key* (None = none)
    key: str | None = None
    counts: dict | None = None
    #: per-layer raw values of a traced request, summed over requests
    extras: dict = field(default_factory=dict)

    def backward_error(self) -> float:
        return backward_error(to_scipy(self.a, self.symmetric_lower), self.x, self.b)


def backward_error(a_full, x: np.ndarray, b: np.ndarray) -> float:
    """Worst normwise backward error over the columns of *x*, by a scipy
    matvec that shares no code with ``repro.sparse.ops``."""
    x2 = x.reshape(x.shape[0], -1)
    b2 = b.reshape(b.shape[0], -1)
    if not np.all(np.isfinite(x2)):
        return float("inf")
    r = b2 - a_full @ x2
    anorm = float(abs(a_full).sum(axis=1).max())
    den = anorm * np.abs(x2).max(axis=0) + np.abs(b2).max(axis=0)
    return float(np.max(np.abs(r).max(axis=0) / np.maximum(den, 1e-300)))


# -- exact counts ------------------------------------------------------------


class CountMismatch(RuntimeError):
    """An exact count differed between two runs of the same code."""


def source_hash() -> str:
    """Digest of the program sources and of the benchmark's own: runs with
    equal digests ran the same code on the same inputs, so their exact
    counts must agree."""
    h = hashlib.sha256()
    paths = sorted((REPO_ROOT / "src").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    for path in paths:
        h.update(str(path.relative_to(REPO_ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class ExactCounts:
    """Records exact counts (symbolic counts, simulated messages, bytes and
    modelled makespans) and fails when a rerun of the same code — in this
    process or in an earlier run recorded on disk — disagrees."""

    def __init__(self, path: Path, code: str) -> None:
        self.path = path
        self.code = code
        self.seen: dict[str, dict] = {}
        self.stored: dict[str, dict] = {}
        if path.exists():
            data = json.loads(path.read_text())
            self.stored = data.get(code, {}) if isinstance(data, dict) else {}

    def check(self, key: str, counts: dict) -> None:
        for ref in (self.seen.get(key), self.stored.get(key)):
            if ref is not None and ref != counts:
                raise CountMismatch(f"{key}: {counts} != earlier {ref}")
        self.seen[key] = counts

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.stored.update(self.seen)
        self.path.write_text(json.dumps({self.code: self.stored}, sort_keys=True))


def symbolic_counts(sym) -> dict:
    """Exact structural counts of one analysis."""
    fronts = np.asarray([sym.front_size(s) for s in range(sym.n_supernodes)])
    return {
        "nnz_factor": int(sym.nnz_factor),
        "factor_flops": int(sym.factor_flops),
        "supernodes": int(sym.n_supernodes),
        "small_fronts": int(np.count_nonzero(fronts <= 16)),
    }


def symbolic_extras(sym) -> dict:
    """The exact counts of one analysis as per-request extras."""
    return {f"symbolic.{k}": v for k, v in symbolic_counts(sym).items()}


# -- environment -------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set of this process so far [MB] (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree of its
    own (an enclosing repository does not count)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != REPO_ROOT:
        return None
    return lines[1]


def environment(seed: int, code: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "host_cores": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": sys.modules["scipy"].__version__,
        "git_sha": git_sha(),
        "source_hash": code,
        "seed": seed,
    }
