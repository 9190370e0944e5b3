"""Correctness checks computed apart from the program under test.

Every function takes the program's answer plus the inputs and recomputes
what the answer must be with scipy/numpy alone (or tests a property the
method must have). Each returns a bool; the workloads count one attempted
operation per call, and ``test_perfbench.py`` feeds each a corrupted
answer to see it fail.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

#: Elementwise matvec tolerance, as a multiple of ``(|A| @ |x|)_i``: float
#: reassociation across ranks and row blocks stays many orders below it,
#: a wrong entry does not.
MATVEC_RTOL = 1e-10


def matvec_agrees(A, x: np.ndarray, y: np.ndarray, rtol: float = MATVEC_RTOL) -> bool:
    """``y`` equals scipy's ``A @ x`` within ``rtol * (|A| @ |x|)`` entrywise."""
    A = sp.csr_matrix(A)
    ref = A @ x
    scale = abs(A) @ np.abs(x)
    return bool(
        y.shape == ref.shape
        and np.all(np.isfinite(y))
        and np.all(np.abs(y - ref) <= rtol * scale + 1e-300)
    )


def same_reply(resp: dict, y, ref: np.ndarray) -> bool:
    """A served reply succeeded and is bitwise equal to the earlier reply *ref*."""
    return bool(resp.get("ok")) and y is not None and np.array_equal(y, ref)


def rpart_valid(part: np.ndarray, n: int, p: int) -> bool:
    """Every row has a part in [0, p) and no part is empty."""
    part = np.asarray(part)
    if part.shape != (n,) or not np.issubdtype(part.dtype, np.integer):
        return False
    if n and (part.min() < 0 or part.max() >= p):
        return False
    return bool(np.all(np.bincount(part, minlength=p) > 0))


def graph_edgecut(A, part: np.ndarray) -> int:
    """Edges of the symmetrised, loop-free pattern of *A* that cross parts."""
    P = sp.csr_matrix(A, copy=True)
    P.data[:] = 1.0
    S = sp.triu(P + P.T, k=1).tocoo()
    return int(np.count_nonzero(part[S.row] != part[S.col]))


def hypergraph_cut(A, part: np.ndarray, p: int) -> int:
    """Connectivity-1 cut of the column-net hypergraph of *A*.

    Net j holds every row i with ``a_ij != 0`` plus vertex j itself.
    """
    C = sp.coo_matrix(A)
    n = A.shape[0]
    nets = np.concatenate([C.col, np.arange(n)]).astype(np.int64)
    pins = np.concatenate([C.row, np.arange(n)]).astype(np.int64)
    keys = np.unique(nets * p + part[pins])
    lam = np.bincount(keys // p, minlength=n)
    return int(np.maximum(lam - 1, 0).sum())


def imbalance(weights: np.ndarray, part: np.ndarray, p: int) -> float:
    """Max over parts of the part's weight, divided by the average."""
    pw = np.bincount(part, weights=weights, minlength=p)
    return float(pw.max() / pw.mean())


def nnz_weights(A) -> np.ndarray:
    """The partitioners' nonzero vertex weight: stored entries per row, at least 1."""
    return np.maximum(np.diff(sp.csr_matrix(A).indptr), 1).astype(np.float64)


def max_messages_ok(max_messages: int, two_d: bool, grid: tuple[int, int]) -> bool:
    """At most pr+pc-2 messages per rank on a 2D layout, p-1 on a 1D one."""
    pr, pc = grid
    bound = pr + pc - 2 if two_d else pr * pc - 1
    return 0 <= max_messages <= bound


def eigenvalues_agree(vals: np.ndarray, ref: np.ndarray, tol: float) -> bool:
    """The k values match the reference's k, each within ``tol * |lambda|``."""
    a = np.sort(np.asarray(vals))[::-1]
    b = np.sort(np.asarray(ref))[::-1]
    return bool(a.shape == b.shape and np.all(np.abs(a - b) <= tol * np.abs(b)))


def residuals_ok(L, vals: np.ndarray, vecs: np.ndarray, tol: float) -> bool:
    """``||L v - lambda v|| <= tol * |lambda|`` for unit v, recomputed with scipy."""
    V = vecs / np.linalg.norm(vecs, axis=0)
    R = sp.csr_matrix(L) @ V - V * vals
    return bool(np.all(np.linalg.norm(R, axis=0) <= tol * np.abs(vals)))


def in_laplacian_range(vals: np.ndarray) -> bool:
    """Normalized-Laplacian eigenvalues lie in [0, 2]."""
    vals = np.asarray(vals)
    return bool(np.all((vals >= -1e-12) & (vals <= 2 + 1e-12)))
