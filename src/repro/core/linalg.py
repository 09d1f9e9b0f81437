"""Vectorized distance primitives, k-means++ init, and SSE.

Every point↔centroid and node↔centroid distance a kernel uses comes
from this module, and the ``x²+c²−2x·c → clamp → sqrt`` formula is
written once, in :func:`_dists`. The only geometry left inside kernels
is the kd-tree filtering rule (``kdindex``: box-midpoint and corner
tests) and blockvector's bound. The index's range search
(``ArrayTree.range_search``) keeps its own difference-based arithmetic,
because ball-boundary membership depends on it.

Kernels must never evaluate distances the algorithm would not: use
``pair_dists`` with explicit (row, col) index vectors so wall time scales
with the number of *surviving* candidate pairs, mirroring a per-point
implementation's cost profile. ``x2``/``c2`` are optional precomputed
squared row norms of the ``X``/``C`` arguments (kernels cache the point
norms once; centroid norms arrive once per iteration in the ctx).
"""
from __future__ import annotations

import numpy as np

from .metrics import Counters


def _dists(x2: np.ndarray, c2: np.ndarray, dot: np.ndarray) -> np.ndarray:
    """‖x−c‖ from ‖x‖², ‖c‖² and x·c (broadcast), clamped at 0.

    ``dot`` is a scratch temporary and is overwritten. The result is
    ``(x2 + c2) − 2·dot`` rounded exactly so, in one new array: on an
    n×k grid, each extra temporary costs measurable time.
    """
    d2 = x2 + c2
    dot *= 2.0
    d2 -= dot
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2, out=d2)


def full_dists(
    X: np.ndarray,
    C: np.ndarray,
    counters: Counters | None = None,
    x2: np.ndarray | None = None,
    c2: np.ndarray | None = None,
) -> np.ndarray:
    """All n×k Euclidean distances (Lloyd's assignment grid), one matmul."""
    if counters is not None:
        counters.dist += X.shape[0] * C.shape[0]
        counters.data_access += X.shape[0] * C.shape[0]
    return _dists(
        (np.einsum("ij,ij->i", X, X) if x2 is None else x2)[:, None],
        (np.einsum("ij,ij->i", C, C) if c2 is None else c2)[None, :],
        X @ C.T,
    )


def pair_dists(
    X: np.ndarray,
    C: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    counters: Counters | None = None,
    x2: np.ndarray | None = None,
    c2: np.ndarray | None = None,
) -> np.ndarray:
    """Distances for explicit (rows[i], cols[i]) point–centroid pairs."""
    if len(rows) == 0:
        return np.empty(0)
    xs = X[rows]
    cs = C[cols]
    if counters is not None:
        counters.dist += len(rows)
        counters.data_access += len(rows)
    return _dists(
        np.einsum("ij,ij->i", xs, xs) if x2 is None else x2[rows],
        np.einsum("ij,ij->i", cs, cs) if c2 is None else c2[cols],
        np.einsum("ij,ij->i", xs, cs),
    )


def list_dists(
    X: np.ndarray,
    C: np.ndarray,
    rows: np.ndarray,
    ids: np.ndarray,
    counters: Counters | None = None,
    x2: np.ndarray | None = None,
    c2: np.ndarray | None = None,
) -> np.ndarray:
    """Distances from each point X[rows[i]] to its own centroid list C[ids[i]].

    ``ids`` is (len(rows), b) and so is the result. Each point row is read
    once and broadcast over its list, rather than repeated b times as
    ``pair_dists`` on the flattened pairs would.
    """
    xs = X[rows]
    cs = C[ids]
    if counters is not None:
        counters.dist += ids.size
        counters.data_access += ids.size
    return _dists(
        (np.einsum("ij,ij->i", xs, xs) if x2 is None else x2[rows])[:, None],
        np.einsum("mbd,mbd->mb", cs, cs) if c2 is None else c2[ids],
        np.einsum("md,mbd->mb", xs, cs),
    )


def candidate_dists(
    X: np.ndarray,
    C: np.ndarray,
    r1: np.ndarray,
    rr: np.ndarray,
    cols: np.ndarray,
    counters: Counters | None = None,
    x2: np.ndarray | None = None,
    c2: np.ndarray | None = None,
    dense_threshold: float = 0.35,
) -> np.ndarray:
    """Distances for candidate pairs (r1[rr[i]], cols[i]).

    When the candidate density exceeds ``dense_threshold`` the rows are
    evaluated with one BLAS matmul and the pairs extracted (cheaper in
    memory traffic than gathering each pair); counters still charge only
    the candidate pairs — the quantity the *algorithm* computes.
    """
    if len(rr) == 0:
        return np.empty(0)
    k = C.shape[0]
    if counters is not None:
        counters.dist += len(rr)
        counters.data_access += len(rr)
    if len(rr) > dense_threshold * len(r1) * k:
        return full_dists(X[r1], C, x2=None if x2 is None else x2[r1], c2=c2)[rr, cols]
    return pair_dists(X, C, r1[rr], cols, None, x2=x2, c2=c2)


def cdist_cc(C1: np.ndarray, C2: np.ndarray) -> np.ndarray:
    """Small dense centroid↔centroid distance matrix (driver-side).

    Computed from coordinate differences rather than the ``x²+c²−2x·c``
    expansion: the diagonal is exactly 0, the matrix is bit-symmetric and
    nothing cancels on offset data. The temporary is k×k×d floats.
    """
    diff = C1[:, None] - C2[None]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def kmeans_pp_init(X: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Standard k-means++ seeding (Arthur & Vassilvitskii), deterministic."""
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    k = min(k, n)
    centers = np.empty((k, X.shape[1]), dtype=np.float64)
    idx = rng.integers(n)
    centers[0] = X[idx]
    d2 = np.einsum("ij,ij->i", X - centers[0], X - centers[0])
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j:] = X[rng.integers(n, size=k - j)]
            break
        probs = d2 / total
        idx = rng.choice(n, p=probs)
        centers[j] = X[idx]
        nd2 = np.einsum("ij,ij->i", X - centers[j], X - centers[j])
        np.minimum(d2, nd2, out=d2)
    return centers


def random_init(X: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Plain random seeding (used by the Figure-16-style initialization test)."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(X.shape[0], size=min(k, X.shape[0]), replace=False)
    return X[idx].astype(np.float64, copy=True)


def sse(X: np.ndarray, C: np.ndarray, assign: np.ndarray) -> float:
    """Sum of squared errors of an assignment (Equation 1)."""
    diff = X - C[assign]
    return float(np.einsum("ij,ij->", diff, diff))
