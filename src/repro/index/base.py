"""Array-based tree layout shared by every index (§5.1 "advanced index").

Definition 1 of the paper enriches each node with: pivot ``p`` (mean of
covered points), radius ``r``, sum vector ``sv``, distance-to-parent
``psi``, covered-point count ``num`` and height ``h``. We store nodes in
flat numpy arrays (struct-of-arrays) so a per-partition tree pickles
cheaply through Spark's cached-RDD path and traversals stay vectorized.

Children are stored CSR-style (``child_start``/``child_idx``) so binary
trees (Ball/kd/M/HKT) and multi-way trees (Cover-tree) share one layout.
Every node covers a contiguous slice ``perm[pt_start:pt_end]`` of the
point permutation; a node's slice is the union of its leaves' slices.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.metrics import Counters


@dataclass
class ArrayTree:
    pivot: np.ndarray       # (m, d) node mean
    radius: np.ndarray      # (m,) max distance pivot→covered point
    sv: np.ndarray          # (m, d) sum of covered points
    num: np.ndarray         # (m,) covered-point count
    psi: np.ndarray         # (m,) distance to parent pivot (0 at root)
    height: np.ndarray      # (m,) depth from root
    child_start: np.ndarray # (m+1,) CSR offsets into child_idx
    child_idx: np.ndarray   # flat child node ids
    pt_start: np.ndarray    # (m,) start of the node's covered perm slice
    pt_end: np.ndarray      # (m,) end (exclusive) of that slice
    perm: np.ndarray        # (n,) permutation of point indices

    @property
    def n_nodes(self) -> int:
        return self.pivot.shape[0]

    def is_leaf(self, i: int) -> bool:
        return self.child_start[i] == self.child_start[i + 1]

    def children(self, i: int) -> np.ndarray:
        return self.child_idx[self.child_start[i] : self.child_start[i + 1]]

    def leaf_points(self, i: int) -> np.ndarray:
        """Original point indices covered by leaf ``i``."""
        return self.perm[self.pt_start[i] : self.pt_end[i]]

    def leaf_mask(self) -> np.ndarray:
        return self.child_start[:-1] == self.child_start[1:]

    def nbytes(self) -> int:
        return sum(
            a.nbytes
            for a in (
                self.pivot, self.radius, self.sv, self.num, self.psi,
                self.height, self.child_start, self.child_idx,
                self.pt_start, self.pt_end, self.perm,
            )
        )

    def range_search(
        self, X: np.ndarray, q: np.ndarray, thresh: float, counters: Counters | None = None
    ) -> np.ndarray:
        """Point ids within ``thresh`` of ``q`` (used by the Search method).

        With ``counters``, charges one node access and one pivot distance
        per visited node, and one distance and data access per leaf point
        compared against ``q``.
        """
        out: list[np.ndarray] = []
        stack = [0]
        while stack:
            i = stack.pop()
            dq = float(np.linalg.norm(q - self.pivot[i]))
            if counters is not None:
                counters.node_access += 1
                counters.dist += 1
            if dq - self.radius[i] > thresh:
                continue
            ids = self.perm[self.pt_start[i] : self.pt_end[i]]
            if dq + self.radius[i] <= thresh:
                out.append(ids)
            elif self.is_leaf(i):
                d = np.linalg.norm(X[ids] - q[None, :], axis=1)
                if counters is not None:
                    counters.dist += len(ids)
                    counters.data_access += len(ids)
                out.append(ids[d <= thresh])
            else:
                stack.extend(self.children(i).tolist())
        return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def build_tree(
    X: np.ndarray,
    split: Callable[[np.ndarray], Sequence[np.ndarray] | None],
    capacity: int,
) -> ArrayTree:
    """Generic top-down builder.

    ``split(idx)`` partitions a set of point indices into ≥2 groups, or
    returns ``None`` to force a leaf. Nodes with ≤ ``capacity`` points
    become leaves. Point slices are laid out contiguously per subtree so
    any node's covered set is one ``perm`` slice, recorded in
    ``pt_start``/``pt_end`` for every node.
    """
    n, d = X.shape
    pivot, radius, sv, num, psi, height = [], [], [], [], [], []
    childs: list[list[int]] = []
    pt_start, pt_end = [], []
    perm = np.empty(n, dtype=np.int64)
    cursor = 0

    def new_node(idx: np.ndarray, parent_pivot: np.ndarray | None, h: int) -> int:
        nonlocal cursor
        i = len(pivot)
        pts = X[idx]
        s = pts.sum(0)
        p = s / len(idx)
        r = float(np.sqrt(np.max(np.einsum("ij,ij->i", pts - p, pts - p)))) if len(idx) else 0.0
        pivot.append(p)
        sv.append(s)
        radius.append(r)
        num.append(len(idx))
        psi.append(0.0 if parent_pivot is None else float(np.linalg.norm(p - parent_pivot)))
        height.append(h)
        childs.append([])
        pt_start.append(-1)
        pt_end.append(-1)
        return i

    # Explicit stack to avoid Python recursion limits on skewed trees.
    root = new_node(np.arange(n), None, 0)
    stack: list[tuple[int, np.ndarray]] = [(root, np.arange(n))]
    while stack:
        i, idx = stack.pop()
        # The stack is LIFO, so the whole subtree of i is laid out before
        # any node pushed earlier: its points are the next len(idx) slots.
        pt_start[i] = cursor
        pt_end[i] = cursor + len(idx)
        groups = None
        if len(idx) > capacity:
            groups = split(idx)
            if groups is not None:
                groups = [g for g in groups if len(g) > 0]
                if len(groups) < 2:
                    groups = None
        if groups is None:
            perm[cursor : cursor + len(idx)] = idx
            cursor += len(idx)
            continue
        for g in groups:
            c = new_node(g, pivot[i], height[i] + 1)
            childs[i].append(c)
            stack.append((c, g))

    m = len(pivot)
    child_start = np.zeros(m + 1, dtype=np.int64)
    for i in range(m):
        child_start[i + 1] = child_start[i] + len(childs[i])
    child_idx = np.array(
        [c for cs in childs for c in cs], dtype=np.int64
    ) if child_start[-1] else np.empty(0, dtype=np.int64)
    return ArrayTree(
        pivot=np.asarray(pivot, dtype=np.float64),
        radius=np.asarray(radius, dtype=np.float64),
        sv=np.asarray(sv, dtype=np.float64),
        num=np.asarray(num, dtype=np.int64),
        psi=np.asarray(psi, dtype=np.float64),
        height=np.asarray(height, dtype=np.int64),
        child_start=child_start,
        child_idx=child_idx,
        pt_start=np.asarray(pt_start, dtype=np.int64),
        pt_end=np.asarray(pt_end, dtype=np.int64),
        perm=perm,
    )
