"""kd-tree (Bentley) with per-node bounding boxes (§3.1).

The paper notes kd-tree leaves cover a single point ([45]'s filtering
algorithm); we keep capacity=1 as the default but make it configurable.
Bounding boxes are stored alongside the shared :class:`ArrayTree` arrays
so the Kanungo corner-pruning rule can run during assignment.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ArrayTree, build_tree


@dataclass
class KDTree:
    tree: ArrayTree
    bb_min: np.ndarray  # (m, d)
    bb_max: np.ndarray  # (m, d)

    def nbytes(self) -> int:
        return self.tree.nbytes() + self.bb_min.nbytes + self.bb_max.nbytes


def build_kdtree(X: np.ndarray, capacity: int = 1, seed: int = 0) -> KDTree:
    X = np.ascontiguousarray(X, dtype=np.float64)

    def split(idx: np.ndarray):
        pts = X[idx]
        spread = pts.max(0) - pts.min(0)
        dim = int(spread.argmax())
        if spread[dim] <= 0:
            return None
        order = np.argsort(pts[:, dim], kind="stable")
        half = len(idx) // 2
        return [idx[order[:half]], idx[order[half:]]]

    tree = build_tree(X, split, capacity)
    m = tree.n_nodes
    d = X.shape[1]
    bb_min = np.empty((m, d))
    bb_max = np.empty((m, d))
    # Every node's covered set is one contiguous perm slice (per-subtree
    # layout guaranteed by build_tree), so boxes come from slice min/max.
    for i in range(m):
        pts = X[tree.perm[tree.pt_start[i] : tree.pt_end[i]]]
        bb_min[i] = pts.min(0)
        bb_max[i] = pts.max(0)
    return KDTree(tree=tree, bb_min=bb_min, bb_max=bb_max)
