"""Search — Broder et al.'s pre-assignment ranked retrieval (§3.2).

Before the sequential pass, a range search around each centroid c_j
with threshold s(j) = ‖c_j − c_nearest‖/2 finds points provably closer
to c_j than to any other centroid; those are assigned directly. The
remaining points fall back to a full sequential scan. Uses the
partition-local Ball-tree for the similarity searches.
"""
from __future__ import annotations

import numpy as np

from ...index.balltree import build_balltree
from ..ctx import IterCtx
from ..linalg import full_dists
from ..metrics import Counters
from .base import Kernel, register


@register("search")
class SearchKernel(Kernel):
    needs = frozenset({"cc", "s", "c2"})

    def __init__(self, capacity: int = 30):
        self.capacity = capacity

    def init_state(self, X: np.ndarray) -> dict:
        return {
            "a": np.full(X.shape[0], -1, dtype=np.int64),
            "tree": build_balltree(X, capacity=self.capacity),
        }

    def assign(self, X: np.ndarray, st: dict, ctx: IterCtx, counters: Counters) -> None:
        n, k = X.shape[0], ctx.k
        a = np.full(n, -1, dtype=np.int64)
        tree = st["tree"]
        for j in range(k):
            ids = tree.range_search(X, ctx.centers[j], float(ctx.s[j]), counters)
            ids = ids[a[ids] < 0]  # ball overlaps only at boundaries
            a[ids] = j
        rest = np.where(a < 0)[0]
        if len(rest):
            D = full_dists(X[rest], ctx.centers, counters)
            a[rest] = D.argmin(1)
        st["a"] = a

    def footprint(self, st: dict) -> int:
        return st["tree"].nbytes()
