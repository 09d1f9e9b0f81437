"""Pami20 — Xia et al.'s bound-free adaptive method (§4.2.5).

No per-point bounds at all. Each iteration: compute every point's exact
distance to its current centroid (n distances), derive each cluster's
radius ``ra`` (max member distance), and build per-cluster candidate
sets ``N_a = { j : ‖c_j − c_a‖ / 2 ≤ ra }`` (Equation 4) — any centroid
outside is provably farther than c_a for every member. Points then only
compare against their cluster's candidates.
"""
from __future__ import annotations

import numpy as np

from ..ctx import IterCtx
from ..linalg import full_dists, pair_dists
from ..metrics import Counters
from .base import Kernel, register


@register("pami20")
class Pami20Kernel(Kernel):
    needs = frozenset({"cc", "s", "c2"})

    def init_state(self, X: np.ndarray) -> dict:
        return {
            "a": np.full(X.shape[0], -1, dtype=np.int64),
            "x2": np.einsum("ij,ij->i", X, X),
        }

    def assign(self, X: np.ndarray, st: dict, ctx: IterCtx, counters: Counters) -> None:
        n, k = X.shape[0], ctx.k
        a = st["a"]
        if ctx.iter_idx == 0 or a[0] < 0:
            D = full_dists(X, ctx.centers, counters)
            st["a"] = D.argmin(1).astype(np.int64)
            return
        d_a = pair_dists(X, ctx.centers, np.arange(n), a, counters, x2=st["x2"], c2=ctx.c2)
        ra = np.zeros(k)
        np.maximum.at(ra, a, d_a)
        best = d_a.copy()
        arg = a.copy()
        for j in np.unique(a):
            rows = np.where(a == j)[0]
            cand = np.where(0.5 * ctx.cc[j] <= ra[j])[0]
            cand = cand[cand != j]
            if len(cand) == 0:
                continue
            D = full_dists(
                X[rows], ctx.centers[cand], counters, x2=st["x2"][rows], c2=ctx.c2[cand]
            )
            dmin = D.min(1)
            amin = cand[D.argmin(1)]
            upd = dmin < best[rows]
            best[rows[upd]] = dmin[upd]
            arg[rows[upd]] = amin[upd]
        st["a"] = arg
