"""Drak — Drake & Hamerly's adaptive-bound algorithm (§4.2.2).

Each point stores lower bounds for its b = ⌈k/4⌉ closest non-assigned
centroids (sorted), plus one bound ``lb_rest`` covering every centroid
outside the stored list. The cascade: stay if ``ub ≤ bnd[0]``; else
tighten ub; else compute exact distances to the assigned + b stored
centroids, which settles the assignment whenever the best distance is
still below ``lb_rest``; otherwise a full scan rebuilds the list.
"""
from __future__ import annotations

import numpy as np

from ..ctx import IterCtx
from ..linalg import full_dists, list_dists, pair_dists
from ..metrics import Counters
from .base import Kernel, register


@register("drak")
class DrakeKernel(Kernel):
    needs = frozenset({"cc", "s", "c2"})

    def init_state(self, X: np.ndarray) -> dict:
        n = X.shape[0]
        return {
            "a": np.full(n, -1, dtype=np.int64),
            "ub": np.zeros(n),
            "bnd_ids": None,   # n×b stored centroid ids (ascending distance)
            "bnd": None,       # n×b lower bounds for those centroids
            "lb_rest": np.zeros(n),
            "x2": np.einsum("ij,ij->i", X, X),
        }

    @staticmethod
    def _b(k: int) -> int:
        return max(1, min(k - 1, int(np.ceil(k / 4))))

    def _store_from_full(self, D, st, rows, counters):
        """(Re)build the sorted stored-bound lists from full distance rows."""
        b = self._b(D.shape[1])
        order = np.argsort(D, axis=1)
        ds = np.take_along_axis(D, order, axis=1)
        st["a"][rows] = order[:, 0]
        st["ub"][rows] = ds[:, 0]
        st["bnd_ids"][rows] = order[:, 1 : b + 1]
        st["bnd"][rows] = ds[:, 1 : b + 1]
        st["lb_rest"][rows] = ds[:, b + 1] if D.shape[1] > b + 1 else np.inf
        counters.bound_update += len(rows) * (b + 2)

    def assign(self, X: np.ndarray, st: dict, ctx: IterCtx, counters: Counters) -> None:
        n, k = X.shape[0], ctx.k
        b = self._b(k)
        if ctx.iter_idx == 0 or st["bnd"] is None:
            st["bnd_ids"] = np.zeros((n, b), dtype=np.int64)
            st["bnd"] = np.zeros((n, b))
            D = full_dists(X, ctx.centers, counters)
            self._store_from_full(D, st, np.arange(n), counters)
            return
        a, ub, bnd, ids, lb_rest = st["a"], st["ub"], st["bnd"], st["bnd_ids"], st["lb_rest"]
        ub += ctx.delta[a]
        bnd -= ctx.delta[ids]
        lb_rest -= ctx.delta_max1
        counters.bound_update += n * (b + 2)
        counters.bound_access += 2 * n
        # Per-centre drift adjustments break the stored sort order and
        # lb_rest can undercut every stored bound, so the stay test uses
        # the row minimum over stored bounds and lb_rest.
        thr = np.minimum(bnd.min(1), lb_rest)
        counters.bound_access += n * b
        cand = np.where(ub > thr)[0]
        if len(cand) == 0:
            return
        d_a = pair_dists(X, ctx.centers, cand, a[cand], counters, x2=st["x2"], c2=ctx.c2)
        ub[cand] = d_a
        counters.bound_update += len(cand)
        fail = cand[d_a > thr[cand]]
        if len(fail) == 0:
            return
        m = len(fail)
        # Exact distances to assigned + stored centroids (b+1 per point).
        all_ids = np.concatenate([a[fail, None], ids[fail]], axis=1)
        d = list_dists(X, ctx.centers, fail, all_ids, counters, x2=st["x2"], c2=ctx.c2)
        order = np.argsort(d, axis=1)
        ds = np.take_along_axis(d, order, axis=1)
        cs = np.take_along_axis(all_ids, order, axis=1)
        ok = ds[:, 0] <= lb_rest[fail]
        counters.bound_access += m
        # Settled within the stored list: bounds become exact distances.
        rows_ok = fail[ok]
        if len(rows_ok):
            a[rows_ok] = cs[ok, 0]
            ub[rows_ok] = ds[ok, 0]
            ids[rows_ok] = cs[ok, 1:]
            bnd[rows_ok] = ds[ok, 1:]
            counters.bound_update += len(rows_ok) * (b + 2)
        # Rest: full scan rebuilds the list and lb_rest.
        rows_bad = fail[~ok]
        if len(rows_bad):
            D = full_dists(X[rows_bad], ctx.centers, counters)
            self._store_from_full(D, st, rows_bad, counters)

    def footprint(self, st: dict) -> int:
        tot = st["ub"].nbytes + st["lb_rest"].nbytes + st["x2"].nbytes
        if st["bnd"] is not None:
            tot += st["bnd"].nbytes + st["bnd_ids"].nbytes
        return tot
