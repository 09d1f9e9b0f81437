"""INDE — pure index-based batch assignment (§3.1, Moore [51] / Kanungo [45]).

Each partition builds its tree once; every iteration traverses from the
root carrying a shrinking candidate-centroid set. For ball-shaped
nodes, centroid j is pruned when ``d(p, c_j) > d(p, c_b) + 2r`` (the
general form of Equation 2); a node whose candidate set collapses to
one centroid is assigned wholesale. kd-tree nodes use the Kanungo
corner rule on the bounding box instead.
"""
from __future__ import annotations

import numpy as np

from ...index import BALL_INDEXES, build_kdtree
from ..ctx import IterCtx
from ..linalg import full_dists
from ..metrics import Counters
from .base import Kernel, register


class _TreeKernel(Kernel):
    """The traversal both index kernels share; they differ in ``_prune``.

    ``st["tree"]`` is the partition's :class:`~repro.index.ArrayTree`.
    """

    needs = frozenset({"c2"})

    def _prune(
        self, st: dict, i: int, cand: np.ndarray, ctx: IterCtx, counters: Counters
    ) -> np.ndarray:
        """The candidates of ``cand`` that may be nearest to a point of node ``i``."""
        raise NotImplementedError

    def assign(self, X: np.ndarray, st: dict, ctx: IterCtx, counters: Counters) -> None:
        tree, a = st["tree"], st["a"]
        stack: list[tuple[int, np.ndarray]] = [(0, np.arange(ctx.k))]
        while stack:
            i, cand = stack.pop()
            counters.node_access += 1
            cand2 = self._prune(st, i, cand, ctx, counters)
            pts = tree.perm[tree.pt_start[i] : tree.pt_end[i]]
            if len(cand2) == 1:
                a[pts] = cand2[0]
            elif tree.is_leaf(i):
                D = full_dists(X[pts], ctx.centers[cand2], counters, c2=ctx.c2[cand2])
                a[pts] = cand2[D.argmin(1)]
            else:
                stack.extend((int(c), cand2) for c in tree.children(i))

    def footprint(self, st: dict) -> int:
        # The base sums the state's other arrays (the kd boxes).
        return st["tree"].nbytes() + super().footprint(st)


@register("index")
class IndexKernel(_TreeKernel):
    """Pluggable ball-index kernel: balltree (default), hkt, mtree, covertree."""

    def __init__(self, index: str = "balltree", capacity: int = 30, seed: int = 0):
        if index not in BALL_INDEXES:
            raise KeyError(f"unknown ball index {index!r}")
        self.index = index
        self.capacity = capacity
        self.seed = seed

    def init_state(self, X: np.ndarray) -> dict:
        return {
            "a": np.full(X.shape[0], -1, dtype=np.int64),
            "tree": BALL_INDEXES[self.index](X, capacity=self.capacity, seed=self.seed),
        }

    def _prune(self, st, i, cand, ctx, counters):
        tree = st["tree"]
        d = full_dists(tree.pivot[i : i + 1], ctx.centers[cand], c2=ctx.c2[cand])[0]
        counters.dist += len(cand)
        return cand[d <= d.min() + 2.0 * tree.radius[i]]


@register("kdindex")
class KDIndexKernel(_TreeKernel):
    """kd-tree filtering algorithm (Kanungo et al. [45])."""

    def __init__(self, capacity: int = 1, seed: int = 0):
        self.capacity = capacity
        self.seed = seed

    def init_state(self, X: np.ndarray) -> dict:
        kt = build_kdtree(X, capacity=self.capacity, seed=self.seed)
        return {
            "a": np.full(X.shape[0], -1, dtype=np.int64),
            "tree": kt.tree,
            "bb_min": kt.bb_min,
            "bb_max": kt.bb_max,
        }

    def _prune(self, st, i, cand, ctx, counters):
        lo_box, hi_box = st["bb_min"][i], st["bb_max"][i]
        mid = 0.5 * (lo_box + hi_box)
        Cc = ctx.centers[cand]
        dmid = np.einsum("ij,ij->i", Cc - mid, Cc - mid)
        zstar = int(dmid.argmin())
        zc = Cc[zstar]
        # Kanungo corner rule: z is dominated by z* over the whole box
        # iff the extreme corner v (towards z) is closer to z*.
        v = np.where(Cc > zc[None, :], hi_box[None, :], lo_box[None, :])
        dz = np.einsum("ij,ij->i", Cc - v, Cc - v)
        dzs = np.einsum("ij,ij->i", zc[None, :] - v, zc[None, :] - v)
        counters.dist += 3 * len(cand)
        keep = dz < dzs
        keep[zstar] = True
        return cand[keep]
