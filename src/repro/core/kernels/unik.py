"""UniK — the paper's unified node+point pruning pipeline (§5).

Nodes and points flow through the same global → local bound cascade,
with a node's radius r folded into the tests (r = 0 for points,
Equations 9–11). Concretely:

* **Batch assignment with cached slack.** When a node is assigned
  wholesale, we cache its *slack* — how far the runner-up lower bound
  exceeds ``d1 + 2r`` — and in later iterations decrement it by the
  worst-case drift (own centroid's drift + the largest other drift,
  Equation 10). While the slack stays positive the whole subtree is
  kept without touching a single distance.
* **Sound candidate inheritance.** Root traversals pass a shrinking
  candidate set down the tree together with ``excluded_lb`` — a lower
  bound on any covered point's distance to every *pruned* centroid —
  so cached slacks and leaf point bounds stay valid against all k
  centroids, not just the inherited candidates (the paper's Equation 12
  bound passing, realized through the ball geometry).
* **Per-point bounds at the frontier.** Leaves whose candidate set
  cannot be collapsed dissolve into individually-tracked points with
  Hamerly-style ub/lb bounds seeded from the node evaluation.
* **Adaptive traversal (§5.3).** Iteration 0 traverses from the root
  (index-multiple style); iteration 1 runs the flat cluster-object scan
  (index-single style); whichever was faster is used from iteration 2
  on, mirroring the paper's index-single / index-multiple switch.
"""
from __future__ import annotations

import numpy as np

from ...index import BALL_INDEXES
from ..ctx import IterCtx
from ..linalg import full_dists, pair_dists
from ..metrics import Counters
from .base import Kernel, register, top2_from_full


def _hamerly_points(X, idx, a, ub, lb, st, ctx, counters: Counters) -> None:
    """Hamerly cascade over the individually-tracked points."""
    if len(idx) == 0:
        return
    ub[idx] += ctx.delta[a[idx]]
    other_max = np.where(a[idx] == ctx.delta_arg1, ctx.delta_max2, ctx.delta_max1)
    lb[idx] -= other_max
    counters.bound_update += 2 * len(idx)
    thr = np.maximum(ctx.s[a[idx]], lb[idx])
    counters.bound_access += 2 * len(idx)
    cand = idx[ub[idx] > thr]
    if len(cand) == 0:
        return
    d_a = pair_dists(X, ctx.centers, cand, a[cand], counters, x2=st["x2"], c2=ctx.c2)
    ub[cand] = d_a
    fail = cand[d_a > np.maximum(ctx.s[a[cand]], lb[cand])]
    counters.bound_access += 2 * len(cand)
    if len(fail):
        D = full_dists(X[fail], ctx.centers, counters)
        na, d1, d2, _ = top2_from_full(D)
        a[fail], ub[fail], lb[fail] = na, d1, d2
        counters.bound_update += 2 * len(fail)


@register("unik")
class UniKKernel(Kernel):
    needs = frozenset({"cc", "s", "c2"})

    def __init__(self, index: str = "balltree", capacity: int = 30, seed: int = 0,
                 traversal: str = "adaptive"):
        if traversal not in ("adaptive", "index-single", "index-multiple"):
            raise ValueError(traversal)
        self.index = index
        self.capacity = capacity
        self.seed = seed
        self.traversal = traversal

    def init_state(self, X: np.ndarray) -> dict:
        tree = BALL_INDEXES[self.index](X, capacity=self.capacity, seed=self.seed)
        m = tree.n_nodes
        n = X.shape[0]
        return {
            "a": np.full(n, -1, dtype=np.int64),
            "tree": tree,
            "x2": np.einsum("ij,ij->i", X, X),
            "node_active": np.zeros(m, dtype=bool),    # batch-assigned subtree roots
            "node_assigned": np.full(m, -1, dtype=np.int64),
            "node_slack": np.zeros(m),                 # remaining Eq-10 slack
            "node_ub": np.zeros(m),                    # d(p, c_b) + r, drift-decayed
            "frontier": np.zeros(m, dtype=bool),       # leaves re-evaluated per iter
            "dissolved": np.zeros(m, dtype=bool),      # leaf handed to point bounds
            "pt_mask": np.zeros(n, dtype=bool),        # individually-tracked points
            "ub": np.zeros(n),
            "lb": np.zeros(n),
            "mode": None,
            "t_root": None,
            "t_flat": None,
        }

    # -- node evaluation --------------------------------------------------

    def _decay_slacks(self, st, ctx, counters: Counters) -> None:
        act = np.where(st["node_active"])[0]
        if len(act):
            ass = st["node_assigned"][act]
            other = np.where(ass == ctx.delta_arg1, ctx.delta_max2, ctx.delta_max1)
            st["node_slack"][act] -= ctx.delta[ass] + other
            counters.bound_update += len(act)
            counters.bound_access += len(act)
        ubn = np.where(st["node_active"] | st["frontier"])[0]
        if len(ubn):
            st["node_ub"][ubn] += ctx.delta[st["node_assigned"][ubn]]
            counters.bound_update += len(ubn)

    def _batch_assign(self, st, i, j) -> None:
        tree = st["tree"]
        lo, hi = tree.pt_start[i], tree.pt_end[i]
        pts = tree.perm[lo:hi]
        st["a"][pts] = j
        # Reclaim any individually-tracked points and cached descendants:
        # the whole subtree is now proven nearest to j, so their stale
        # bounds/assignments must not survive. Descendants always have a
        # larger node id (build order) and a span inside [lo, hi).
        if st["pt_mask"][pts].any():
            st["pt_mask"][pts] = False
        desc = np.where(
            (np.arange(tree.n_nodes) > i)
            & (tree.pt_start >= lo)
            & (tree.pt_end <= hi)
        )[0]
        if len(desc):
            st["dissolved"][desc] = False
            st["node_active"][desc] = False
            st["frontier"][desc] = False
        st["node_active"][i] = True
        st["frontier"][i] = False
        st["node_assigned"][i] = j

    def _eval_node(self, X, st, ctx, counters, i, cand, excl_lb, stack) -> None:
        """Evaluate node i against candidate set; batch-assign, recurse or dissolve."""
        tree = st["tree"]
        d = full_dists(tree.pivot[i : i + 1], ctx.centers[cand], c2=ctx.c2[cand])[0]
        counters.dist += len(cand)
        order = np.argsort(d)
        b = int(cand[order[0]])
        d1 = float(d[order[0]])
        d2 = float(d[order[1]]) if len(cand) > 1 else np.inf
        r = float(tree.radius[i])
        # Runner-up lower bound over ALL centroids for any covered point.
        runner_lb = min(d2 - r, excl_lb)
        slack = runner_lb - (d1 + r)
        if slack > 0:
            self._batch_assign(st, i, b)
            st["node_slack"][i] = slack
            st["node_ub"][i] = d1 + r
            return
        keep = d <= d1 + 2.0 * r
        cand2 = cand[keep]
        new_excl = min(excl_lb, float((d[~keep] - r).min()) if (~keep).any() else np.inf)
        if tree.is_leaf(i):
            pts = tree.perm[tree.pt_start[i] : tree.pt_end[i]]
            D = full_dists(
                X[pts], ctx.centers[cand2], counters, x2=st["x2"][pts], c2=ctx.c2[cand2]
            )
            na, pd1, pd2, _ = top2_from_full(D)
            st["a"][pts] = cand2[na]
            if len(cand2) > max(8, ctx.k // 4):
                # Poorly-pruned leaf: hand its points to per-point bounds
                # (the sequential side of the unified pipeline).
                st["ub"][pts] = pd1
                st["lb"][pts] = np.minimum(pd2, new_excl)
                st["pt_mask"][pts] = True
                st["dissolved"][i] = True
                st["frontier"][i] = False
                counters.bound_update += 2 * len(pts)
            else:
                # Well-pruned leaf: stays in the tree as a frontier node,
                # re-evaluated each iteration from its pivot ball.
                st["frontier"][i] = True
                st["node_assigned"][i] = b
                st["node_ub"][i] = d1 + r
        else:
            for c in tree.children(i):
                stack.append((int(c), cand2, new_excl))

    # -- passes ------------------------------------------------------------

    def _drain(self, X, st, ctx, counters, stack) -> None:
        while stack:
            i, cand, excl_lb = stack.pop()
            counters.node_access += 1
            if st["dissolved"][i]:
                continue  # its points are tracked individually
            if st["node_active"][i]:
                if st["node_slack"][i] > 0:
                    continue  # cached Eq-10 bound still holds — skip subtree
                st["node_active"][i] = False
            self._eval_node(X, st, ctx, counters, i, cand, excl_lb, stack)

    def _root_pass(self, X, st, ctx, counters: Counters) -> None:
        # Points dissolved in *earlier* iterations go through the bound
        # cascade; points dissolving during this pass get exact bounds.
        pts_prev = np.where(st["pt_mask"])[0]
        self._decay_slacks(st, ctx, counters)
        self._drain(X, st, ctx, counters, [(0, np.arange(ctx.k), np.inf)])
        _hamerly_points(X, pts_prev, st["a"], st["ub"], st["lb"], st, ctx, counters)

    def _flat_pass(self, X, st, ctx, counters: Counters) -> None:
        """Cluster-object scan: re-validate cached nodes without traversal."""
        pts_prev = np.where(st["pt_mask"])[0]
        self._decay_slacks(st, ctx, counters)
        failed = np.where(
            (st["node_active"] & (st["node_slack"] <= 0)) | st["frontier"]
        )[0]
        counters.node_access += int(st["node_active"].sum())
        st["node_active"][failed] = False
        # Exponion-style candidate ball around the node's cached centroid
        # (Eq. 6 applied to pivots): for any point under node i with
        # d(x, c_b) ≤ node_ub, the true nearest c* has cc(b, c*) ≤ 2·ub;
        # every excluded centroid is ≥ cc(b, j) − ub away from any such x.
        stack = []
        for i in failed:
            b = int(st["node_assigned"][i])
            ubn = float(st["node_ub"][i])
            if b >= 0 and ctx.cc is not None:
                ball = ctx.cc[b] <= 2.0 * ubn
                ball[b] = True
                cand = np.where(ball)[0]
                excl = ctx.cc[b][~ball]
                excl_lb = float(excl.min() - ubn) if len(excl) else np.inf
                counters.bound_access += ctx.k
            else:
                cand, excl_lb = np.arange(ctx.k), np.inf
            stack.append((int(i), cand, excl_lb))
        self._drain(X, st, ctx, counters, stack)
        _hamerly_points(X, pts_prev, st["a"], st["ub"], st["lb"], st, ctx, counters)

    def assign(self, X: np.ndarray, st: dict, ctx: IterCtx, counters: Counters) -> None:
        # The adaptive switch compares the *work* (cost-model units) of
        # the root traversal (iteration 0) vs the flat cluster-object
        # scan (iteration 1) — §5.3's index-multiple vs index-single.
        d = X.shape[1]
        w0 = counters.work_units(d)
        if ctx.iter_idx == 0:
            self._root_pass(X, st, ctx, counters)
            st["t_root"] = counters.work_units(d) - w0
            return
        if self.traversal == "index-multiple":
            self._root_pass(X, st, ctx, counters)
            return
        if self.traversal == "index-single":
            self._flat_pass(X, st, ctx, counters)
            return
        if ctx.iter_idx == 1:
            self._flat_pass(X, st, ctx, counters)
            st["t_flat"] = counters.work_units(d) - w0
            return
        if st["mode"] is None:
            st["mode"] = "root" if st["t_root"] <= st["t_flat"] else "flat"
        if st["mode"] == "root":
            self._root_pass(X, st, ctx, counters)
        else:
            self._flat_pass(X, st, ctx, counters)

    def footprint(self, st: dict) -> int:
        tot = st["tree"].nbytes()
        for key in ("ub", "lb", "node_slack", "node_assigned", "node_active",
                    "dissolved", "pt_mask", "x2"):
            tot += st[key].nbytes
        return tot
