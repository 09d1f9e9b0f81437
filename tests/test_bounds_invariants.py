"""Bound-validity invariants: every maintained lb lower-bounds and every
ub upper-bounds the true distances after each iteration (§4.1)."""
import numpy as np
import pytest

from repro.core.ctx import make_ctx
from repro.core.kernels import make_kernel
from repro.core.linalg import full_dists, kmeans_pp_init
from repro.core.metrics import Counters
from repro.synth_data import gaussian_mixture

TOL = 1e-7


@pytest.fixture(scope="module")
def setup():
    X = gaussian_mixture(n=1200, d=8, n_centers=10, cluster_std=0.8, seed=9)
    return X, kmeans_pp_init(X, 20, seed=2)


def _iterate(X, kernel, centers0, n_iters, callback):
    """Run the kernel manually with Lloyd-style refinement, calling
    ``callback(st, centers)`` after each assignment."""
    k = centers0.shape[0]
    st = kernel.init_state(X)
    centers, prev = centers0.copy(), centers0.copy()
    groups = None
    for t in range(n_iters):
        ctx = make_ctx(centers, prev, t, kernel.needs,
                       groups=groups if kernel.fixed_groups else None)
        if kernel.fixed_groups and groups is None:
            groups = ctx.groups
        kernel.assign(X, st, ctx, Counters())
        callback(st, centers)
        sv = np.zeros_like(centers)
        cnt = np.zeros(k)
        np.add.at(sv, st["a"], X)
        np.add.at(cnt, st["a"], 1)
        new = centers.copy()
        m = cnt > 0
        new[m] = sv[m] / cnt[m, None]
        prev, centers = centers, new


def test_hamerly_bounds_valid(setup):
    X, C0 = setup

    def check(st, centers):
        D = full_dists(X, centers)
        d1 = D.min(1)
        d2 = np.partition(D, 1, axis=1)[:, 1]
        da = D[np.arange(len(X)), st["a"]]
        assert (st["ub"] + TOL >= da).all(), "ub must bound assigned distance"
        assert (st["lb"] - TOL <= d2).all(), "lb must bound 2nd-nearest distance"

    _iterate(X, make_kernel("hame"), C0, 5, check)


def test_elkan_bounds_valid(setup):
    X, C0 = setup

    def check(st, centers):
        D = full_dists(X, centers)
        da = D[np.arange(len(X)), st["a"]]
        assert (st["ub"] + TOL >= da).all()
        assert (st["lb"] - TOL <= D).all(), "per-pair lb must bound distances"

    _iterate(X, make_kernel("elka"), C0, 5, check)


def test_drift_bounds_valid(setup):
    X, C0 = setup

    def check(st, centers):
        D = full_dists(X, centers)
        assert (st["lb"] - TOL <= D).all()

    _iterate(X, make_kernel("drift"), C0, 5, check)


def test_vector_bounds_valid(setup):
    X, C0 = setup

    def check(st, centers):
        D = full_dists(X, centers)
        assert (st["lb"] - TOL <= D).all()

    _iterate(X, make_kernel("vector"), C0, 5, check)


def test_yinyang_group_bounds_valid(setup):
    X, C0 = setup
    kern = make_kernel("yinyang")

    def check(st, centers):
        D = full_dists(X, centers)
        da = D[np.arange(len(X)), st["a"]]
        assert (st["ub"] + TOL >= da).all()
        groups = st["groups"]
        Dm = D.copy()
        Dm[np.arange(len(X)), st["a"]] = np.inf
        t = st["lbg"].shape[1]
        for g in range(t):
            cols = np.where(groups == g)[0]
            if len(cols):
                gmin = Dm[:, cols].min(1)
                assert (st["lbg"][:, g] - TOL <= gmin).all(), f"group {g}"

    _iterate(X, kern, C0, 5, check)


def test_drake_bounds_valid(setup):
    X, C0 = setup

    def check(st, centers):
        D = full_dists(X, centers)
        rows = np.arange(len(X))[:, None]
        stored = D[rows, st["bnd_ids"]]
        assert (st["bnd"] - TOL <= stored).all(), "stored bounds must hold"
        # lb_rest bounds every centroid outside {assigned} ∪ stored.
        mask = np.ones_like(D, dtype=bool)
        np.put_along_axis(mask, st["bnd_ids"], False, axis=1)
        mask[np.arange(len(X)), st["a"]] = False
        rest_min = np.where(mask, D, np.inf).min(1)
        assert (st["lb_rest"] - TOL <= rest_min).all()

    _iterate(X, make_kernel("drak"), C0, 5, check)


def test_annular_sec_is_upper_bound(setup):
    X, C0 = setup

    def check(st, centers):
        D = full_dists(X, centers)
        d2 = np.partition(D, 1, axis=1)[:, 1]
        # sec upper-bounds the distance to *some* pair-covering centroid,
        # hence max(ub, sec) must cover the true second distance.
        w = np.maximum(st["ub"], st["sec"])
        assert (w + TOL >= d2).all()

    _iterate(X, make_kernel("annu"), C0, 5, check)


def test_unik_point_bounds_valid(setup):
    X, C0 = setup

    def check(st, centers):
        pts = np.where(st["pt_mask"])[0]
        if len(pts) == 0:
            return
        D = full_dists(X[pts], centers)
        da = D[np.arange(len(pts)), st["a"][pts]]
        d2 = np.partition(D, 1, axis=1)[:, 1]
        assert (st["ub"][pts] + TOL >= da).all()
        assert (st["lb"][pts] - TOL <= d2).all()

    _iterate(X, make_kernel("unik"), C0, 5, check)


def test_unik_node_slack_sound(setup):
    """A positive cached slack must imply the whole node is correctly
    batch-assigned (every covered point's nearest centroid is the cached
    one)."""
    X, C0 = setup
    kern = make_kernel("unik")

    def check(st, centers):
        D = full_dists(X, centers)
        true_a = D.argmin(1)
        act = np.where(st["node_active"] & (st["node_slack"] > 0))[0]
        tree = st["tree"]
        for i in act:
            pts = tree.perm[tree.pt_start[i] : tree.pt_end[i]]
            assert (true_a[pts] == st["node_assigned"][i]).all()

    _iterate(X, kern, C0, 5, check)
