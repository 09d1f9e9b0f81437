"""Index substrate invariants (Definition 1): cover, radius, sv, num, ψ."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.index import (
    BALL_INDEXES,
    build_balltree,
    build_covertree,
    build_hkt,
    build_kdtree,
    build_mtree,
)


@pytest.fixture(scope="module")
def X():
    rng = np.random.default_rng(7)
    return np.vstack(
        [rng.normal(loc=rng.uniform(-5, 5, 5), size=(300, 5)) for _ in range(4)]
    )


BUILDERS = list(BALL_INDEXES.items())


@pytest.mark.parametrize("name,builder", BUILDERS)
def test_leaves_partition_points(X, name, builder):
    t = builder(X)
    leaves = np.where(t.leaf_mask())[0]
    pts = np.concatenate([t.leaf_points(i) for i in leaves])
    assert sorted(pts) == list(range(len(X)))


@pytest.mark.parametrize("name,builder", BUILDERS)
def test_radius_covers_points(X, name, builder):
    t = builder(X)
    for i in range(t.n_nodes):
        ids = t.perm[t.pt_start[i] : t.pt_end[i]]
        d = np.linalg.norm(X[ids] - t.pivot[i], axis=1)
        assert d.max() <= t.radius[i] + 1e-9


@pytest.mark.parametrize("name,builder", BUILDERS)
def test_sum_vector_and_num(X, name, builder):
    t = builder(X)
    for i in range(t.n_nodes):
        ids = t.perm[t.pt_start[i] : t.pt_end[i]]
        assert np.allclose(t.sv[i], X[ids].sum(0))
        assert t.num[i] == len(ids)
        assert np.allclose(t.pivot[i], t.sv[i] / t.num[i])


@pytest.mark.parametrize("name,builder", BUILDERS)
def test_psi_is_parent_distance(X, name, builder):
    t = builder(X)
    for i in range(t.n_nodes):
        for c in t.children(i):
            assert np.isclose(
                t.psi[c], np.linalg.norm(t.pivot[c] - t.pivot[i])
            )


@pytest.mark.parametrize("name,builder", BUILDERS)
def test_heights_increase_down(X, name, builder):
    t = builder(X)
    assert t.height[0] == 0
    for i in range(t.n_nodes):
        for c in t.children(i):
            assert t.height[c] == t.height[i] + 1


@pytest.mark.parametrize("name,builder", BUILDERS)
def test_spans_match_covered(X, name, builder):
    """Every node's perm slice is the union of the leaf slices under it."""
    t = builder(X)
    for i in range(t.n_nodes):
        under, stack = [], [i]
        while stack:
            j = stack.pop()
            if t.is_leaf(j):
                under.extend(t.leaf_points(j))
            else:
                stack.extend(t.children(j))
        assert sorted(t.perm[t.pt_start[i] : t.pt_end[i]]) == sorted(under)


@pytest.mark.parametrize("capacity", [1, 10, 30, 100])
def test_balltree_capacity(X, capacity):
    t = build_balltree(X, capacity=capacity)
    leaves = np.where(t.leaf_mask())[0]
    sizes = t.pt_end[leaves] - t.pt_start[leaves]
    assert sizes.max() <= max(capacity, 1)
    # fewer nodes with larger capacity
    t_small = build_balltree(X, capacity=1)
    assert t.n_nodes <= t_small.n_nodes


def test_kdtree_bboxes(X):
    kt = build_kdtree(X[:400], capacity=4)
    Y = X[:400]
    for i in range(kt.tree.n_nodes):
        ids = kt.tree.perm[kt.tree.pt_start[i] : kt.tree.pt_end[i]]
        assert (Y[ids] >= kt.bb_min[i] - 1e-12).all()
        assert (Y[ids] <= kt.bb_max[i] + 1e-12).all()


def test_kdtree_default_capacity_one(X):
    kt = build_kdtree(X[:100])
    leaves = kt.tree.leaf_mask()
    sizes = kt.tree.pt_end[leaves] - kt.tree.pt_start[leaves]
    assert sizes.max() == 1


@pytest.mark.parametrize("thresh", [0.5, 2.0, 10.0])
def test_range_search_matches_brute(X, thresh):
    t = build_balltree(X)
    q = X[17]
    got = sorted(t.range_search(X, q, thresh))
    ref = sorted(np.where(np.linalg.norm(X - q, axis=1) <= thresh)[0])
    assert got == ref


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), thresh=st.floats(0.1, 5.0))
def test_range_search_property(seed, thresh):
    rng = np.random.default_rng(seed)
    Y = rng.normal(size=(120, 3))
    t = build_balltree(Y, capacity=8)
    q = Y[rng.integers(120)]
    got = sorted(t.range_search(Y, q, thresh))
    ref = sorted(np.where(np.linalg.norm(Y - q, axis=1) <= thresh)[0])
    assert got == ref


def test_identical_points_become_leaf():
    Y = np.ones((50, 3))
    t = build_balltree(Y, capacity=10)
    assert t.n_nodes == 1
    assert t.radius[0] == 0.0


def test_nbytes_positive(X):
    assert build_balltree(X).nbytes() > 0
    assert build_kdtree(X[:50]).nbytes() > 0


def test_covertree_radius_halving(X):
    t = build_covertree(X)
    # children radii should generally be below their parent's radius
    for i in range(t.n_nodes):
        for c in t.children(i):
            assert t.radius[c] <= t.radius[i] + 1e-9
