"""Unit tests for distance primitives, seeding and SSE."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.linalg import (
    candidate_dists,
    cdist_cc,
    full_dists,
    kmeans_pp_init,
    list_dists,
    pair_dists,
    random_init,
    sse,
)
from repro.core.metrics import Counters


def _brute(X, C):
    return np.linalg.norm(X[:, None, :] - C[None, :, :], axis=2)


@pytest.fixture(scope="module")
def xc():
    rng = np.random.default_rng(0)
    return rng.normal(size=(50, 7)), rng.normal(size=(9, 7))


def test_full_dists_matches_brute(xc):
    X, C = xc
    assert np.allclose(full_dists(X, C), _brute(X, C))


def test_full_dists_counts(xc):
    X, C = xc
    c = Counters()
    full_dists(X, C, c)
    assert c.dist == 50 * 9
    assert c.data_access == 50 * 9


def test_pair_dists_matches_brute(xc):
    X, C = xc
    rng = np.random.default_rng(1)
    rows = rng.integers(0, 50, 40)
    cols = rng.integers(0, 9, 40)
    ref = _brute(X, C)[rows, cols]
    assert np.allclose(pair_dists(X, C, rows, cols), ref)


def test_pair_dists_with_cached_norms(xc):
    """pair_dists takes the norms of all of X and C; full_dists those of
    the rows it is given, down to one row (how a tree node's pivot is
    evaluated)."""
    X, C = xc
    x2 = np.einsum("ij,ij->i", X, X)
    c2 = np.einsum("ij,ij->i", C, C)
    rows = np.array([0, 3, 10])
    cols = np.array([1, 2, 8])
    ref = _brute(X, C)
    assert np.allclose(pair_dists(X, C, rows, cols, x2=x2, c2=c2), ref[rows, cols])
    for r in (rows, rows[:1]):
        got = full_dists(X[r], C[cols], x2=x2[r], c2=c2[cols])
        assert np.allclose(got, ref[np.ix_(r, cols)])


def test_list_dists_matches_brute(xc):
    """Each point against its own centroid list; counts one per pair."""
    X, C = xc
    rng = np.random.default_rng(3)
    rows = rng.choice(50, 12, replace=False)
    ids = rng.integers(0, 9, (12, 4))
    c = Counters()
    got = list_dists(X, C, rows, ids, c)
    assert np.allclose(got, _brute(X, C)[rows[:, None], ids])
    assert c.dist == c.data_access == ids.size


def test_pair_dists_empty(xc):
    X, C = xc
    out = pair_dists(X, C, np.empty(0, dtype=int), np.empty(0, dtype=int))
    assert out.size == 0


@pytest.mark.parametrize("density", [0.05, 0.5, 1.0])
def test_candidate_dists_sparse_dense_agree(xc, density):
    X, C = xc
    rng = np.random.default_rng(2)
    r1 = np.arange(30)
    M = rng.random((30, 9)) < density
    rr, cols = np.nonzero(M)
    ref = _brute(X[r1], C)[rr, cols]
    got = candidate_dists(X, C, r1, rr, cols, Counters())
    assert np.allclose(got, ref)
    if density > 0.35:  # dense branch: the rows' full grid, then the pairs
        assert np.array_equal(got, full_dists(X[r1], C)[rr, cols])


def test_candidate_dists_counts_only_pairs(xc):
    X, C = xc
    r1 = np.arange(30)
    rr, cols = np.nonzero(np.ones((30, 9), dtype=bool))  # dense path
    c = Counters()
    candidate_dists(X, C, r1, rr, cols, c)
    assert c.dist == len(rr)


def test_cdist_cc_symmetric(xc):
    _, C = xc
    D = cdist_cc(C, C)
    assert np.allclose(D, D.T)
    assert np.allclose(np.diag(D), 0.0)


@pytest.mark.parametrize("k", [1, 3, 10])
def test_kmeanspp_deterministic_and_valid(xc, k):
    X, _ = xc
    C1 = kmeans_pp_init(X, k, seed=5)
    C2 = kmeans_pp_init(X, k, seed=5)
    assert np.array_equal(C1, C2)
    assert C1.shape == (k, X.shape[1])
    # every centroid is an input point
    for c in C1:
        assert np.any(np.all(np.isclose(X, c), axis=1))


def test_kmeanspp_different_seeds_differ(xc):
    X, _ = xc
    assert not np.array_equal(kmeans_pp_init(X, 5, 0), kmeans_pp_init(X, 5, 1))


def test_random_init_unique_rows(xc):
    X, _ = xc
    C = random_init(X, 10, seed=3)
    assert len(np.unique(C, axis=0)) == 10


def test_sse_zero_for_self_centers():
    X = np.arange(12, dtype=float).reshape(4, 3)
    assert sse(X, X.copy(), np.arange(4)) == 0.0


def test_sse_matches_manual():
    X = np.array([[0.0, 0.0], [2.0, 0.0]])
    C = np.array([[1.0, 0.0]])
    a = np.zeros(2, dtype=int)
    assert np.isclose(sse(X, C, a), 2.0)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 30),
    d=st.integers(1, 6),
    k=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
def test_full_dists_property(n, d, k, seed):
    rng = np.random.default_rng(seed)
    X, C = rng.normal(size=(n, d)), rng.normal(size=(k, d))
    assert np.allclose(full_dists(X, C), _brute(X, C), atol=1e-8)
