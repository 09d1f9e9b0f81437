"""LocalRunner semantics: refinement, convergence, counters, timings."""
import numpy as np
import pytest

from repro.core.kernels import make_kernel
from repro.core.runner import LocalRunner, _refine_increment
from repro.core.metrics import Counters
from repro.synth_data import gaussian_mixture


@pytest.fixture(scope="module")
def X():
    return gaussian_mixture(n=1500, d=5, n_centers=8, cluster_std=0.7, seed=4)


def test_sse_non_increasing(X):
    """Lloyd's SSE is monotone non-increasing across iterations."""
    r = LocalRunner()
    prev_sse = np.inf
    for t in range(1, 8):
        res = r.run(X, 10, make_kernel("lloyd"), n_iters=t, seed=0)
        assert res.sse <= prev_sse + 1e-6
        prev_sse = res.sse


def test_convergence_stops_early(X):
    res = LocalRunner().run(X, 4, make_kernel("lloyd"), n_iters=100, seed=0)
    assert res.iters_run < 100


def test_incremental_refinement_matches_full(X):
    """The sum-vector update with only moved points equals a recompute."""
    rng = np.random.default_rng(0)
    k = 6
    a_prev = rng.integers(0, k, len(X))
    a_new = a_prev.copy()
    flip = rng.choice(len(X), 200, replace=False)
    a_new[flip] = rng.integers(0, k, 200)
    sv = np.zeros((k, X.shape[1]))
    cnt = np.zeros(k)
    np.add.at(sv, a_prev, X)
    np.add.at(cnt, a_prev, 1)
    _refine_increment(X, a_prev, a_new, sv, cnt, Counters())
    sv_ref = np.zeros_like(sv)
    cnt_ref = np.zeros_like(cnt)
    np.add.at(sv_ref, a_new, X)
    np.add.at(cnt_ref, a_new, 1)
    assert np.allclose(sv, sv_ref)
    assert np.allclose(cnt, cnt_ref)


def test_refine_counts_only_moved(X):
    c = Counters()
    a = np.zeros(len(X), dtype=np.int64)
    b = a.copy()
    b[:10] = 1
    sv = np.zeros((2, X.shape[1]))
    cnt = np.zeros(2)
    np.add.at(sv, a, X)
    np.add.at(cnt, a, 1)
    _refine_increment(X, a, b, sv, cnt, c)
    assert c.data_access == 10


def test_traditional_and_incremental_refine_agree(X):
    """Lloyd (traditional refinement) and Hamerly (incremental) must
    produce identical centroids — the refinement styles are equivalent."""
    r = LocalRunner()
    a = r.run(X, 7, make_kernel("lloyd"), n_iters=6, seed=5)
    b = r.run(X, 7, make_kernel("hame"), n_iters=6, seed=5)
    assert np.allclose(a.centers, b.centers)
    # but Lloyd re-reads every point each refinement
    assert a.counters.data_access > b.counters.data_access


def test_empty_cluster_keeps_centroid(X):
    """A centroid with no members keeps its position (no NaNs)."""
    far = np.full((1, X.shape[1]), 1e6)
    centers0 = np.vstack([X[:3], far])
    res = LocalRunner().run(X, 4, make_kernel("lloyd"), n_iters=3, centers0=centers0)
    assert np.isfinite(res.centers).all()
    assert np.allclose(res.centers[3], far[0])


def test_fixed_centers0_reproducible(X):
    r = LocalRunner()
    c0 = X[:5].copy()
    a = r.run(X, 5, make_kernel("lloyd"), n_iters=5, centers0=c0)
    b = r.run(X, 5, make_kernel("hame"), n_iters=5, centers0=c0)
    assert np.allclose(a.centers, b.centers)


@pytest.mark.parametrize(
    "Xb,k,centers0,match",
    [
        (np.empty((0, 3)), 1, None, "non-empty 2-D"),
        (np.arange(6.0), 2, None, "non-empty 2-D"),
        (np.array([[0.0, 1.0], [np.nan, 2.0], [3.0, 4.0]]), 2, None, "X holds non-finite"),
        (np.eye(3), 2, np.full((2, 3), np.inf), "centers0 holds non-finite"),
        (np.eye(3), 0, None, "k must be"),
        (np.eye(3), 4, None, "k must be"),
    ],
    ids=["empty", "1-d", "nan-X", "inf-centers0", "k=0", "k>n"],
)
def test_run_rejects_bad_input(Xb, k, centers0, match):
    with pytest.raises(ValueError, match=match):
        LocalRunner().run(Xb, k, make_kernel("lloyd"), n_iters=2, centers0=centers0)


def test_counters_populated(X):
    res = LocalRunner().run(X, 8, make_kernel("yinyang"), n_iters=5, seed=1)
    c = res.counters
    assert c.dist > 0 and c.bound_access > 0 and c.bound_update > 0
    assert c.assign_time > 0 and c.refine_time >= 0
    assert c.footprint_bytes > 0
    assert len(res.assign_times) == res.iters_run
    assert res.total_time >= c.assign_time


def test_lloyd_distance_count_exact(X):
    k, iters = 7, 4
    res = LocalRunner().run(X, k, make_kernel("lloyd"), n_iters=iters, seed=0)
    assert res.counters.dist == len(X) * k * res.iters_run


def test_pruned_fraction_range(X):
    res = LocalRunner().run(X, 10, make_kernel("hame"), n_iters=6, seed=0)
    p = res.counters.pruned_fraction(len(X), 10, res.iters_run)
    assert 0.0 < p < 1.0


def test_work_units_monotone_in_dist():
    a = Counters(dist=100)
    b = Counters(dist=200)
    assert b.work_units(8) > a.work_units(8)


def test_counters_add():
    a = Counters(dist=1, bound_access=2, footprint_bytes=10)
    b = Counters(dist=3, bound_access=4, footprint_bytes=7)
    c = a + b
    assert c.dist == 4 and c.bound_access == 6
    assert c.footprint_bytes == 10  # gauge: max, not sum
