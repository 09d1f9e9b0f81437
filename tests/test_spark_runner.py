"""SparkRunner ≡ LocalRunner: the distributed pipeline (mapPartitions
step, dense partials collected and summed in partition order by the
driver loop both runners share) must not change any result (exact
k-means is partition-independent)."""
import numpy as np
import pytest

from repro.core.kernels import make_kernel
from repro.core.runner import LocalRunner, SparkRunner
from repro.synth_data import gaussian_mixture


@pytest.fixture(scope="module")
def X():
    return gaussian_mixture(n=3000, d=6, n_centers=10, cluster_std=0.8, seed=5)


@pytest.mark.parametrize(
    "method", ["lloyd", "hame", "elka", "yinyang", "drak", "heap", "index", "unik"]
)
def test_spark_matches_local(spark, X, method):
    local = LocalRunner().run(X, 15, make_kernel(method), n_iters=6, seed=1)
    dist = SparkRunner(spark, n_partitions=4).run(
        X, 15, make_kernel(method), n_iters=6, seed=1
    )
    assert np.allclose(local.centers, dist.centers)
    assert (local.assign == dist.assign).all()
    assert np.isclose(local.sse, dist.sse)


@pytest.mark.parametrize("n_partitions", [1, 3, 8])
def test_partition_count_invariance(spark, X, n_partitions):
    ref = LocalRunner().run(X, 8, make_kernel("yinyang"), n_iters=5, seed=0)
    got = SparkRunner(spark, n_partitions=n_partitions).run(
        X, 8, make_kernel("yinyang"), n_iters=5, seed=0
    )
    if n_partitions == 1:
        # one partition through the shared loop: the same arithmetic
        assert np.array_equal(ref.centers, got.centers)
    else:
        assert np.allclose(ref.centers, got.centers)


def test_spark_runs_deterministic(spark, X):
    """Partials are summed in partition order, so reruns are bit-identical."""
    a, b = (
        SparkRunner(spark, n_partitions=4).run(
            X, 12, make_kernel("yinyang"), n_iters=6, seed=3
        )
        for _ in range(2)
    )
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.assign, b.assign)


def test_spark_run_releases_cached_state(spark, X, monkeypatch):
    """Cached RDDs are released after a run, also after one that raised."""
    import repro.core.runner as runner_mod

    persistent = spark.sparkContext._jsc.getPersistentRDDs
    before = persistent().size()
    SparkRunner(spark, n_partitions=2).run(X, 5, make_kernel("lloyd"), n_iters=3)
    assert persistent().size() == before

    make_ctx = runner_mod.make_ctx

    def failing_make_ctx(centers, prev, t, *args, **kwargs):
        if t == 2:
            raise RuntimeError("injected")
        return make_ctx(centers, prev, t, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "make_ctx", failing_make_ctx)
    with pytest.raises(RuntimeError, match="injected"):
        SparkRunner(spark, n_partitions=2).run(X, 5, make_kernel("lloyd"), n_iters=5)
    assert persistent().size() == before


def test_spark_counters_match_local_distances(spark, X):
    """Distance counts are partition-decomposable: totals must agree."""
    local = LocalRunner().run(X, 10, make_kernel("hame"), n_iters=5, seed=2)
    dist = SparkRunner(spark, n_partitions=4).run(
        X, 10, make_kernel("hame"), n_iters=5, seed=2
    )
    # same iterations, same pruning decisions per point → same counts
    assert dist.counters.dist == local.counters.dist
    assert dist.counters.data_access == local.counters.data_access


def test_spark_timings_recorded(spark, X):
    res = SparkRunner(spark, n_partitions=2).run(
        X, 6, make_kernel("lloyd"), n_iters=3, seed=0
    )
    assert res.counters.assign_time > 0
    assert len(res.iter_times) == res.iters_run
