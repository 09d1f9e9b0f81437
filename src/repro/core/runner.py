"""Drive k-means iterations over a kernel: locally or on Spark.

One driver loop (``_Runner.run``) serves both runners and follows the
paper's incremental refinement (§5.1.2):

1. Build the per-iteration :class:`IterCtx` on the driver (centroid
   drifts, cc-matrix, groups, …).
2. Each partition runs ``kernel.assign`` over its block and
   incrementally updates its per-cluster sum vectors/counts with only
   the points that changed cluster (the paper's sum-vector refinement —
   no second pass over the data). It returns a dense partial: its k×d
   sum vectors, its k counts and its counters.
3. The driver sums the partials in partition order, so the result does
   not depend on task scheduling, and divides the sum vectors of the
   non-empty clusters by their counts to refine the centroids.

The runners differ only in where the partitions live. ``LocalRunner``
keeps one in-process partition. ``SparkRunner`` keeps points + bound
state in a cached RDD of partition payloads, broadcasts each ctx, maps
the step with ``mapPartitions`` and ``collect``s the partials — one
Spark job per iteration — and unpersists the previous state.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .ctx import IterCtx, make_ctx
from .kernels.base import Kernel
from .linalg import kmeans_pp_init, random_init, sse
from .metrics import Counters


@dataclass
class RunResult:
    centers: np.ndarray
    counters: Counters
    iters_run: int
    assign_times: list[float] = field(default_factory=list)
    refine_times: list[float] = field(default_factory=list)
    iter_times: list[float] = field(default_factory=list)
    assign: np.ndarray | None = None   # final assignment
    sse: float = float("nan")

    @property
    def total_time(self) -> float:
        return float(sum(self.iter_times))


def _init_centers(X: np.ndarray, k: int, seed: int, init: str) -> np.ndarray:
    if init == "kmeans++":
        return kmeans_pp_init(X, k, seed)
    if init == "random":
        return random_init(X, k, seed)
    raise ValueError(f"unknown init {init!r}")


def _refine_traditional(
    X: np.ndarray,
    a_new: np.ndarray,
    sv: np.ndarray,
    cnt: np.ndarray,
    counters: Counters,
) -> None:
    """Classic refinement: re-read every point and rebuild the sums."""
    sv[:] = 0.0
    cnt[:] = 0.0
    np.add.at(sv, a_new, X)
    np.add.at(cnt, a_new, 1)
    counters.data_access += len(a_new)


def _refine_increment(
    X: np.ndarray,
    a_prev: np.ndarray,
    a_new: np.ndarray,
    sv: np.ndarray,
    cnt: np.ndarray,
    counters: Counters,
) -> None:
    """Update per-cluster sum vectors with only the moved points."""
    moved = np.where(a_prev != a_new)[0]
    if len(moved) == 0:
        return
    pts = X[moved]
    old = a_prev[moved]
    valid = old >= 0
    if valid.any():
        np.subtract.at(sv, old[valid], pts[valid])
        np.subtract.at(cnt, old[valid], 1)
    np.add.at(sv, a_new[moved], pts)
    np.add.at(cnt, a_new[moved], 1)
    counters.data_access += len(moved)


def _init_payload(X: np.ndarray, k: int, kernel: Kernel) -> dict:
    """One partition's state: its points, kernel state and running sums."""
    return {
        "X": X,
        "st": kernel.init_state(X),
        "sv": np.zeros((k, X.shape[1])),
        "cnt": np.zeros(k),
    }


def _step(payload: dict, kernel: Kernel, ctx: IterCtx):
    """One partition's assignment + refinement; returns its dense partial.

    ``payload`` is updated in place. The partial is ``(sv, cnt, counters)``
    with the sum-vector rows of empty clusters zeroed, so round-off left
    there by the incremental updates never reaches the driver.
    """
    X, st, sv, cnt = payload["X"], payload["st"], payload["sv"], payload["cnt"]
    c = Counters()
    a_prev = st["a"].copy()
    t0 = time.perf_counter()
    kernel.assign(X, st, ctx, c)
    c.assign_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    if kernel.traditional_refine:
        _refine_traditional(X, st["a"], sv, cnt, c)
    else:
        _refine_increment(X, a_prev, st["a"], sv, cnt, c)
    c.refine_time = time.perf_counter() - t0
    c.footprint_bytes = kernel.footprint(st)
    part_sv = sv.copy()
    part_sv[cnt == 0] = 0.0
    return part_sv, cnt.copy(), c


class _Runner:
    """The driver loop both runners share.

    Subclasses supply ``_partitions(X, k, kernel)``: a context manager
    that sets up the partition payloads and yields ``(step, final_assign)``.
    ``step(ctx)`` applies :func:`_step` to every partition and returns
    the partials in partition order; ``final_assign()`` returns the
    assignment of all points. Leaving the context releases the state.
    """

    def run(
        self,
        X: np.ndarray,
        k: int,
        kernel: Kernel,
        n_iters: int = 10,
        seed: int = 0,
        init: str = "kmeans++",
        centers0: np.ndarray | None = None,
    ) -> RunResult:
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.size == 0:
            raise ValueError(f"X must be a non-empty 2-D array, got shape {X.shape}")
        if not np.isfinite(X).all():
            raise ValueError("X holds non-finite values")
        if centers0 is not None and not np.isfinite(centers0).all():
            raise ValueError("centers0 holds non-finite values")
        if not 1 <= k <= X.shape[0]:
            raise ValueError(f"k must be in [1, n={X.shape[0]}], got {k}")
        centers = (
            centers0.astype(np.float64).copy()
            if centers0 is not None
            else _init_centers(X, k, seed, init)
        )
        k = centers.shape[0]
        groups_cache = None
        prev = centers.copy()
        res = RunResult(centers=centers, counters=Counters(), iters_run=0)
        with self._partitions(X, k, kernel) as (step, final_assign):
            for t in range(n_iters):
                t_iter = time.perf_counter()
                ctx = make_ctx(
                    centers, prev, t, kernel.needs,
                    groups=groups_cache if kernel.fixed_groups else None,
                )
                if kernel.fixed_groups and groups_cache is None:
                    groups_cache = ctx.groups
                partials = step(ctx)
                t0 = time.perf_counter()  # driver-side combine
                sv = np.zeros_like(centers)
                cnt = np.zeros(k)
                step_c = Counters(dist=ctx.driver_dist)
                for p_sv, p_cnt, c in partials:
                    sv += p_sv
                    cnt += p_cnt
                    step_c += c
                nonempty = cnt > 0
                new_centers = centers.copy()
                new_centers[nonempty] = sv[nonempty] / cnt[nonempty, None]
                # Partitions run in parallel, so a phase lasts as long as
                # its slowest partition.
                step_c.assign_time = max(c.assign_time for *_, c in partials)
                step_c.refine_time = max(c.refine_time for *_, c in partials) + (
                    time.perf_counter() - t0
                )
                res.counters += step_c
                prev, centers = centers, new_centers
                res.assign_times.append(step_c.assign_time)
                res.refine_times.append(step_c.refine_time)
                res.iter_times.append(time.perf_counter() - t_iter)
                res.iters_run = t + 1
                if t > 0 and np.array_equal(prev, centers):
                    break
            res.assign = final_assign()
        res.centers = centers
        res.sse = sse(X, centers, res.assign)
        return res


class LocalRunner(_Runner):
    """Single-process reference runner (used by tests and the tuner)."""

    @contextmanager
    def _partitions(self, X: np.ndarray, k: int, kernel: Kernel):
        payload = _init_payload(X, k, kernel)
        yield (lambda ctx: [_step(payload, kernel, ctx)]), (lambda: payload["st"]["a"])


class SparkRunner(_Runner):
    """Distributed runner: cached partition-state RDD, partials collected."""

    def __init__(self, spark, n_partitions: int = 8):
        self.spark = spark
        self.n_partitions = n_partitions

    @contextmanager
    def _partitions(self, X: np.ndarray, k: int, kernel: Kernel):
        sc = self.spark.sparkContext
        blocks = np.array_split(X, self.n_partitions)
        rdd = sc.parallelize(blocks, len(blocks)).mapPartitions(
            lambda it: [_init_payload(b, k, kernel) for b in it],
            preservesPartitioning=True,
        ).cache()
        prev_cached = rdd
        kernel_bc = sc.broadcast(kernel)
        ctx_bcs: list = []

        def step(ctx: IterCtx) -> list:
            nonlocal rdd, prev_cached
            ctx_bc = sc.broadcast(ctx)
            ctx_bcs.append(ctx_bc)
            new_rdd = rdd.mapPartitions(
                lambda it, _k=kernel_bc, _c=ctx_bc: [
                    (p, _step(p, _k.value, _c.value)) for p in it
                ],
                preservesPartitioning=True,
            ).cache()
            # Truncate lineage at this iteration's state so the previous
            # iteration's ctx broadcast can be destroyed and closure
            # serialization stays O(1) in the iteration count.
            new_rdd.localCheckpoint()
            # One action per iteration: collect returns the dense
            # partials in partition order.
            partials = new_rdd.map(lambda r: r[1]).collect()
            # The collect above materialized (and checkpointed) new_rdd;
            # the next iteration maps a lazy view of it. The previous
            # iteration's cached state can now be released.
            prev_cached.unpersist()
            prev_cached = new_rdd
            rdd = new_rdd.map(lambda r: r[0])
            # unpersist (not destroy): the cached PythonRDD's serialized
            # function still references this broadcast; destroy would
            # invalidate later task serialization. All ctx broadcasts
            # are destroyed together when the run ends.
            ctx_bc.unpersist()
            return partials

        try:
            rdd.count()  # materialize initial state
            yield step, lambda: np.concatenate(
                rdd.map(lambda p: p["st"]["a"]).collect()
            )
        finally:
            prev_cached.unpersist()
            for bc in ctx_bcs:
                bc.destroy()
            kernel_bc.destroy()
