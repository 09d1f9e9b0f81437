"""Shared measurement protocol + table rendering for the reproduction.

§7.1 protocol: total time of the first 10 iterations, averaged over
several k-means++ seeds (paper: 10 seeds; default here: 2 — documented
in EXPERIMENTS.md). Speedups are computed from algorithm time
(assignment + refinement). Per iteration, each phase counts the slowest
partition's time (partitions run in parallel), and refinement adds the
driver-side combine of the partials. It excludes Spark job-scheduling
overhead — the quantity comparable to the paper's single-process
measurements.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.kernels import make_kernel
from ..core.metrics import Counters
from ..core.runner import LocalRunner, SparkRunner

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..", "results")

N_ITERS = 10
SEEDS = (0, 1)


@dataclass
class Measured:
    """Averages over seeds for one (dataset, k, method) cell."""

    algo_time: float          # assignment + refinement seconds
    assign_time: float
    refine_time: float
    wall_time: float
    counters: Counters
    n: int
    k: int
    iters: int

    @property
    def pruned(self) -> float:
        return self.counters.pruned_fraction(self.n, self.k, self.iters)


def measure(
    X: np.ndarray,
    k: int,
    kernel_factory,
    runner=None,
    seeds=SEEDS,
    n_iters: int = N_ITERS,
) -> Measured:
    """Run one method over several seeds and average the timings."""
    runner = runner or LocalRunner()
    at, st, rt, wt, iters = [], [], [], [], []
    counters = Counters()
    for seed in seeds:
        kernel = kernel_factory()
        res = runner.run(X, k, kernel, n_iters=n_iters, seed=seed)
        st.append(res.counters.assign_time)
        rt.append(res.counters.refine_time)
        at.append(res.counters.assign_time + res.counters.refine_time)
        wt.append(res.total_time)
        iters.append(res.iters_run)
        counters = counters + res.counters
    m = len(seeds)
    # Counters sum across seeds; scale to per-run averages.
    avg = Counters(
        dist=counters.dist // m,
        data_access=counters.data_access // m,
        bound_access=counters.bound_access // m,
        bound_update=counters.bound_update // m,
        node_access=counters.node_access // m,
        footprint_bytes=counters.footprint_bytes,
    )
    return Measured(
        algo_time=float(np.mean(at)),
        assign_time=float(np.mean(st)),
        refine_time=float(np.mean(rt)),
        wall_time=float(np.mean(wt)),
        counters=avg,
        n=X.shape[0],
        k=k,
        iters=int(np.mean(iters)),
    )


def get_runner(spark=None, n_partitions: int = 4):
    """SparkRunner when a session is supplied, else the local reference."""
    if spark is not None:
        return SparkRunner(spark, n_partitions=n_partitions)
    return LocalRunner()


def render_markdown(headers: list[str], rows: list[list]) -> str:
    def fmt(v):
        if isinstance(v, float):
            return f"{v:.2f}" if abs(v) >= 0.01 else f"{v:.2e}"
        return str(v)

    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for r in rows:
        lines.append("| " + " | ".join(fmt(v) for v in r) + " |")
    return "\n".join(lines)


def write_result(name: str, text: str) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return os.path.abspath(path)
