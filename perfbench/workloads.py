"""The benchmark's workloads, their inputs and the Spark session they use.

Each workload is a closed loop with one client: passes run back to back,
and a pass runs the workload's method list once on the run's one input,
regenerated from the workload seed. The protocol is the paper's (§7.1):
k=100, the first 10 Lloyd iterations, k-means++ seeded with the workload
seed.
"""
from __future__ import annotations

import dataclasses
import hashlib
import os
import subprocess
import time
from dataclasses import dataclass

import numpy as np

from repro.data.datasets import SPECS

K = 100
N_ITERS = 10
SPARK_MASTER = "local[4]"
SPARK_PARTITIONS = 4


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is stated in ``BENCHMARK.json``."""

    name: str
    dataset: str              # stand-in shape from repro.data.datasets
    spark: bool               # SparkRunner on SPARK_MASTER, else LocalRunner
    methods: tuple[str, ...]


_ALL = ("lloyd", "hame", "yinyang", "index", "unik")

WORKLOADS = {
    w.name: w
    for w in [
        Workload("bigcross-k100-local", "BigCross", False, _ALL),
        # The same input as bigcross-k100-local for the same seed, so that
        # the difference between the two is what the Spark layers add.
        Workload("bigcross-k100-spark4", "BigCross", True, ("lloyd", "yinyang", "unik")),
    ]
}


def make_input(wl: Workload, seed: int) -> np.ndarray:
    """The workload's stand-in shape, regenerated from ``seed``."""
    return dataclasses.replace(SPECS[wl.dataset], seed=seed).load()


def input_record(X: np.ndarray, seed: int) -> dict:
    return {
        "seed": seed, "n": X.shape[0], "d": X.shape[1], "k": K,
        "sha256": hashlib.sha256(np.ascontiguousarray(X).tobytes()).hexdigest(),
    }


class LocalSpark:
    """A local Spark session whose JVM and Python workers stop with it.

    The caller sets ``PYTHONPATH`` so that the executors' Python workers
    import the same ``repro``. The JVM keeps its scratch files in
    ``out_dir``.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.spark = None

    def start(self) -> None:
        from pyspark.sql import SparkSession

        # Options for every JVM spark-submit starts, its launcher included.
        os.environ["JAVA_TOOL_OPTIONS"] = (
            f"-XX:-UsePerfData -Djava.io.tmpdir={os.path.join(self.out_dir, 'tmp')}")
        os.environ["PYSPARK_SUBMIT_ARGS"] = (
            f"--master {SPARK_MASTER} --driver-memory 1g "
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
            "--conf spark.ui.showConsoleProgress=false "
            f"--conf spark.local.dir={os.path.join(self.out_dir, 'spark-local')} "
            "pyspark-shell"
        )
        self.spark = SparkSession.builder.appName("perfbench").getOrCreate()
        self.spark.sparkContext.setLogLevel("ERROR")

    def stop(self, timeout: float = 30.0) -> None:
        from pyspark import SparkContext

        if self.spark is None:
            return
        gateway = SparkContext._gateway
        self.spark.stop()
        self.spark = None
        proc = getattr(gateway, "proc", None)
        if proc is None:
            return
        workers = descendants(proc.pid)
        gateway.shutdown()
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout)
        SparkContext._gateway = None
        SparkContext._jvm = None
        # The Python daemon and its workers are the JVM's children, not
        # ours: wait for them to notice the JVM is gone, then kill leftovers.
        deadline = time.monotonic() + timeout
        while workers and time.monotonic() < deadline:
            workers = [p for p in workers if os.path.exists(f"/proc/{p}")]
            time.sleep(0.1)
        for p in workers:
            try:
                os.kill(p, 9)
            except ProcessLookupError:
                pass


def descendants(pid: int) -> list[int]:
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            parents.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        kids = parents.get(todo.pop(), [])
        out += kids
        todo += kids
    return out
