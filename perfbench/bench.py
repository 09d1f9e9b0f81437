"""Run one workload: set up, check every run against Lloyd, time passes.

A run of the benchmark has three phases:

1. **Set-up** (``setup_s``): the imports, timed in fresh interpreters,
   and input generation, each repeated ``SETUP_REPEATS`` times and
   counted once by its median; on Spark, plus session start and one
   warm-up job, so the first timed run pays no JIT or worker start-up.
2. **Reference runs** (not timed): ``LocalRunner`` Lloyd on the input,
   and on Spark a ``LocalRunner`` run of every method as well.
3. **Passes** over the one input until ``seconds`` have elapsed. With
   tracing on, untraced and traced passes alternate, so the tracer's
   cost can be measured. The peak RSS is reset before each pass, so
   ``peak_rss_mb`` is the peak of one pass.
"""
from __future__ import annotations

import ctypes
import gc
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import uuid

import numpy as np

from repro.core.kernels import make_kernel
from repro.core.runner import LocalRunner, SparkRunner

from .layers import Trace, layer_times
from .workloads import (
    K, N_ITERS, SPARK_MASTER, SPARK_PARTITIONS, LocalSpark, Workload,
    descendants, input_record, make_input,
)

SETUP_REPEATS = 5
#: Runs that add the same points in another order (incremental refine,
#: Spark's partition order) agree with Lloyd's centres only to rounding.
CENTER_TOL = 1e-9
#: Stop starting passes this long after a workload starts, so that a run
#: ends well within 180 s.
HARD_LIMIT_S = 120.0
#: Counts that must repeat exactly on the same input and seed.
REPEAT_COUNTS = ("kernels.dist", "kernels.work_units", "kernels.node_access", "runner.iters_run")


def summary(values: list[float]) -> dict:
    """Median, quartiles, sample count and the highest percentile with at
    least ten samples beyond it (none while that is not above the median)."""
    vals = sorted(values)
    n = len(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if n > 1 else (vals[0],) * 3
    out = {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": n, "p_top": None}
    if n >= 22:
        out["p_top"] = {"pct": 100 * (n - 10) // n, "value": vals[n - 11]}
    return out


def blas_threads() -> int | None:
    """Threads of the OpenBLAS numpy loaded, read from the library itself."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def reset_peak_rss(pids: list[int]) -> None:
    """Restart the kernel's peak-RSS (VmHWM) count of each process."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")
        except OSError:  # it has exited
            pass


def peak_rss_mb(pid: int) -> float:
    """Peak RSS of ``pid`` since its last reset, in MB; 0 once it has exited."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def time_import() -> float:
    """Wall time of a fresh interpreter importing what the benchmark imports."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import perfbench.bench"], check=True)
    return time.perf_counter() - t0


def provenance(wl: Workload) -> dict:
    import pyspark

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "pyspark": pyspark.__version__,
        "python": platform.python_version(),
        "spark_master": SPARK_MASTER if wl.spark else None,
        "partitions": SPARK_PARTITIONS if wl.spark else 1,
    }


def mismatches(res, ref, scale: float, label: str) -> list[str]:
    """How ``res`` differs from the reference run ``ref`` (empty if it does not)."""
    out = []
    if res.iters_run != ref.iters_run:
        out.append(f"iters_run {res.iters_run} != {ref.iters_run} ({label})")
    if res.assign is None or res.assign.shape != ref.assign.shape:
        out.append(f"no assignment of the right shape ({label})")
    elif not np.array_equal(res.assign, ref.assign):
        out.append(f"{int((res.assign != ref.assign).sum())} assignments differ ({label})")
    if res.centers.shape != ref.centers.shape:
        out.append(f"centres have shape {res.centers.shape} ({label})")
    else:
        err = float(np.abs(res.centers - ref.centers).max())
        if not err <= CENTER_TOL * scale:
            out.append(f"centres differ by {err:.3g} > {CENTER_TOL * scale:.3g} ({label})")
    return out


def counts(res, n: int, d: int) -> dict:
    c = res.counters
    return {
        "kernels.dist": c.dist,
        "kernels.pruned_frac": c.pruned_fraction(n, K, res.iters_run),
        "kernels.work_units": c.work_units(d),
        "kernels.node_access": c.node_access,
        "kernels.footprint_bytes": c.footprint_bytes,
        "runner.iters_run": res.iters_run,
    }


class WorkloadRun:
    """State of one workload's run; :meth:`execute` returns its record."""

    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool,
                 out_dir: str, spark: LocalSpark):
        self.wl, self.seed, self.seconds, self.trace = wl, seed, seconds, trace
        self.out_dir, self.spark = out_dir, spark
        self.runs: list[dict] = []
        self.pass_peaks: list[dict] = []
        self.failures: list[dict] = []
        self.first_counts: dict[str, dict] = {}
        self.not_repeating: set[str] = set()
        self.repeat_pairs = 0

    # -- phases -------------------------------------------------------------

    def setup(self) -> tuple[dict, dict]:
        gen_s, hashes = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.X = make_input(self.wl, self.seed)
            gen_s.append(time.perf_counter() - t0)
            hashes.append(input_record(self.X, self.seed)["sha256"])
        if any(h != hashes[0] for h in hashes):
            raise RuntimeError("input generation is not deterministic in its seed")
        import_s = [time_import() for _ in range(SETUP_REPEATS)]
        parts = {"import_s": statistics.median(import_s), "data.gen_s": statistics.median(gen_s)}
        if self.wl.spark:
            t0 = time.perf_counter()
            if self.spark.spark is None:
                self.spark.start()
            parts["spark.session_s"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            SparkRunner(self.spark.spark, n_partitions=SPARK_PARTITIONS).run(
                self.X, K, make_kernel("lloyd"), n_iters=2, seed=self.seed)
            parts["spark.warmup_s"] = time.perf_counter() - t0
            self.runner = SparkRunner(self.spark.spark, n_partitions=SPARK_PARTITIONS)
        else:
            self.runner = LocalRunner()
        return parts, {"import_s": import_s, "data.gen_s": gen_s}

    def references(self) -> None:
        methods = self.wl.methods if self.wl.spark else ("lloyd",)
        self.refs = {m: LocalRunner().run(self.X, K, make_kernel(m), n_iters=N_ITERS, seed=self.seed)
                     for m in methods}

    def one_run(self, p: int, method: str, traced: bool) -> dict:
        X, s, ref = self.X, self.seed, self.refs
        n, d = X.shape
        rec = {"pass": p, "method": method, "traced": traced}
        kernel = make_kernel(method)
        tr = Trace(uuid.uuid4().hex, os.path.join(self.out_dir, "spans")) if traced else None
        gc.collect()
        t0 = time.perf_counter()
        try:
            if tr is None:
                res = self.runner.run(X, K, kernel, n_iters=N_ITERS, seed=s)
            else:
                with tr.patched_runner():
                    res = self.runner.run(X, K, tr.kernel(kernel), n_iters=N_ITERS, seed=s)
        except Exception:  # a failed run is counted, never dropped
            rec["wall_s"] = time.perf_counter() - t0
            rec["error"] = traceback.format_exc()
            self.failures.append(rec)
            return rec
        rec["wall_s"] = time.perf_counter() - t0
        scale = 1.0 + float(np.abs(X).max())
        problems = mismatches(res, ref["lloyd"], scale, "vs LocalRunner lloyd")
        if self.wl.spark:
            problems += mismatches(res, ref[method], scale, f"vs LocalRunner {method}")
        if problems:
            rec["mismatch"] = problems
            self.failures.append(rec)
        rec["point_iters"] = n * res.iters_run
        rec["counts"] = counts(res, n, d)
        rec["reported_assign_s"] = res.counters.assign_time
        rec["reported_refine_s"] = res.counters.refine_time
        if method in self.first_counts:
            self.repeat_pairs += 1
            first = self.first_counts[method]
            self.not_repeating |= {f"{c}.{method}" for c in REPEAT_COUNTS if rec["counts"][c] != first[c]}
        else:
            self.first_counts[method] = rec["counts"]
        if tr is not None:
            spans = tr.collect()
            rec["layers"] = layer_times(spans, rec["wall_s"], self.wl.spark)
            rec["spans"] = spans
        return rec

    def passes(self) -> None:
        """Run passes until time is up and (when tracing) every untraced
        pass has its traced twin.

        Beside the driver's own peak RSS, each pass records the summed
        peaks of the driver's process tree: on Spark, the JVM and the
        executors' Python workers as well.
        """
        per_cycle = 2 if self.trace else 1
        me = os.getpid()
        t_loop = time.perf_counter()
        p = 0
        while True:
            traced = self.trace and p % 2 == 1
            tree = [me] + descendants(me)
            reset_peak_rss(tree)
            for m in self.wl.methods:
                self.runs.append(self.one_run(p, m, traced))
            tree = set(tree) | set(descendants(me))  # workers started during the pass
            self.pass_peaks.append({"pass": p, "traced": traced, "peak_rss_mb": peak_rss_mb(me),
                                    "tree_peak_rss_mb": sum(peak_rss_mb(q) for q in tree)})
            p += 1
            now = time.perf_counter()
            done = now - t_loop >= self.seconds or now - self.t_start >= HARD_LIMIT_S
            if done and p % per_cycle == 0:
                break

    def execute(self) -> dict:
        self.t_start = time.perf_counter()
        setup, setup_samples = self.setup()
        setup_s = sum(setup.values())
        t0 = time.perf_counter()
        self.references()
        check_s = time.perf_counter() - t0
        self.passes()
        return {
            "workload": self.wl.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "protocol": {"k": K, "n_iters": N_ITERS, "methods": list(self.wl.methods)},
            "provenance": provenance(self.wl),
            "input": input_record(self.X, self.seed),
            "setup": setup,
            "setup_samples": setup_samples,
            "setup_s": setup_s,
            "check_s": check_s,
            "process_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_peaks": self.pass_peaks,
            "attempted": len(self.runs),
            "failed": len(self.failures),
            "failures": self.failures,
            "repeat": {"pairs_checked": self.repeat_pairs,
                       "not_repeating": sorted(self.not_repeating)},
            "runs": self.runs,
        }


# -- metrics -----------------------------------------------------------------


def _by_pass(runs: list[dict]) -> list[list[dict]]:
    passes: dict[int, list[dict]] = {}
    for r in runs:
        passes.setdefault(r["pass"], []).append(r)
    return [passes[p] for p in sorted(passes)]


def end_to_end(record: dict) -> dict:
    """End-to-end metric samples (one per untraced pass) and their summaries."""
    passes = _by_pass([r for r in record["runs"] if not r["traced"]])
    samples = {
        "sweep_s": [sum(r["wall_s"] for r in ps) for ps in passes],
        "point_iters_per_s": [
            sum(r.get("point_iters", 0) for r in ps) / sum(r["wall_s"] for r in ps)
            for ps in passes
        ],
    }
    for m in record["protocol"]["methods"]:
        samples[f"run_s.{m}"] = [r["wall_s"] for ps in passes for r in ps if r["method"] == m]
    out = {name: summary(v) for name, v in samples.items()}
    out["setup_s"] = summary([record["setup_s"]])
    peaks = [r for r in record["pass_peaks"] if not r["traced"]]
    out["peak_rss_mb"] = summary([r["peak_rss_mb"] for r in peaks])
    out["tree_peak_rss_mb"] = summary([r["tree_peak_rss_mb"] for r in peaks])
    out["mismatch_frac"] = summary([record["failed"] / record["attempted"]])
    return out


def per_layer(record: dict) -> dict:
    """Per-layer values of a traced record (means over traced passes)."""
    traced = [r for r in record["runs"] if r["traced"] and "layers" in r]
    passes = _by_pass(traced)
    untraced = end_to_end(record)["sweep_s"]["median"]
    sweeps = [sum(r["wall_s"] for r in ps) for ps in passes]
    mean = statistics.fmean
    out = {"data.gen_s": record["setup"]["data.gen_s"]}

    def pass_total(key):
        return mean([sum(r["layers"][key] for r in ps) for ps in passes])

    for key in ("linalg.init_s", "linalg.sse_s", "ctx.make_ctx_s", "kernels.init_state_s",
                "kernels.assign_s", "runner.refine_s", "spark.state_init_s"):
        out[key] = pass_total(key)
    out["runner.other_s"] = mean([sum(r["layers"]["split"]["runner.other"] for r in ps)
                                  for ps in passes])
    out["runner.reported_assign_s"] = mean([sum(r["reported_assign_s"] for r in ps) for ps in passes])
    out["runner.reported_refine_s"] = mean([sum(r["reported_refine_s"] for r in ps) for ps in passes])
    for key in ("spark.iter_s", "spark.task_assign_s.max", "spark.task_assign_s.mean",
                "spark.overhead_s", "spark.state_bytes", "spark.partials_bytes"):
        out[key] = mean([r["layers"][key] for r in traced])
    out["spark.overhead_frac"] = out["spark.overhead_s"] / out["spark.iter_s"]
    for m in record["protocol"]["methods"]:
        mine = [r for r in traced if r["method"] == m]
        out[f"kernels.init_state_s.{m}"] = mean([r["layers"]["kernels.init_state_s"] for r in mine])
        out[f"kernels.assign_s.{m}"] = mean([r["layers"]["kernels.assign_s"] for r in mine])
        out[f"ctx.bytes.{m}"] = mean([r["layers"]["ctx.bytes"] for r in mine])
        first = next(r["counts"] for r in record["runs"] if r["method"] == m)
        out.update({f"{c}.{m}": v for c, v in first.items()})
    out["trace.sweep_s"] = mean(sweeps)
    out["trace.overhead_frac"] = statistics.median(sweeps) / untraced - 1.0
    split = {}
    for ps in passes:
        for r in ps:
            for k, v in r["layers"]["split"].items():
                split[k] = split.get(k, 0.0) + v / len(passes)
    out["split"] = split
    return out
