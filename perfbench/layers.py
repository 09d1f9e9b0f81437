"""Per-layer tracing from outside the program.

Nothing under ``src/`` changes. A :class:`Trace` covers one ``run()``:

* it swaps timed wrappers into ``repro.core.runner``'s module-level
  ``kmeans_pp_init``, ``make_ctx``, ``_refine_increment``,
  ``_refine_traditional`` and ``sse`` (the runner looks them up as module
  globals), and puts the originals back afterwards;
* it hands ``run()`` a :class:`TracedKernel` that times ``init_state`` and
  ``assign`` around the real kernel. On Spark the kernel is pickled to
  the executors; there its spans go to one file per worker pid, which
  :meth:`Trace.collect` merges after the run.

Every span carries the run id, the partition and the iteration, so
:func:`layer_times` can split a run's wall time over the layers.
"""
from __future__ import annotations

import glob
import json
import os
import pickle
import shutil
import time
from contextlib import contextmanager

import numpy as np

from repro.core import runner as runner_mod

_WRAPPED = ("kmeans_pp_init", "make_ctx", "_refine_increment", "_refine_traditional", "sse")
_SPAN_NAMES = {
    "kmeans_pp_init": "linalg.init",
    "make_ctx": "ctx.make_ctx",
    "_refine_increment": "runner.refine",
    "_refine_traditional": "runner.refine",
    "sse": "linalg.sse",
}


def _task() -> tuple[int, int]:
    """(partition id, task attempt id) of the Spark task running this code."""
    from pyspark import TaskContext

    tc = TaskContext.get()
    return (tc.partitionId(), tc.taskAttemptId()) if tc is not None else (0, 0)


class TracedKernel:
    """Delegates to a real kernel and records spans around its calls.

    The attributes the runners read are copied explicitly instead of
    being forwarded through ``__getattr__``: unpickling calls
    ``__getattr__`` before ``__dict__`` is filled, and a forwarding
    ``__getattr__`` then recurses without end.
    """

    def __init__(self, inner, run_id: str, sink_dir: str):
        self.inner = inner
        self.name = inner.name
        self.needs = inner.needs
        self.fixed_groups = inner.fixed_groups
        self.traditional_refine = inner.traditional_refine
        self.run_id = run_id
        self.sink_dir = sink_dir
        self.driver_pid = os.getpid()
        self.spans: list[dict] = []  # spans recorded in the driver process
        self._after_assign: tuple[float, int] | None = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["spans"] = []
        state["_after_assign"] = None
        return state

    def _on_driver(self) -> bool:
        return os.getpid() == self.driver_pid

    def _emit(self, name: str, t0: float, t1: float, **tags) -> None:
        part, task = (0, 0) if self._on_driver() else _task()
        rec = {"name": name, "run": self.run_id, "pid": os.getpid(),
               "part": part, "task": task, "t0": t0, "t1": t1, **tags}
        if self._on_driver():
            self.spans.append(rec)
        else:
            path = os.path.join(self.sink_dir, f"spans-{os.getpid()}.jsonl")
            with open(path, "a") as f:
                f.write(json.dumps(rec) + "\n")

    def init_state(self, X):
        t0 = time.perf_counter()
        st = self.inner.init_state(X)
        self._emit("kernels.init_state", t0, time.perf_counter())
        return st

    def assign(self, X, st, ctx, counters):
        t0 = time.perf_counter()
        self.inner.assign(X, st, ctx, counters)
        t1 = time.perf_counter()
        # Computed sizes of what Spark ships for this partition: the cached
        # payload (pickled once per iteration) and the partials it returns.
        k, d = ctx.centers.shape
        tags = {"iter": ctx.iter_idx, "partials_bytes": len(pickle.dumps(
            [(int(j), (np.zeros(d), 1.0)) for j in np.unique(st["a"])],
            protocol=pickle.HIGHEST_PROTOCOL))}
        if ctx.iter_idx == 0:
            payload = {"X": X, "st": st, "sv": np.zeros((k, d)), "cnt": np.zeros(k)}
            tags["state_bytes"] = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        self._emit("kernels.assign", t0, t1, **tags)
        t2 = time.perf_counter()
        self._emit("trace.self", t1, t2, iter=ctx.iter_idx)
        self._after_assign = (time.perf_counter(), ctx.iter_idx)

    def footprint(self, st):
        # In ``_spark_step`` the runner refines between ``assign`` and
        # ``footprint``, so on an executor that gap is the refine span.
        # The driver's refine calls are timed by the module wrappers.
        t = time.perf_counter()
        if self._after_assign is not None and not self._on_driver():
            t0, it = self._after_assign
            self._emit("runner.refine", t0, t, iter=it)
        self._after_assign = None
        return self.inner.footprint(st)


class Trace:
    """Spans of one traced ``run()``."""

    def __init__(self, run_id: str, sink_dir: str):
        self.run_id = run_id
        self.sink_dir = sink_dir
        os.makedirs(sink_dir, exist_ok=True)
        self.spans: list[dict] = []
        self._ctxs: list = []
        self._kernel: TracedKernel | None = None

    def kernel(self, inner) -> TracedKernel:
        self._kernel = TracedKernel(inner, self.run_id, self.sink_dir)
        return self._kernel

    def _wrap(self, attr: str, fn):
        name = _SPAN_NAMES[attr]

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            t1 = time.perf_counter()
            rec = {"name": name, "run": self.run_id, "pid": os.getpid(),
                   "part": 0, "task": 0, "t0": t0, "t1": t1}
            if attr == "make_ctx":
                rec["iter"] = out.iter_idx
                self._ctxs.append((rec, out))  # sized after the run
            elif attr.startswith("_refine"):
                rec["iter"] = len(self._ctxs) - 1
            self.spans.append(rec)
            return out

        return timed

    @contextmanager
    def patched_runner(self):
        originals = {a: getattr(runner_mod, a) for a in _WRAPPED}
        try:
            for a, fn in originals.items():
                setattr(runner_mod, a, self._wrap(a, fn))
            yield
        finally:
            for a, fn in originals.items():
                setattr(runner_mod, a, fn)

    def collect(self) -> list[dict]:
        """All spans of the run: driver ones plus merged executor files."""
        for rec, ctx in self._ctxs:
            rec["bytes"] = len(pickle.dumps(ctx, protocol=pickle.HIGHEST_PROTOCOL))
        self._ctxs = []
        spans = self.spans + (self._kernel.spans if self._kernel else [])
        for path in sorted(glob.glob(os.path.join(self.sink_dir, "spans-*.jsonl"))):
            with open(path) as f:
                spans.extend(r for r in map(json.loads, f) if r["run"] == self.run_id)
        shutil.rmtree(self.sink_dir, ignore_errors=True)
        return sorted(spans, key=lambda r: (r["pid"], r["t0"]))


def _dur(r: dict) -> float:
    return r["t1"] - r["t0"]


def layer_times(spans: list[dict], wall: float, spark: bool) -> dict:
    """Split one run's wall time over the layers, plus per-iteration figures.

    ``split`` adds up to ``wall``. Locally its parts are k-means++ init,
    kernel state init, ctx build, assign, refine, sse, tracer self time
    and the driver loop's residual (``other``). On Spark the executor
    spans run in parallel, so an iteration is split into ctx build, the
    slowest task's assign and tracer self time, and Spark overhead: the
    rest of the gap from one ``make_ctx`` to the next, or to ``sse``
    after the last one. ``spark.*`` figures use the same definitions on
    both runners; locally they describe the in-process loop with one
    partition, the baseline that isolates what Spark adds.
    """
    by = {}
    for r in spans:
        by.setdefault(r["name"], []).append(r)
    (init,) = by["linalg.init"]
    (sse_span,) = by["linalg.sse"]
    ctxs = sorted(by["ctx.make_ctx"], key=lambda r: r["t0"])
    n_it = len(ctxs)

    def per_iter(name: str) -> list[list[dict]]:
        rows = [[] for _ in range(n_it)]
        for r in by.get(name, []):
            rows[r["iter"]].append(r)
        return rows

    assigns, refines, selfs = per_iter("kernels.assign"), per_iter("runner.refine"), per_iter("trace.self")
    a_max = [max(map(_dur, row)) for row in assigns]
    a_mean = [float(np.mean([_dur(r) for r in row])) for row in assigns]
    r_max = [max(map(_dur, row), default=0.0) for row in refines]
    s_max = [max(map(_dur, row), default=0.0) for row in selfs]
    ctx_d = [_dur(r) for r in ctxs]
    starts = [r["t0"] for r in ctxs] + [sse_span["t0"]]
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    init_states = by["kernels.init_state"]
    state_init = ctxs[0]["t0"] - init["t1"]
    overhead = [g - c - a - s for g, c, a, s in zip(gaps, ctx_d, a_max, s_max)]
    out = {
        "linalg.init_s": _dur(init),
        "linalg.sse_s": _dur(sse_span),
        "ctx.make_ctx_s": sum(ctx_d),
        "ctx.bytes": float(np.mean([r["bytes"] for r in ctxs])),
        "kernels.init_state_s": max(map(_dur, init_states)),
        "kernels.assign_s": sum(a_max),
        "runner.refine_s": sum(r_max),
        # Per-iteration figures use the gaps between successive make_ctx
        # calls; the last iteration's gap also holds the final collect.
        "spark.state_init_s": state_init,
        "spark.iter_s": float(np.mean(gaps[:-1])),
        "spark.task_assign_s.max": float(np.mean(a_max)),
        "spark.task_assign_s.mean": float(np.mean(a_mean)),
        "spark.overhead_s": float(np.mean(overhead[:-1])),
        "spark.state_bytes": float(np.mean([r["state_bytes"] for r in assigns[0]])),
        "spark.partials_bytes": float(np.mean([sum(r["partials_bytes"] for r in row) for row in assigns])),
        "partitions": len({r["part"] for r in init_states}),
    }
    if spark:
        split = {
            "linalg.init": _dur(init),
            "spark.state_init": state_init,
            "ctx.make_ctx": sum(ctx_d),
            "kernels.assign": sum(a_max),
            "trace.self": sum(s_max),
            "spark.overhead": sum(overhead),
            "linalg.sse": _dur(sse_span),
        }
    else:
        split = {
            "linalg.init": _dur(init),
            "kernels.init_state": sum(map(_dur, init_states)),
            "ctx.make_ctx": sum(ctx_d),
            "kernels.assign": sum(a_max),
            "runner.refine": sum(r_max),
            "linalg.sse": _dur(sse_span),
            "trace.self": sum(s_max),
        }
    split["runner.other"] = wall - sum(split.values())
    out["split"] = split
    return out
