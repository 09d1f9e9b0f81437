"""k-means benchmark: end-to-end and per-layer metrics on two workloads.

    python3 perfbench/run.py --workload bigcross-k100-local --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run it from the root of a checkout. It prints every metric by name and
unit, writes one JSON record per workload under ``perfbench/out/records``
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics ``BENCHMARK.json`` names:
end-to-end ones with ``--trace 0``, per-layer ones with ``--trace 1``.
It exits non-zero if any run raised or differed from Lloyd.
"""
import argparse
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be a non-negative integer")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def set_environment() -> None:
    """Keep every file Spark and Python write inside the checkout, and let
    Spark's Python workers import ``repro`` and ``perfbench``."""
    tmp = os.path.join(OUT, "tmp")
    local = os.path.join(OUT, "spark-local")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(local, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = local
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC, ROOT] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))


def _plain(x):
    if hasattr(x, "item"):
        return x.item()
    raise TypeError(f"cannot serialise {type(x).__name__}")


def _unit(name: str, units: dict) -> str:
    if name in units:
        return units[name]
    if name.endswith("_s") or "_s." in name:
        return "s"
    if "bytes" in name:
        return "bytes"
    if "frac" in name:
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def _print_metrics(title: str, values: dict, units: dict, samples: dict | None = None) -> None:
    print(title)
    for name, v in values.items():
        extra = ""
        if samples and name in samples:
            s = samples[name]
            extra = f"  (n={s['n']}, q1={s['q1']:.6g}, q3={s['q3']:.6g}"
            extra += f", p{s['p_top']['pct']}={s['p_top']['value']:.6g})" if s["p_top"] else ")"
        print(f"  {name:<28} {v:>14.6g} {_unit(name, units)}{extra}")


def report(record: dict, trace: bool, units: dict) -> dict:
    """Print one workload's metrics; return the values its JSON line may use."""
    from perfbench import bench

    e2e = bench.end_to_end(record)
    record["end_to_end"] = e2e
    values = {k: s["median"] for k, s in e2e.items()}
    print(f"== {record['workload']}  seed={record['seed']}  runs={record['attempted']}  "
          f"failed={record['failed']}  repeat pairs={record['repeat']['pairs_checked']}")
    _print_metrics("end-to-end (medians over untraced passes)", values, units, e2e)
    for f in record["failures"]:
        print(f"FAILED pass {f['pass']} {f['method']} input {f['input']}: "
              f"{f.get('mismatch') or f['error'].strip().splitlines()[-1]}")
    if record["repeat"]["not_repeating"]:
        print("counts that do not repeat exactly: " + ", ".join(record["repeat"]["not_repeating"]))
    if not trace or record["failed"]:
        return values
    layers = bench.per_layer(record)
    record["per_layer"] = layers
    split = layers.pop("split")
    _print_metrics("per-layer (traced passes)", layers, units)
    total = sum(split.values())
    print(f"split of traced sweep_s {layers['trace.sweep_s']:.6g} s (parts add up to {total:.6g} s):")
    for k, v in split.items():
        print(f"  {k:<28} {v:>14.6g} s  {100 * v / total:5.1f}%")
    print(f"  spark.overhead_s is {100 * layers['spark.overhead_frac']:.1f}% of spark.iter_s")
    return layers


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no package at {SRC}/repro; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    set_environment()
    sys.path[:0] = [SRC, ROOT]
    import repro
    from perfbench.bench import WorkloadRun
    from perfbench.workloads import WORKLOADS, LocalSpark
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    if not set(names) <= set(WORKLOADS):
        print(f"perfbench: unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}, all",
              file=sys.stderr)
        return 2
    records_dir = os.path.join(OUT, "records")
    os.makedirs(records_dir, exist_ok=True)
    spark = LocalSpark(OUT)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            record = WorkloadRun(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                                 OUT, spark).execute()
            record["why"] = why[name]
            values = report(record, bool(args.trace), units)
            path = os.path.join(records_dir, f"{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w") as f:
                json.dump(record, f, default=_plain)
            result["attempted"] += record["attempted"]
            result["failed"] += record["failed"]
            if record["failed"]:
                continue
            prefix = f"{name}/" if len(names) > 1 else ""
            for m in wanted:
                v = float(values[m])
                if not math.isfinite(v):
                    raise RuntimeError(f"metric {m} of {name} is {v}")
                result["metrics"][prefix + m] = {"value": v, "unit": units[m]}
    finally:
        spark.stop()
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
