"""spark-submit entrypoint for one table's reproduction harness.

    spark-submit jobs/run_table.py --table 6
"""
import argparse
import importlib
import sys

from pyspark.sql import SparkSession

TABLES = (2, 3, 4, 5, 6)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--table", type=int, required=True, choices=TABLES)
    return p.parse_args(argv)


def resolve(table: int):
    """The harness ``repro.eval.tableN.run_tableN`` for table N."""
    return getattr(importlib.import_module(f"repro.eval.table{table}"), f"run_table{table}")


def main(argv=None) -> int:
    table = parse_args(argv).table
    spark = SparkSession.builder.appName(f"table{table}").getOrCreate()
    run = resolve(table)
    out = run(spark=spark) if table == 6 else run()
    print(f"table{table}: {len(out) if not isinstance(out, dict) else len(out['cells'])} rows/cells written to results/")
    spark.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
