"""Tables 3 & 4: accuracy and execution time of the 12 samplers on the
3 datasets × 3 hypothesis-type grid. One grid run yields both tables.

Usage: ``python jobs/table3_accuracy.py``; knobs REPRO_SF, REPRO_RUNS,
REPRO_DATASETS (comma-separated), REPRO_SAMPLERS (comma-separated).
Writes results/grid.csv (per-hypothesis rows), results/table3.csv and
results/table4.csv (paper layouts).
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__)))
from common import env_float, env_int, get_spark  # noqa: E402

from repro.experiments import (  # noqa: E402
    accuracy_time_grid,
    pivot_table3,
    pivot_table4,
)
from repro.samplers import ALL  # noqa: E402


def main() -> None:
    spark = get_spark("table3-table4")
    datasets = os.environ.get("REPRO_DATASETS", "MovieLens,DBLP,Yelp").split(",")
    samplers = os.environ.get("REPRO_SAMPLERS", ",".join(ALL)).split(",")
    grid = accuracy_time_grid(
        spark,
        datasets=datasets,
        samplers=samplers,
        runs=env_int("REPRO_RUNS", 30),
        sf=env_float("REPRO_SF", 1.0),
    )
    os.makedirs("results", exist_ok=True)
    grid.to_csv("results/grid.csv", index=False)
    t3, t4 = pivot_table3(grid), pivot_table4(grid)
    print("== Table 3 (accuracy) ==")
    print(t3.to_string(index=False))
    print("\n== Table 4 (execution time, s) ==")
    print(t4.to_string(index=False))
    t3.to_csv("results/table3.csv", index=False)
    t4.to_csv("results/table4.csv", index=False)
    spark.stop()


if __name__ == "__main__":
    main()
