"""Table 1: dataset statistics of the three synthetic networks.

Usage: ``python jobs/table1_dataset_stats.py`` (REPRO_SF scales all
three datasets).
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__)))
from common import env_float, get_spark  # noqa: E402

from repro.experiments import table1  # noqa: E402


def main() -> None:
    spark = get_spark("table1")
    df = table1(spark, sf=env_float("REPRO_SF", 1.0))
    print(df.to_string(index=False))
    os.makedirs("results", exist_ok=True)
    df.to_csv("results/table1.csv", index=False)
    spark.stop()


if __name__ == "__main__":
    main()
