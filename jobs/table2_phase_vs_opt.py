"""Table 2: average execution time of PHASE vs PHASE_opt on DBLP node,
edge, and path hypotheses.

Usage: ``python jobs/table2_phase_vs_opt.py``; knobs REPRO_SF,
REPRO_RUNS, REPRO_PROPORTION.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__)))
from common import env_float, env_int, get_spark  # noqa: E402

from repro.experiments import table2  # noqa: E402


def main() -> None:
    spark = get_spark("table2")
    df = table2(
        spark,
        sf=env_float("REPRO_SF", 1.0),
        proportion=env_float("REPRO_PROPORTION", 0.02),
        runs=env_int("REPRO_RUNS", 30),
    )
    print(df.to_string(index=False))
    os.makedirs("results", exist_ok=True)
    df.to_csv("results/table2.csv", index=False)
    spark.stop()


if __name__ == "__main__":
    main()
