"""Path-length sweep (Figures 5/6 machinery): accuracy and time of
PHASE_opt vs top baselines on the DBLP length-3 and length-4 path
hypotheses. Numbers are recorded in EXPERIMENTS.md (figures themselves
are out of scope)."""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__)))
from common import env_float, env_int, get_spark  # noqa: E402

from repro.experiments import path_length_sweep  # noqa: E402


def main() -> None:
    spark = get_spark("path-length-sweep")
    df = path_length_sweep(
        spark,
        sf=env_float("REPRO_SF", 1.0),
        runs=env_int("REPRO_RUNS", 30),
        proportion=env_float("REPRO_PROPORTION", 0.02),
    )
    print(df.to_string(index=False))
    os.makedirs("results", exist_ok=True)
    df.to_csv("results/path_length.csv", index=False)
    spark.stop()


if __name__ == "__main__":
    main()
