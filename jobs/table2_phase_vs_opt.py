"""Table 2: average execution time of PHASE vs PHASE_opt on DBLP node,
edge, and path hypotheses, then what each cell's walk costs: supersteps,
neighbor slots examined and walk time per superstep, over the same seeds.

Usage: ``python jobs/table2_phase_vs_opt.py``; knobs REPRO_SF,
REPRO_RUNS, REPRO_PROPORTION. Writes results/table2.csv and
results/table2_walks.csv.
"""
import os
import sys
import time

import pandas as pd

sys.path.insert(0, os.path.join(os.path.dirname(__file__)))
from common import env_float, env_int, get_spark  # noqa: E402

from repro.core.phase import PHASE, PHASE_OPT  # noqa: E402
from repro.datasets.bank import bank  # noqa: E402
from repro.experiments import load_dataset, table2  # noqa: E402
from repro.graph.walk_engine import WalkContext, run_walk  # noqa: E402


def walk_costs(ds, *, proportion: float, runs: int) -> pd.DataFrame:
    """Per Table-2 cell on ``ds``, the mean over seeds 0 … runs − 1 (the
    timed runs' seeds) of the walk's supersteps and examined slots, and
    the walk's time per superstep in ms."""
    budget = max(20, int(proportion * ds.graph.num_nodes()))
    rows = []
    for kind, hyps in bank("DBLP").items():
        ctx = WalkContext(ds.graph, hyps[0])
        for name, cfg in (("PHASE", PHASE), ("PHASE_opt", PHASE_OPT)):
            steps = examined = seconds = 0
            for seed in range(runs):
                t = time.perf_counter()
                res = run_walk(ctx, cfg, budget, seed=seed)
                seconds += time.perf_counter() - t
                steps += res.supersteps
                examined += res.examined
            rows.append([kind.capitalize(), name, steps / runs, examined / runs,
                         1e3 * seconds / steps])
    return pd.DataFrame(
        rows, columns=["Type", "Sampler", "Supersteps", "Examined", "ms/superstep"]
    )


def main() -> None:
    spark = get_spark("table2")
    knobs = dict(
        proportion=env_float("REPRO_PROPORTION", 0.02),
        runs=env_int("REPRO_RUNS", 30),
    )
    ds = load_dataset(spark, "DBLP", env_float("REPRO_SF", 1.0))
    df = table2(spark, ds, **knobs)
    print(df.to_string(index=False))
    walks = walk_costs(ds, **knobs)
    print(walks.round(4).to_string(index=False))
    ds.graph.unpersist()
    os.makedirs("results", exist_ok=True)
    df.to_csv("results/table2.csv", index=False)
    walks.round(4).to_csv("results/table2_walks.csv", index=False)
    spark.stop()


if __name__ == "__main__":
    main()
