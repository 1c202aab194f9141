"""Table runners for the evaluation section (run by jobs/).

Each function reproduces one table of the paper at a configurable scale
(see EXPERIMENTS.md for paper-vs-measured): Table 1 dataset statistics,
Table 2 PHASE vs PHASE_opt timing, Tables 3/4 accuracy and time of the
12 samplers over the 3 datasets × 3 hypothesis types grid.

Scale knobs (env-overridable in the jobs): one ``sf`` for every dataset,
sampling proportions per (dataset, type) mirroring the paper's column three —
scaled up because our graphs are ~100× smaller (a 0.2% sample of a 7k-
node graph would hold 14 nodes), and ``runs`` (paper: 30).

A hypothesis with no relevant instance in G has no ground truth to score
against; the accuracy runners skip it with a logged line.
"""
from __future__ import annotations

import time
from typing import Iterable

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.framework import Experiment
from repro.datasets import GENERATORS, Dataset
from repro.datasets.bank import bank, dblp_long_paths
from repro.samplers import ALL as ALL_SAMPLERS
from repro.stats.proportion import wilson_interval

# Paper Table 3/4 column three, scaled ~10x for graphs ~100x smaller:
# the *ordering* across rows (path needs a larger proportion than node
# on MovieLens; DBLP/Yelp run at small proportions) is preserved.
PROPORTIONS = {
    ("MovieLens", "node"): 0.10,
    ("MovieLens", "edge"): 0.15,
    ("MovieLens", "path"): 0.25,
    ("DBLP", "node"): 0.04,
    ("DBLP", "edge"): 0.04,
    ("DBLP", "path"): 0.04,
    ("Yelp", "node"): 0.02,
    ("Yelp", "edge"): 0.05,
    ("Yelp", "path"): 0.05,
}

def load_dataset(spark: SparkSession, name: str, sf: float = 1.0) -> Dataset:
    return GENERATORS[name](spark, sf=sf)


# ---------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------
def table1(spark: SparkSession, *, sf: float = 1.0) -> pd.DataFrame:
    """Dataset statistics (paper Table 1)."""
    rows = []
    for name in GENERATORS:
        ds = load_dataset(spark, name, sf)
        st = ds.graph.stats()
        rows.append({"Dataset": name, **st})
        ds.graph.unpersist()
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------
def table2(
    spark: SparkSession,
    *,
    sf: float = 1.0,
    proportion: float = 0.02,
    runs: int = 3,
    seed: int = 0,
) -> pd.DataFrame:
    """PHASE vs PHASE_opt average execution time on DBLP node/edge/path
    hypotheses (paper Table 2). Uses the first hypothesis of each type."""
    ds = load_dataset(spark, "DBLP", sf)
    n_nodes = ds.graph.num_nodes()
    budget = max(20, int(proportion * n_nodes))
    hyps = bank("DBLP")
    rows = {"PHASE": {}, "PHASE_opt": {}}
    for htype in ("node", "edge", "path"):
        exp = Experiment(spark, ds.graph, hyps[htype][0])
        for sampler, rec in rows.items():
            times = [
                exp.run_once(sampler, budget, seed=seed + r).total_seconds
                for r in range(runs)
            ]
            rec[htype.capitalize()] = sum(times) / runs
        exp.close()
    ds.graph.unpersist()
    out = pd.DataFrame(rows).T.reset_index(names="Sampler")
    out["Budget"] = budget
    return out


# ---------------------------------------------------------------------
# Tables 3 and 4 (one grid run yields both)
# ---------------------------------------------------------------------
def accuracy_time_grid(
    spark: SparkSession,
    *,
    datasets: Iterable[str] = ("MovieLens", "DBLP", "Yelp"),
    samplers: Iterable[str] = tuple(ALL_SAMPLERS),
    runs: int = 3,
    sf: float = 1.0,
    seed: int = 0,
) -> pd.DataFrame:
    """Run the full sampler × dataset × hypothesis-type grid.

    Returns one row per (dataset, type, hypothesis, sampler) with the
    accuracy (Table 3), its ``Matches`` out of ``Runs``, and the average
    total execution time (Table 4); per the paper, each cell averages the
    bank's three hypotheses of that type, each over ``runs`` runs.
    """
    rows = []
    for dname in datasets:
        ds = load_dataset(spark, dname, sf)
        n_nodes = ds.graph.num_nodes()
        hyps = bank(dname)
        for htype in ("node", "edge", "path"):
            prop = PROPORTIONS[(dname, htype)]
            budget = max(20, int(prop * n_nodes))
            for hyp in hyps[htype]:
                exp = Experiment(spark, ds.graph, hyp)
                truth = exp.truth()
                print(
                    f"[grid] {dname}/{htype} {hyp.name}: truth="
                    f"{truth.decision} (n={truth.estimate.n_instances}, "
                    f"value={truth.estimate.value}) budget={budget}",
                    flush=True,
                )
                if truth.decision is None:
                    print("[grid]   skipped: no relevant instance in G", flush=True)
                    exp.close()
                    continue
                for sname in samplers:
                    res = exp.accuracy(sname, budget, runs=runs, seed=seed)
                    lo, hi = res["accuracy_ci"]
                    print(
                        f"[grid]   {sname:14s} acc={res['accuracy']:.2f} "
                        f"[{lo:.2f}, {hi:.2f}] "
                        f"t={res['avg_total_seconds']:.2f}s",
                        flush=True,
                    )
                    rows.append(
                        {
                            "Dataset": dname,
                            "Type": htype,
                            "Proportion": prop,
                            "Hypothesis": hyp.name,
                            "Sampler": sname,
                            "Accuracy": res["accuracy"],
                            "Matches": res["matches"],
                            "Runs": runs,
                            "Time": res["avg_total_seconds"],
                        }
                    )
                exp.close()
        ds.graph.unpersist()
    return pd.DataFrame(rows)


def pivot_table3(grid: pd.DataFrame) -> pd.DataFrame:
    """Paper Table 3 layout: rows = (dataset, type), cols = samplers,
    cells = accuracy averaged over the hypotheses of the row. Columns
    ``<sampler>_lo`` and ``<sampler>_hi`` bound each cell with the Wilson
    95% interval of the row's pooled matches and runs."""
    cells = grid.groupby(["Dataset", "Type", "Proportion", "Sampler"]).agg(
        Accuracy=("Accuracy", "mean"), Matches=("Matches", "sum"), Runs=("Runs", "sum")
    )
    ci = [wilson_interval(k, n) for k, n in zip(cells["Matches"], cells["Runs"])]
    cells["lo"], cells["hi"] = [c[0] for c in ci], [c[1] for c in ci]
    out = cells["Accuracy"].unstack("Sampler")
    for bound in ("lo", "hi"):
        out = out.join(cells[bound].unstack("Sampler").add_suffix(f"_{bound}"))
    return out.round(2).reset_index()


def pivot_table4(grid: pd.DataFrame) -> pd.DataFrame:
    """Paper Table 4 layout: same grid, cells = avg execution time (s)."""
    return (
        grid.pivot_table(
            index=["Dataset", "Type", "Proportion"],
            columns="Sampler",
            values="Time",
            aggfunc="mean",
        )
        .round(4)
        .reset_index()
    )


# ---------------------------------------------------------------------
# Path-length sweep (Figures 5/6 machinery; numbers land in EXPERIMENTS.md)
# ---------------------------------------------------------------------
def path_length_sweep(
    spark: SparkSession,
    *,
    samplers: Iterable[str] = ("PHASE_opt", "NBRW", "SRW"),
    proportion: float = 0.02,
    runs: int = 3,
    sf: float = 1.0,
    seed: int = 0,
) -> pd.DataFrame:
    """Accuracy (with its Wilson 95% interval) and time for the DBLP
    length-3 and length-4 path hypotheses."""
    ds = load_dataset(spark, "DBLP", sf)
    budget = max(20, int(proportion * ds.graph.num_nodes()))
    rows = []
    for length, hyp in dblp_long_paths().items():
        exp = Experiment(spark, ds.graph, hyp)
        if exp.truth().decision is None:
            print(f"[sweep] skipped {hyp.name}: no relevant instance in G", flush=True)
            exp.close()
            continue
        for sname in samplers:
            res = exp.accuracy(sname, budget, runs=runs, seed=seed)
            lo, hi = res["accuracy_ci"]
            rows.append(
                {
                    "Length": length,
                    "Sampler": sname,
                    "Accuracy": res["accuracy"],
                    "Lo": lo,
                    "Hi": hi,
                    "Time": res["avg_total_seconds"],
                }
            )
        exp.close()
    ds.graph.unpersist()
    return pd.DataFrame(rows)
