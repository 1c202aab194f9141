"""Table runners for the evaluation section (run by jobs/).

Each function reproduces one table of the paper at a configurable scale
(see EXPERIMENTS.md for paper-vs-measured): Table 1 dataset statistics,
Table 2 PHASE vs PHASE_opt timing, Tables 3/4 accuracy and time of the
12 samplers over the 3 datasets × 3 hypothesis types grid.

Scale knobs (env-overridable in the jobs): one ``sf`` for every dataset,
sampling proportions per (dataset, type) mirroring the paper's column three —
scaled up because our graphs are ~100× smaller (a 0.2% sample of a 7k-
node graph would hold 14 nodes), and ``runs`` (paper: 30).

Tables 2-4 and the path-length sweep share one cell loop, ``cells``: one
sampler on one hypothesis at one budget, repeated ``runs`` times. Each
runner only picks its hypotheses and reshapes the rows. A hypothesis with
no relevant instance in G has no ground truth to score against; ``cells``
skips it with a logged line.
"""
from __future__ import annotations

import statistics
from typing import Iterable

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.framework import Experiment
from repro.core.hypothesis import Hypothesis
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
# The cell loop behind Tables 2-4 and the path-length sweep
# ---------------------------------------------------------------------
COLUMNS = [
    "Dataset", "Type", "Proportion", "Budget", "Hypothesis", "Sampler",
    "Accuracy", "Lo", "Hi", "Matches", "Undecided", "Wrong", "Runs",
    "Instances", "Time",
]


def cells(
    spark: SparkSession,
    ds: Dataset,
    hyps: Iterable[tuple[object, float, Hypothesis]],
    samplers: Iterable[str],
    *,
    runs: int,
) -> pd.DataFrame:
    """One row per (hypothesis, sampler) cell on ``ds``, which the caller
    loads and unpersists: ``runs`` runs at budget ``max(20,
    proportion·|V|)``, their accuracy with its Wilson 95% interval (``Lo``,
    ``Hi``) and average total time over those runs, after one untimed
    warm-up run. A run that misses H(G) counts in ``Undecided`` (H(S)
    undecided; S holds no relevant instance) or ``Wrong`` (decided against
    H(G)); ``Instances`` is the runs' median count of relevant instances
    in S. ``hyps`` yields ``(label, proportion, hypothesis)``; the label
    fills ``Type``."""
    n_nodes = ds.graph.num_nodes()
    rows = []
    for label, prop, hyp in hyps:
        budget = max(20, int(prop * n_nodes))
        exp = Experiment(spark, ds.graph, hyp)
        truth = exp.truth()
        tag = f"[{ds.name}/{label}]"
        print(
            f"{tag} {hyp.name}: truth={truth.decision} (n="
            f"{truth.estimate.n_instances}, value={truth.estimate.value}) "
            f"budget={budget}",
            flush=True,
        )
        if truth.decision is None:
            print(f"{tag}   skipped: no relevant instance in G", flush=True)
            continue
        for sname in samplers:
            # One untimed run first, so that a Spark sampler's first job of
            # the session (JVM and codegen warm-up) stays out of Time. The
            # timed runs take seeds 0 … runs - 1.
            exp.run_once(sname, budget, seed=runs)
            res = exp.accuracy(sname, budget, runs=runs)
            acc, k, t = res["accuracy"], res["matches"], res["avg_total_seconds"]
            lo, hi = res["accuracy_ci"]
            outcomes = [r.outcome for r in res["results"]]
            undecided = sum(o.decision is None for o in outcomes)
            found = statistics.median(o.estimate.n_instances for o in outcomes)
            print(
                f"{tag}   {sname:14s} acc={acc:.2f} [{lo:.2f}, {hi:.2f}] "
                f"undecided={undecided} instances={found} t={t:.4f}s",
                flush=True,
            )
            rows.append([
                ds.name, label, prop, budget, hyp.name, sname, acc, lo, hi, k,
                undecided, runs - k - undecided, runs, found, t,
            ])
    return pd.DataFrame(rows, columns=COLUMNS)


# ---------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------
def table2(
    spark: SparkSession,
    ds: Dataset,
    *,
    proportion: float = 0.02,
    runs: int = 3,
) -> pd.DataFrame:
    """PHASE vs PHASE_opt average execution time on DBLP node/edge/path
    hypotheses (paper Table 2), on ``ds``, a DBLP-lite. Uses the first
    hypothesis of each type."""
    samplers = ["PHASE", "PHASE_opt"]
    hyps = [(t.capitalize(), proportion, hs[0]) for t, hs in bank("DBLP").items()]
    grid = cells(spark, ds, hyps, samplers, runs=runs)
    out = grid.pivot(index="Sampler", columns="Type", values="Time")
    out = out.reindex(index=samplers, columns=["Node", "Edge", "Path"]).reset_index()
    out["Budget"] = grid["Budget"].max()
    return out.rename_axis(columns=None)


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
) -> pd.DataFrame:
    """The ``cells`` rows of the sampler × dataset × hypothesis grid: the
    accuracy (Table 3), its ``Matches`` out of ``Runs``, and the average
    total execution time (Table 4). Per the paper, a table cell averages
    the bank's three hypotheses of its type."""
    grids = []
    for dname in datasets:
        hyps = [
            (t, PROPORTIONS[dname, t], h) for t, hs in bank(dname).items() for h in hs
        ]
        ds = load_dataset(spark, dname, sf)
        grids.append(cells(spark, ds, hyps, samplers, runs=runs))
        ds.graph.unpersist()
    return pd.concat(grids, ignore_index=True)


def pivot_table3(grid: pd.DataFrame) -> pd.DataFrame:
    """Paper Table 3 layout: rows = (dataset, type), cols = samplers,
    cells = accuracy averaged over the hypotheses of the row. Columns
    ``<sampler>_lo`` and ``<sampler>_hi`` bound each cell with the Wilson
    95% interval of the row's pooled matches and runs."""
    pooled = grid.groupby(["Dataset", "Type", "Proportion", "Sampler"]).agg(
        Accuracy=("Accuracy", "mean"), Matches=("Matches", "sum"), Runs=("Runs", "sum")
    )
    ci = [wilson_interval(k, n) for k, n in zip(pooled["Matches"], pooled["Runs"])]
    pooled["lo"], pooled["hi"] = [c[0] for c in ci], [c[1] for c in ci]
    out = pooled["Accuracy"].unstack("Sampler")
    for bound in ("lo", "hi"):
        out = out.join(pooled[bound].unstack("Sampler").add_suffix(f"_{bound}"))
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
) -> pd.DataFrame:
    """Accuracy (with its Wilson 95% interval) and time for the DBLP
    length-3 and length-4 path hypotheses."""
    hyps = [(length, proportion, h) for length, h in dblp_long_paths().items()]
    ds = load_dataset(spark, "DBLP", sf)
    grid = cells(spark, ds, hyps, samplers, runs=runs)
    ds.graph.unpersist()
    grid = grid.rename(columns={"Type": "Length"})
    return grid[["Length", "Sampler", "Accuracy", "Lo", "Hi", "Time"]]
