"""The sampling-based hypothesis-testing framework (paper Fig. 2).

Wires everything together: pick a sampler (hypothesis-agnostic or
-aware), draw S under budget B, materialize the induced subgraph,
extract relevant instances, test, and — across repeated runs — compute
the paper's evaluation measures:

- Accuracy = (1/k) Σ 1[H(G) == H(S)]  (§4.2; an undecided H(S) counts
  as a mismatch, which is what produces the near-zero path accuracies
  of node/edge samplers in Table 3),
- total execution time = sampling time + relevant-info extraction time
  (§4.2 "Time").
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.hypothesis import Hypothesis
from repro.core.testing import TestOutcome, run_test
from repro.graph.property_graph import PropertyGraph
from repro.graph.walk_engine import WalkContext
from repro.samplers import get_sampler  # package import registers all samplers


@dataclass(frozen=True)
class RunResult:
    """One sampler run: the outcome on S plus timing breakdown."""

    sampler: str
    budget: int
    n_sampled: int
    outcome: TestOutcome
    sample_seconds: float
    test_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.sample_seconds + self.test_seconds


@dataclass
class Experiment:
    """Caches per-(graph, hypothesis) state across samplers and runs."""

    spark: SparkSession
    graph: PropertyGraph
    hyp: Hypothesis
    ground_truth: Optional[TestOutcome] = None
    _ctx: Optional[WalkContext] = None

    def context(self) -> WalkContext:
        if self._ctx is None:
            self._ctx = WalkContext(self.spark, self.graph, self.hyp)
        return self._ctx

    def truth(self) -> TestOutcome:
        """H(G): the exact test on the full graph."""
        if self.ground_truth is None:
            self.ground_truth = run_test(self.graph, self.hyp)
        return self.ground_truth

    def run_once(self, sampler_name: str, budget: int, *, seed: int) -> RunResult:
        sampler = get_sampler(sampler_name)
        ctx = self.context()
        t0 = time.perf_counter()
        node_ids = sampler.sample(ctx, budget, seed=seed)
        t1 = time.perf_counter()
        ids_df = self.spark.createDataFrame(
            pd.DataFrame({"id": sorted(int(i) for i in node_ids)})
        )
        sub = self.graph.induced_subgraph(ids_df)
        outcome = run_test(sub, self.hyp)
        t2 = time.perf_counter()
        return RunResult(
            sampler_name, budget, len(node_ids), outcome, t1 - t0, t2 - t1
        )

    def accuracy(
        self, sampler_name: str, budget: int, *, runs: int, seed: int = 0
    ) -> dict:
        """Average accuracy/time of ``runs`` independent runs (§4.2)."""
        truth = self.truth().decision
        results = [
            self.run_once(sampler_name, budget, seed=seed * 1000 + r)
            for r in range(runs)
        ]
        acc = sum(1 for r in results if r.outcome.decision == truth) / runs
        return {
            "sampler": sampler_name,
            "budget": budget,
            "runs": runs,
            "accuracy": acc,
            "avg_total_seconds": sum(r.total_seconds for r in results) / runs,
            "avg_sample_seconds": sum(r.sample_seconds for r in results) / runs,
            "results": results,
        }

    def close(self) -> None:
        if self._ctx is not None:
            self._ctx.unpersist()
            self._ctx = None
