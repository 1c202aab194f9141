"""The sampling-based hypothesis-testing framework (paper Fig. 2).

Wires everything together: pick a sampler (hypothesis-agnostic or
-aware), draw V_S under budget B, extract the relevant instances of the
induced subgraph S from the driver-side projection and test them, and —
across repeated runs — compute the paper's evaluation measures:

- Accuracy = (1/k) Σ 1[H(G) == H(S)]  (§4.2; an undecided H(S) counts
  as a mismatch, which is what produces the near-zero path accuracies
  of node/edge samplers in Table 3), with its Wilson 95% interval. It is
  undefined when H(G) itself is undecided (no instance in G).
- total execution time = sampling time + relevant-info extraction time
  (§4.2 "Time").

Spark's part in a run is RES's sample job; every other sampler and the
test launch none.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from pyspark.sql import SparkSession

from repro.core.hypothesis import Hypothesis
from repro.core.testing import TestOutcome, run_test
from repro.graph.property_graph import PropertyGraph
from repro.graph.walk_engine import WalkContext
from repro.samplers import get_sampler  # package import registers all samplers
from repro.stats.proportion import wilson_interval


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
    """Caches per-(graph, hypothesis) state across samplers and runs.

    ``spark`` is not used here: the context collects through ``graph``'s
    own session. The field stays because callers (the table jobs and the
    benchmark runner) construct ``Experiment(spark, graph, hyp)``
    positionally.
    """

    spark: SparkSession
    graph: PropertyGraph
    hyp: Hypothesis
    ground_truth: Optional[TestOutcome] = field(init=False, default=None)
    _ctx: Optional[WalkContext] = field(init=False, default=None)

    def context(self) -> WalkContext:
        if self._ctx is None:
            self._ctx = WalkContext(self.graph, self.hyp)
        return self._ctx

    def truth(self) -> TestOutcome:
        """H(G): the exact test on the full graph."""
        if self.ground_truth is None:
            self.ground_truth = run_test(self.context())
        return self.ground_truth

    def run_once(self, sampler_name: str, budget: int, *, seed: int) -> RunResult:
        sampler = get_sampler(sampler_name)
        ctx = self.context()
        t0 = time.perf_counter()
        node_ids = sampler.sample(ctx, budget, seed=seed)
        t1 = time.perf_counter()
        outcome = run_test(ctx, node_ids)
        t2 = time.perf_counter()
        return RunResult(
            sampler_name, budget, len(node_ids), outcome, t1 - t0, t2 - t1
        )

    def accuracy(
        self, sampler_name: str, budget: int, *, runs: int, seed: int = 0
    ) -> dict:
        """Average accuracy/time of ``runs`` independent runs (§4.2).

        ``matches`` counts the runs with H(S) == H(G) and ``accuracy_ci``
        is the Wilson 95% interval of ``accuracy``. Raises ValueError
        when H(G) is undecided: an undecided H(S) would then "match".
        """
        truth = self.truth().decision
        if truth is None:
            raise ValueError(
                f"{self.hyp.name}: H(G) is undecided (no relevant instance "
                "in G), so accuracy is undefined"
            )
        results = [
            self.run_once(sampler_name, budget, seed=seed * 1000 + r)
            for r in range(runs)
        ]
        matches = sum(1 for r in results if r.outcome.decision == truth)
        return {
            "sampler": sampler_name,
            "budget": budget,
            "runs": runs,
            "matches": matches,
            "accuracy": matches / runs,
            "accuracy_ci": wilson_interval(matches, runs),
            "avg_total_seconds": sum(r.total_seconds for r in results) / runs,
            "results": results,
        }

    def close(self) -> None:
        """Drop the cached context (it holds nothing on the cluster)."""
        self._ctx = None
