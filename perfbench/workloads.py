"""The benchmark's workloads: one dataset and a fixed mix of queries.

A query is one ``Experiment.run_once(sampler, budget, seed)`` on one
hypothesis. A run cycles through the mix in order, as whole passes, so
every run of a workload measures the same queries in the same
proportions; only the query seeds change with ``--seed``. Every dataset
is built by its generator at sf=1 with the generator's default seed.

The mixes are what one run can afford. With one Spark job per walk
superstep, a PHASE query on DBLP-lite costs 8-11 s. So phase-dblp runs
three queries per pass on DB-P1 only, and a Yelp traversal mix (about 66 s
per pass) is left out. estimate-ml tests ML-P1 only. With ML-E1 added,
whose queries cost about half as much, the per-run median fell in the gap
between the two cost clusters.

Warm-up counts: estimate-ml's query times fall from about 3.5 s to a
plateau near 2 s over a fresh JVM's first six to ten queries, so it runs
two untimed passes. phase-dblp's first query is about a third slower than
the same query later; its mix starts with SBS, the cheapest, so the one
untimed query costs 5-8 s instead of the 10-16 s of a PHASE walk.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.hypothesis import Hypothesis
from repro.datasets.bank import bank


@dataclass(frozen=True)
class Query:
    sampler: str
    hypothesis: str
    budget: int

    @property
    def budget_unit(self) -> str:
        return "edges" if self.sampler == "RES" else "nodes"


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # key of repro.datasets.GENERATORS and of the bank
    mix: tuple[Query, ...]
    warmup: int  # untimed queries of the mix, in order, before the timed loop
    why: str

    def hypotheses(self) -> dict[str, Hypothesis]:
        wanted = {q.hypothesis for q in self.mix}
        found = {h.name: h for hs in bank(self.dataset).values() for h in hs
                 if h.name in wanted}
        missing = wanted - set(found)
        if missing:
            raise KeyError(f"{self.name}: no hypothesis {sorted(missing)} in the bank")
        # Set-up order follows the mix, so the first query's context is built first.
        return {q.hypothesis: found[q.hypothesis] for q in self.mix}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "phase-dblp",
            "DBLP",
            # B = 2% of DBLP-lite's 7,068 nodes: the Table-2 setting.
            tuple(Query(s, "DB-P1", 141) for s in ("SBS", "PHASE_opt", "PHASE")),
            1,
            "PHASE and PHASE_opt walks plus snowball BFS on the Table-2 setting; "
            "Spark jobs per superstep or BFS level dominate",
        ),
        Workload(
            "estimate-ml",
            "MovieLens",
            # B = 25% of MovieLens-lite's 1,000 nodes (250 edges for RES).
            tuple(Query(s, "ML-P1", 250) for s in ("RNS", "DBS", "RES")),
            6,
            "one-job node/edge samplers on a dense graph: induce + estimate "
            "dominate and walk engine and BFS are bypassed",
        ),
    )
}
