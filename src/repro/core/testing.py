"""Hypothesis testing step of the framework (paper Fig. 2, right side).

Given a hypothesis's :class:`~repro.graph.walk_engine.WalkContext` and,
for a sample S, its node set V_S, compute the estimator on G or S, the
boolean decision H(·), and — for AVG hypotheses — the one-sample t-test
p-value and confidence interval. Runs on the driver; no Spark job.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.estimator import Estimate, estimate
from repro.core.hypothesis import Agg
from repro.graph.walk_engine import WalkContext
from repro.stats.ttest import TTestResult, ttest_from_stats


@dataclass(frozen=True)
class TestOutcome:
    """Result of testing one hypothesis on one graph.

    ``decision`` is None when the graph holds no relevant instance (the
    test is *undecided*; counted as a mismatch by the accuracy measure,
    see DESIGN.md §3). ``ttest`` is populated for AVG aggregates only.
    """

    hypothesis: str
    estimate: Estimate
    decision: Optional[bool]
    ttest: Optional[TTestResult]

    @property
    def p_value(self) -> Optional[float]:
        return self.ttest.p_value if self.ttest is not None else None

    @property
    def ci(self) -> Optional[tuple[float, float]]:
        if self.ttest is None:
            return None
        return (self.ttest.ci_low, self.ttest.ci_high)


def run_test(ctx: WalkContext, members: Optional[Iterable[int]] = None) -> TestOutcome:
    """Test ``ctx.hyp`` on G (``members`` None) or on the subgraph induced
    on ``members``: extract relevant instances, aggregate, and decide."""
    hyp = ctx.hyp
    est = estimate(ctx, members)
    decision = hyp.decide(est.value)
    tt = None
    if est.n_instances > 0 and hyp.agg is Agg.AVG:
        tt = ttest_from_stats(
            est.n_instances,
            est.mean,
            est.std,
            hyp.c,
            alternative=hyp.op.alternative,
        )
    return TestOutcome(hyp.name, est, decision, tt)
