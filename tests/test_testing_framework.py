"""Tests for the testing step and the end-to-end framework (Fig. 2)."""
import pytest

from repro.core.framework import Experiment
from repro.core.hypothesis import Agg, AttrRef, Modifier, Op, path_hypothesis
from repro.core.testing import run_test


class TestRunTest:
    def test_node_decision_and_ttest(self, context, toy_graph, toy_hyps):
        out = run_test(context(toy_graph, toy_hyps["node"]))
        assert out.decision is True  # avg x = 15 > 12
        assert out.estimate.n_instances == 2
        assert out.ttest is not None
        assert 0.0 <= out.p_value <= 1.0
        lo, hi = out.ci
        assert lo <= out.estimate.mean <= hi

    def test_false_decision(self, context, toy_graph):
        h = path_hypothesis(
            "t", [Modifier("a")], [], AttrRef("node", 0, "x"), Agg.AVG, Op.GT, 99.0
        )
        assert run_test(context(toy_graph, h)).decision is False

    def test_less_operator(self, context, toy_graph):
        h = path_hypothesis(
            "t", [Modifier("a")], [], AttrRef("node", 0, "x"), Agg.AVG, Op.LT, 99.0
        )
        assert run_test(context(toy_graph, h)).decision is True

    def test_undecided_on_empty(self, context, toy_graph):
        h = path_hypothesis(
            "t", [Modifier("nope")], [], AttrRef("node", 0, "x"), Agg.AVG, Op.GT, 0
        )
        out = run_test(context(toy_graph, h))
        assert out.decision is None
        assert out.ttest is None
        assert out.p_value is None and out.ci is None

    def test_non_avg_has_no_ttest(self, context, toy_graph):
        h = path_hypothesis(
            "t", [Modifier("a")], [], AttrRef("node", 0, "x"), Agg.MAX, Op.GT, 0
        )
        out = run_test(context(toy_graph, h))
        assert out.decision is True  # max = 20 > 0
        assert out.ttest is None


class TestExperiment:
    def test_truth_cached(self, spark, toy_graph, toy_hyps):
        exp = Experiment(spark, toy_graph, toy_hyps["node"])
        t1 = exp.truth()
        assert exp.truth() is t1
        exp.close()

    def test_run_once_fields(self, spark, ml, ml_edge_ctx):
        from repro.datasets.bank import bank

        exp = Experiment(spark, ml.graph, bank("MovieLens")["edge"][0])
        exp._ctx = ml_edge_ctx  # reuse the session context
        r = exp.run_once("RNS", 30, seed=1)
        assert r.sampler == "RNS"
        assert r.n_sampled == 30
        assert r.sample_seconds >= 0 and r.test_seconds >= 0
        assert r.total_seconds == pytest.approx(
            r.sample_seconds + r.test_seconds
        )

    def test_accuracy_bounds_and_runs(self, spark, ml, ml_edge_ctx):
        from repro.datasets.bank import bank

        exp = Experiment(spark, ml.graph, bank("MovieLens")["edge"][0])
        exp._ctx = ml_edge_ctx
        res = exp.accuracy("RNS", 30, runs=3, seed=2)
        assert 0.0 <= res["accuracy"] <= 1.0
        assert len(res["results"]) == 3
        assert res["avg_total_seconds"] > 0

    def test_sampled_test_agrees_on_abundant_hypothesis(
        self, spark, ml, ml_edge_ctx
    ):
        # ML-E1 is abundant: a modest PHASE_opt sample should reproduce
        # the full-graph decision.
        from repro.datasets.bank import bank

        exp = Experiment(spark, ml.graph, bank("MovieLens")["edge"][0])
        exp._ctx = ml_edge_ctx
        truth = exp.truth().decision
        r = exp.run_once("PHASE_opt", 60, seed=3)
        assert r.outcome.decision == truth


class TestEqualityOperators:
    """Op.EQ / Op.NE decide by exact equality of the aggregate; on the
    toy graph avg x over the a-nodes is exactly 15."""

    @pytest.mark.parametrize(
        "op,c,expected",
        [(Op.EQ, 15.0, True), (Op.EQ, 12.0, False), (Op.NE, 15.0, False), (Op.NE, 12.0, True)],
    )
    def test_decision(self, context, toy_graph, op, c, expected):
        h = path_hypothesis("t", [Modifier("a")], [], AttrRef("node", 0, "x"), Agg.AVG, op, c)
        out = run_test(context(toy_graph, h))
        assert out.decision is expected
        # Two-sided: t = 0 at c == mean gives p = 1 (one-sided would give 0.5).
        assert out.p_value == pytest.approx(1.0) if c == 15.0 else out.p_value < 1.0


class TestAccuracyContract:
    def test_undecided_ground_truth_raises(self, spark, toy_graph):
        # No 'zzz' node exists: H(G) is undecided, and so is every H(S).
        # Scoring decision == truth would call each run a match.
        h = path_hypothesis(
            "toy-zzz", [Modifier("zzz")], [], AttrRef("node", 0, "x"), Agg.AVG, Op.GT, 0
        )
        exp = Experiment(spark, toy_graph, h)
        assert exp.truth().decision is None
        with pytest.raises(ValueError, match="toy-zzz"):
            exp.accuracy("RNS", 3, runs=2)
        exp.close()

    def test_accuracy_carries_wilson_interval(self, spark, ml, ml_edge_ctx):
        from repro.datasets.bank import bank
        from repro.stats.proportion import wilson_interval

        exp = Experiment(spark, ml.graph, bank("MovieLens")["edge"][0])
        exp._ctx = ml_edge_ctx
        res = exp.accuracy("PHASE_opt", 30, runs=4, seed=5)
        assert res["accuracy"] == res["matches"] / 4
        assert res["accuracy_ci"] == wilson_interval(res["matches"], 4)
        lo, hi = res["accuracy_ci"]
        assert lo <= res["accuracy"] <= hi
