"""Empirical convergence of the hypothesis estimator (paper §3.2.3):
as the budget B grows, the estimator on S approaches θ on G, and at
B = |V| it is exact (S = G)."""
import pytest

from repro.core.estimator import estimate
from repro.core.framework import Experiment
from repro.datasets.bank import bank
from repro.samplers import get_sampler


class TestConvergence:
    def test_full_budget_is_exact(self, spark, ml, ml_edge_ctx):
        # With B = |V|, every sampler's S is all of G.
        hyp = bank("MovieLens")["edge"][0]
        assert ml_edge_ctx.hyp == hyp
        truth = estimate(ml_edge_ctx)
        n = ml.graph.num_nodes()
        ids = get_sampler("PHASE_opt").sample(ml_edge_ctx, n, seed=1)
        got = estimate(ml_edge_ctx, ids)
        assert got.n_instances == truth.n_instances
        assert got.value == pytest.approx(truth.value, rel=1e-9)

    def test_estimator_error_shrinks_with_budget(self, spark, ml, ml_edge_ctx):
        # Averaged over a few seeds, |θ̂ - θ| at B=75% is no worse than
        # at B=15% for PHASE_opt (SLLN, Theorem 1).
        hyp = bank("MovieLens")["edge"][0]
        assert ml_edge_ctx.hyp == hyp
        truth = estimate(ml_edge_ctx).value
        n = ml.graph.num_nodes()

        def mean_err(budget):
            errs = []
            for seed in (1, 2, 3):
                ids = get_sampler("PHASE_opt").sample(ml_edge_ctx, budget, seed=seed)
                est = estimate(ml_edge_ctx, ids)
                errs.append(abs(est.value - truth))
            return sum(errs) / len(errs)

        assert mean_err(int(0.75 * n)) <= mean_err(int(0.15 * n)) + 1e-9

    def test_accuracy_high_at_large_budget(self, spark, ml, ml_edge_ctx):
        exp = Experiment(spark, ml.graph, bank("MovieLens")["edge"][0])
        exp._ctx = ml_edge_ctx
        res = exp.accuracy("PHASE_opt", int(0.6 * ml.graph.num_nodes()), runs=3)
        assert res["accuracy"] == 1.0

    def test_ci_narrows_with_budget(self, spark, ml, ml_edge_ctx):
        # Fig. 4b behaviour: more budget -> tighter confidence interval.
        hyp = bank("MovieLens")["edge"][0]
        exp = Experiment(spark, ml.graph, hyp)
        exp._ctx = ml_edge_ctx
        small = exp.run_once("PHASE_opt", 30, seed=4).outcome
        large = exp.run_once("PHASE_opt", 120, seed=4).outcome
        w_small = small.ci[1] - small.ci[0]
        w_large = large.ci[1] - large.ci[0]
        assert w_large < w_small
