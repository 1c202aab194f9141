"""PHASE / PHASE_opt specifics (Algorithms 1 and 2)."""
import pytest

from repro.core.phase import PHASE, PHASE_OPT
from repro.datasets.bank import bank
from repro.graph.walk_engine import M, N, W_H, W_L, WalkConfig, WalkContext, run_walk


class TestConfigs:
    def test_phase_paper_parameters(self):
        cfg = PHASE
        # §4.1: m=50, w_h=10, w_l=0.1.
        assert (M, W_H, W_L) == (50, 10.0, 0.1)
        assert cfg.weights == "phase"
        assert not cfg.algorithm2

    def test_phase_opt_adds_both_optimizations(self):
        cfg = PHASE_OPT
        # Optim 1 (n = 30 candidates) and Optim 2 (N[v] - V_S).
        assert cfg.algorithm2 and N == 30
        # The weight functions are unchanged from PHASE.
        assert cfg.weights == "phase"


class TestBehaviour:
    @pytest.mark.parametrize("name", ["PHASE", "PHASE_opt"])
    def test_reaches_budget(self, ml_edge_ctx, name):
        from repro.samplers import get_sampler

        ids = get_sampler(name).sample(ml_edge_ctx, 25, seed=17)
        assert len(ids) == 25

    def test_second_order_state_on_path_hypothesis(self, dblp):
        # A path hypothesis (l=2) exercises the k-state (2nd-order walk).
        hyp = bank("DBLP")["path"][0]
        ctx = WalkContext(dblp.graph, hyp)
        res = run_walk(ctx, PHASE_OPT, 40, seed=3)
        assert len(res.node_ids) == 40

    def test_phase_opt_faster_in_supersteps(self, ml_edge_ctx):
        # Optim 2 stops the walk from circling inside already-visited
        # relevant clusters, so distinct-node coverage needs fewer
        # supersteps — the source of the Table-2 speedup on our substrate.
        plain = run_walk(ml_edge_ctx, PHASE, 30, seed=5)
        opt = run_walk(ml_edge_ctx, PHASE_OPT, 30, seed=5)
        assert opt.supersteps <= plain.supersteps

    def test_relevant_fraction_beats_uniform_walk(self, ml):
        hyp = bank("MovieLens")["edge"][2]  # ML-E3: rare Documentary
        ctx = WalkContext(ml.graph, hyp)
        doc = set(
            ml.node_tables["movie"]
            .query("genre == 'Documentary'")["id"]
        )
        aware = run_walk(ctx, PHASE_OPT, 50, seed=21)
        unif = run_walk(ctx, WalkConfig(), 50, seed=21)
        assert len(set(aware.node_ids) & doc) >= len(set(unif.node_ids) & doc)
