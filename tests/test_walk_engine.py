"""Tests for the Pregel-style walk engine (the distributed substrate)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.hypothesis import (
    Agg,
    AttrRef,
    Modifier,
    Op,
    Predicate,
    path_hypothesis,
)
from repro.core.phase import Phase, PhaseOpt
from repro.datasets.bank import bank
from repro.graph.property_graph import PropertyGraph
from repro.graph.walk_engine import (
    WalkConfig,
    WalkContext,
    _advancement_probs,
    _candidates,
    _choose,
    _initial_k,
    run_walk,
    urand,
)


class TestUrand:
    def test_range_and_determinism(self, spark):
        df = spark.range(1000).select(
            urand(F.col("id"), seed=7, tag="t").alias("u")
        )
        row = df.agg(
            F.min("u").alias("lo"), F.max("u").alias("hi"), F.avg("u").alias("mu")
        ).first()
        assert 0.0 < row["lo"] and row["hi"] < 1.0
        assert row["mu"] == pytest.approx(0.5, abs=0.05)  # roughly uniform

    def test_seed_changes_stream(self, spark):
        a = spark.range(100).select(urand(F.col("id"), seed=1, tag="t").alias("u"))
        b = spark.range(100).select(urand(F.col("id"), seed=2, tag="t").alias("u"))
        assert a.collect() != b.collect()

    def test_tag_changes_stream(self, spark):
        a = spark.range(100).select(urand(F.col("id"), seed=1, tag="x").alias("u"))
        b = spark.range(100).select(urand(F.col("id"), seed=1, tag="y").alias("u"))
        assert a.collect() != b.collect()


class TestWalkContext:
    def test_agnostic_context_has_no_flags(self, spark, toy_graph):
        ctx = WalkContext(spark, toy_graph, None)
        assert ctx.n_modifiers == 0
        assert not ctx.sat1(1)
        ctx.unpersist()

    def test_hypothesis_flags(self, spark, toy_graph, toy_hyps):
        ctx = WalkContext(spark, toy_graph, toy_hyps["edge"])  # M_1 = a[]
        assert ctx.sat1(1) and ctx.sat1(2)
        assert not ctx.sat1(3)
        ctx.unpersist()

    def test_degrees_exposed(self, spark, toy_graph):
        ctx = WalkContext(spark, toy_graph, None)
        assert ctx.degree(1) == 2
        assert ctx.degree(5) == 1
        ctx.unpersist()

    def test_unknown_node_id_raises(self, spark, toy_graph):
        ctx = WalkContext(spark, toy_graph, None)
        with pytest.raises(KeyError):
            ctx.degree(99)
        ctx.unpersist()

    def test_csr_rowcount(self, spark, toy_graph):
        ctx = WalkContext(spark, toy_graph, None)
        assert len(ctx.csr.nbr) == 8  # both directions of 4 edges
        ctx.unpersist()


class TestAdvancementProbs:
    def _ctx(self, spark, toy_graph, hyp=None):
        return WalkContext(spark, toy_graph, hyp)

    def test_always_mode(self, spark, toy_graph):
        ctx = self._ctx(spark, toy_graph)
        p = _advancement_probs(
            WalkConfig(advancement="always"), ctx, ctx.csr.index([1, 3])
        )
        assert (p == 1.0).all()
        ctx.unpersist()

    def test_degree_mode_proportional(self, spark, toy_graph):
        ctx = self._ctx(spark, toy_graph)
        p = _advancement_probs(
            WalkConfig(advancement="degree"), ctx, ctx.csr.index([1, 3])
        )
        # degrees 2 and 1 -> weights 2/3, 1/3 -> probs min(1, 2*w).
        assert p[0] == pytest.approx(min(1.0, 2 * 2 / 3))
        assert p[1] == pytest.approx(min(1.0, 2 * 1 / 3))
        ctx.unpersist()

    def test_phase_mode_uses_sat1(self, spark, toy_graph, toy_hyps):
        ctx = self._ctx(spark, toy_graph, toy_hyps["edge"])
        p = _advancement_probs(
            WalkConfig(advancement="phase", w_h=10, w_l=0.1), ctx,
            ctx.csr.index([1, 3]),
        )
        assert p[0] > p[1]  # node 1 satisfies M_1, node 3 does not
        ctx.unpersist()

    def test_unknown_mode(self, spark, toy_graph):
        ctx = self._ctx(spark, toy_graph)
        with pytest.raises(ValueError):
            _advancement_probs(
                WalkConfig(advancement="bogus"), ctx, ctx.csr.index([1])
            )
        ctx.unpersist()


class TestRunWalk:
    def test_reaches_budget_exactly(self, ml_edge_ctx):
        res = run_walk(ml_edge_ctx, WalkConfig(m=10), 25, seed=3)
        assert len(res.node_ids) == 25
        assert len(set(res.node_ids)) == 25

    def test_sampled_ids_are_graph_nodes(self, ml_edge_ctx):
        res = run_walk(ml_edge_ctx, WalkConfig(m=10), 25, seed=3)
        assert set(res.node_ids) <= set(int(i) for i in ml_edge_ctx.node_ids)

    def test_deterministic_in_seed(self, ml_edge_ctx):
        a = run_walk(ml_edge_ctx, WalkConfig(m=10), 20, seed=5)
        b = run_walk(ml_edge_ctx, WalkConfig(m=10), 20, seed=5)
        assert sorted(a.node_ids) == sorted(b.node_ids)

    def test_seed_matters(self, ml_edge_ctx):
        a = run_walk(ml_edge_ctx, WalkConfig(m=10), 20, seed=5)
        b = run_walk(ml_edge_ctx, WalkConfig(m=10), 20, seed=6)
        assert sorted(a.node_ids) != sorted(b.node_ids)

    def test_m_capped_by_budget(self, ml_edge_ctx):
        # m=50 with budget 10 must not blow past the budget on step one.
        res = run_walk(ml_edge_ctx, WalkConfig(m=50), 10, seed=1)
        assert len(res.node_ids) == 10

    def test_phase_transition_biases_sample(self, spark, ml):
        # With the ML-E1 hypothesis (Comedy movies as M_2), the PHASE
        # transition must oversample relevant nodes vs a uniform walk.
        hyp = bank("MovieLens")["edge"][0]
        ctx = WalkContext(spark, ml.graph, hyp)
        unif = run_walk(ctx, WalkConfig(m=10), 60, seed=9)
        aware = run_walk(
            ctx,
            WalkConfig(m=10, advancement="phase", transition="phase"),
            60,
            seed=9,
        )

        def frac_relevant(ids):
            rows = ml.node_tables["movie"]
            comedy = set(rows[rows["genre"] == "Comedy"]["id"])
            return len(set(ids) & comedy) / len(ids)

        assert frac_relevant(aware.node_ids) > frac_relevant(unif.node_ids)
        ctx.unpersist()

    def test_exclude_visited_reduces_supersteps(self, ml_edge_ctx):
        plain = run_walk(ml_edge_ctx, WalkConfig(m=5), 30, seed=2)
        opt = run_walk(
            ml_edge_ctx, WalkConfig(m=5, exclude_visited=True), 30, seed=2
        )
        assert opt.supersteps <= plain.supersteps

    def test_neighbor_cap_still_reaches_budget(self, ml_edge_ctx):
        res = run_walk(ml_edge_ctx, WalkConfig(m=10, neighbor_cap=3), 25, seed=4)
        assert len(res.node_ids) == 25

    def test_restart_prob_runs(self, ml_edge_ctx):
        res = run_walk(ml_edge_ctx, WalkConfig(m=10, restart_prob=0.3), 25, seed=4)
        assert len(res.node_ids) == 25

    def test_mh_runs(self, ml_edge_ctx):
        res = run_walk(
            ml_edge_ctx, WalkConfig(m=10, metropolis_hastings=True), 25, seed=4
        )
        assert len(res.node_ids) == 25

    def test_bad_transition_mode(self, ml_edge_ctx):
        with pytest.raises(ValueError):
            run_walk(ml_edge_ctx, WalkConfig(m=5, transition="bogus"), 10, seed=1)


# Star: centre 0 (type c) joined to A leaves with flag on, then B leaves
# with flag off (type l). Under c[] -e-> l[flag == on], a walker on the
# centre has matched M_1 (k = 1) and the on-leaves continue the match.
STAR_A, STAR_B = 2, 100


@pytest.fixture(scope="module")
def star_ctx(spark):
    leaves = np.arange(1, STAR_A + STAR_B + 1)
    g = PropertyGraph.from_tables(
        spark,
        {
            "c": pd.DataFrame({"id": [0]}),
            "l": pd.DataFrame(
                {"id": leaves, "flag": ["on"] * STAR_A + ["off"] * STAR_B}
            ),
        },
        {"e": pd.DataFrame({"src": np.zeros_like(leaves), "dst": leaves})},
    )
    hyp = path_hypothesis(
        "star", [Modifier("c"), Modifier("l", (Predicate("flag", "==", "on"),))],
        ["e"], AttrRef("node", 0, None), Agg.COUNT, Op.GT, 0.0,
    )
    yield WalkContext(spark, g, hyp)
    g.unpersist()


def _walkers_on_centre(ctx, walkers):
    cur = np.full(walkers, ctx.csr.index(0))
    return cur, np.full(walkers, -1), _initial_k(ctx, cur)


class TestTransitionDistribution:
    def test_weighted_choice_share(self, star_ctx):
        cfg = Phase().config()
        rng = np.random.default_rng(0)
        draws = 4000
        cur, prev, k = _walkers_on_centre(star_ctx, draws)
        assert (k == 1).all()
        visited = np.zeros(star_ctx.csr.n, dtype=bool)
        walker, dst = _candidates(cfg, star_ctx, cur, prev, visited, rng)
        walker, dst, new_k = _choose(cfg, star_ctx, walker, dst, k, rng)
        assert (np.sort(walker) == np.arange(draws)).all()  # one move each
        on = star_ctx.csr.ids[dst] <= STAR_A
        p = cfg.w_h * STAR_A / (cfg.w_h * STAR_A + cfg.w_l * STAR_B)
        sigma = np.sqrt(p * (1 - p) / draws)
        assert abs(on.mean() - p) < 3 * sigma
        # Continuing the match advances k; an off-leaf resets it.
        assert (new_k[on] == 2).all() and (new_k[~on] == 0).all()

    def test_phase_opt_caps_and_excludes(self, star_ctx):
        cfg = PhaseOpt().config()
        rng = np.random.default_rng(1)
        walkers = 3000
        cur, prev, k = _walkers_on_centre(star_ctx, walkers)
        visited = np.zeros(star_ctx.csr.n, dtype=bool)
        in_vs = star_ctx.csr.index(np.arange(1, STAR_A + STAR_B + 1, 5))
        visited[in_vs] = True
        walker, dst = _candidates(cfg, star_ctx, cur, prev, visited, rng)
        per_walker = np.bincount(walker, minlength=walkers)
        assert (per_walker == cfg.neighbor_cap).all()  # 81 survivors >= n
        assert not visited[dst].any()
        # The n-subset is uniform over the survivors.
        counts = np.bincount(dst, minlength=star_ctx.csr.n)[~visited]
        counts = counts[star_ctx.csr.ids[~visited] != 0]
        share = cfg.neighbor_cap / len(counts)
        mean, sd = walkers * share, np.sqrt(walkers * share * (1 - share))
        assert (np.abs(counts - mean) < 5 * sd).all()
        _, chosen, _ = _choose(cfg, star_ctx, walker, dst, k, rng)
        assert not visited[chosen].any()
