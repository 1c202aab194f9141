"""Tests for the batched multi-walker walk engine over the driver-side CSR."""
from types import SimpleNamespace

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
from repro.core.phase import PHASE, PHASE_OPT
from repro.datasets.bank import bank, dblp_long_paths
from repro.graph.csr import CSR, DRAW
from repro.graph.property_graph import PropertyGraph
from repro.graph.walk_engine import (
    CAP_ROUNDS,
    M,
    N,
    SUPERSTEP_FLOOR,
    W_H,
    W_L,
    WalkConfig,
    WalkContext,
    _advancement_probs,
    _candidates,
    _choose,
    run_walk,
)
from repro.samplers.edge_samplers import urand
from tests.reference_projection import reference_steps


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


@pytest.fixture(scope="module")
def toy_edge_ctx(toy_graph, toy_hyps):
    return WalkContext(toy_graph, toy_hyps["edge"])  # M_1 = a[]


class TestWalkContext:
    def test_hypothesis_flags(self, toy_edge_ctx):
        ctx = toy_edge_ctx
        assert (ctx.bits[ctx.csr.index([1, 2, 3])] & 1 == 1).tolist() == [True, True, False]

    def test_degrees_exposed(self, toy_edge_ctx):
        ctx = toy_edge_ctx
        assert ctx.csr.deg[ctx.csr.index([1, 5])].tolist() == [2, 1]

    def test_unknown_node_id_raises(self, toy_edge_ctx):
        with pytest.raises(KeyError):
            toy_edge_ctx.csr.index(99)

    def test_csr_rowcount(self, toy_edge_ctx):
        assert len(toy_edge_ctx.csr.nbr) == 8  # both directions of 4 edges

    def test_inverse_step_reads_the_mirrored_edges(self, toy_graph, toy_hyps):
        # Step 0 of b -r_inv-> a -r-> b: every stored r edge, dst to src.
        step = WalkContext(toy_graph, toy_hyps["path"]).steps[0]
        row, nbr = step.gather(np.arange(step.n))
        pairs = sorted(zip(step.ids[row].tolist(), step.ids[nbr].tolist()))
        assert pairs == [(3, 1), (4, 1), (4, 2), (5, 2)]


BANK_FIXTURES = {"ml": "MovieLens", "dblp": "DBLP", "yelp": "Yelp"}
BANK_HYPS = {
    fixture: {
        h.name: h
        for h in [*(h for hs in bank(name).values() for h in hs),
                  *(dblp_long_paths().values() if name == "DBLP" else ())]
    }
    for fixture, name in BANK_FIXTURES.items()
}


@pytest.mark.parametrize(
    "fixture,name",
    [(fx, name) for fx, hyps in BANK_HYPS.items() for name in hyps]
    + [("toy_graph", kind) for kind in ("node", "edge", "path")],
)
def test_step_csrs_match_the_reference_projection(request, toy_hyps, fixture, name):
    """Every step CSR, ``val`` included, equals the one built by mirroring
    the collected edges and running ``CSR.build`` per step, array for
    array and dtype for dtype (``tests/reference_projection.py``)."""
    if fixture == "toy_graph":
        graph, hyp = request.getfixturevalue(fixture), toy_hyps[name]
    else:
        graph, hyp = request.getfixturevalue(fixture).graph, BANK_HYPS[fixture][name]
    got = WalkContext(graph, hyp).steps
    want = reference_steps(graph, hyp)
    assert len(got) == len(want) == hyp.length
    for g, w in zip(got, want):
        for attr in ("ids", "indptr", "nbr", "deg", "val"):
            a, b = getattr(g, attr), getattr(w, attr)
            assert (a is None) == (b is None), attr
            if a is not None:
                assert a.dtype == b.dtype and np.array_equal(a, b), (name, attr)


class TestAdvancementProbs:
    def test_always_mode(self, toy_edge_ctx):
        ctx = toy_edge_ctx
        p = _advancement_probs(WalkConfig(), ctx, ctx.csr.index([1, 3]))
        assert (p == 1.0).all()

    def test_degree_mode_proportional(self, toy_edge_ctx):
        ctx = toy_edge_ctx
        p = _advancement_probs(
            WalkConfig(weights="degree"), ctx, ctx.csr.index([1, 3])
        )
        # degrees 2 and 1 -> weights 2/3, 1/3 -> probs min(1, 2*w).
        assert p[0] == pytest.approx(min(1.0, 2 * 2 / 3))
        assert p[1] == pytest.approx(min(1.0, 2 * 1 / 3))

    def test_phase_mode_uses_sat1(self, toy_edge_ctx):
        ctx = toy_edge_ctx
        p = _advancement_probs(PHASE, ctx, ctx.csr.index([1, 3]))
        assert p[0] > p[1]  # node 1 satisfies M_1, node 3 does not

    def test_unknown_mode(self, toy_edge_ctx):
        ctx = toy_edge_ctx
        with pytest.raises(ValueError, match="unknown weights"):
            _advancement_probs(
                WalkConfig(weights="bogus"), ctx, ctx.csr.index([1])
            )


class TestRunWalk:
    def test_reaches_budget_exactly(self, ml_edge_ctx):
        res = run_walk(ml_edge_ctx, WalkConfig(), 25, seed=3)
        assert len(res.node_ids) == 25
        assert len(set(res.node_ids)) == 25

    def test_sampled_ids_are_graph_nodes(self, ml_edge_ctx):
        res = run_walk(ml_edge_ctx, WalkConfig(), 25, seed=3)
        assert set(res.node_ids) <= set(ml_edge_ctx.csr.ids.tolist())

    def test_deterministic_in_seed(self, ml_edge_ctx):
        a = run_walk(ml_edge_ctx, WalkConfig(), 20, seed=5)
        b = run_walk(ml_edge_ctx, WalkConfig(), 20, seed=5)
        assert sorted(a.node_ids) == sorted(b.node_ids)

    def test_seed_matters(self, ml_edge_ctx):
        a = run_walk(ml_edge_ctx, WalkConfig(), 20, seed=5)
        b = run_walk(ml_edge_ctx, WalkConfig(), 20, seed=6)
        assert sorted(a.node_ids) != sorted(b.node_ids)

    def test_m_capped_by_budget(self, ml_edge_ctx):
        # m = M = 50 with budget 10 must not blow past the budget on step one.
        res = run_walk(ml_edge_ctx, WalkConfig(), 10, seed=1)
        assert len(res.node_ids) == 10

    def test_phase_transition_biases_sample(self, ml):
        # With the ML-E1 hypothesis (Comedy movies as M_2), the PHASE
        # transition must oversample relevant nodes vs a uniform walk.
        hyp = bank("MovieLens")["edge"][0]
        ctx = WalkContext(ml.graph, hyp)
        unif = run_walk(ctx, WalkConfig(), 60, seed=9)
        aware = run_walk(ctx, PHASE, 60, seed=9)

        def frac_relevant(ids):
            rows = ml.node_tables["movie"]
            comedy = set(rows[rows["genre"] == "Comedy"]["id"])
            return len(set(ids) & comedy) / len(ids)

        assert frac_relevant(aware.node_ids) > frac_relevant(unif.node_ids)

    def test_exclude_visited_reduces_supersteps(self, ml_edge_ctx):
        plain = run_walk(ml_edge_ctx, WalkConfig(), 30, seed=2)
        opt = run_walk(ml_edge_ctx, WalkConfig(algorithm2=True), 30, seed=2)
        assert opt.supersteps <= plain.supersteps

    def test_neighbor_cap_still_reaches_budget(self, ml_edge_ctx):
        res = run_walk(ml_edge_ctx, WalkConfig(algorithm2=True), 25, seed=4)
        assert len(res.node_ids) == 25

    def test_restart_prob_runs(self, ml_edge_ctx):
        res = run_walk(ml_edge_ctx, WalkConfig(restart=True), 25, seed=4)
        assert len(res.node_ids) == 25

    def test_mh_runs(self, ml_edge_ctx):
        res = run_walk(
            ml_edge_ctx, WalkConfig(metropolis_hastings=True), 25, seed=4
        )
        assert len(res.node_ids) == 25

    def test_bad_transition_mode(self, ml_edge_ctx):
        with pytest.raises(ValueError, match="unknown weights"):
            run_walk(ml_edge_ctx, WalkConfig(weights="bogus"), 10, seed=1)


def _driver_ctx(n, src, dst):
    """A context without Spark: the CSR over ids 0..n-1 and no modifier."""
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    csr = CSR.build(np.arange(n), np.concatenate([src, dst]), np.concatenate([dst, src]))
    return SimpleNamespace(csr=csr, bits=np.zeros(n, dtype=np.int64))


class TestSuperstepCap:
    """A walk stops at max(SUPERSTEP_FLOOR, CAP_ROUNDS * ceil(B / m))
    supersteps, m the walkers it runs (50 here)."""

    def test_walk_that_needs_more_than_the_floor_reaches_b(self):
        # No edges: every walker teleports to a uniform node each
        # superstep, so covering all n nodes is coupon collecting, about
        # (n / m) * (ln n + 0.58) = 910 supersteps here; the floor alone
        # would stop the walk near 4,900 nodes.
        n = 5000
        res = run_walk(_driver_ctx(n, [], []), WalkConfig(), n, seed=0)
        assert SUPERSTEP_FLOOR < res.supersteps < CAP_ROUNDS * n // M
        assert len(res.node_ids) == n

    def test_walk_that_cannot_reach_b_stops_at_the_cap(self):
        # A perfect matching: a walker never dead-ends, so it never
        # teleports off its first edge, and V_S stays at 2m nodes.
        n = 5000
        ctx = _driver_ctx(n, np.arange(0, n, 2), np.arange(1, n, 2))
        res = run_walk(ctx, WalkConfig(), n, seed=0)
        assert res.supersteps == CAP_ROUNDS * n // M
        assert len(res.node_ids) == 2 * M


# Star: centre 0 (type c) joined to A leaves with flag on, then B leaves
# with flag off (type l). Under c[] -e-> l[flag == on], a walker on the
# centre has matched M_1 (k = 1) and the on-leaves continue the match.
STAR_A, STAR_B = 2, 100


def _star_graph(spark, a, b):
    leaves = np.arange(1, a + b + 1)
    return PropertyGraph.from_tables(
        spark,
        {
            "c": pd.DataFrame({"id": [0]}),
            "l": pd.DataFrame({"id": leaves, "flag": ["on"] * a + ["off"] * b}),
        },
        {"e": pd.DataFrame({"src": np.zeros_like(leaves), "dst": leaves})},
    )


STAR_HYP = path_hypothesis(
    "star", [Modifier("c"), Modifier("l", (Predicate("flag", "==", "on"),))],
    ["e"], AttrRef("node", 0, None), Agg.COUNT, Op.GT, 0.0,
)


@pytest.fixture(scope="module")
def star_ctx(spark):
    g = _star_graph(spark, STAR_A, STAR_B)
    yield WalkContext(g, STAR_HYP)
    g.unpersist()


def _walkers_on_centre(ctx, walkers):
    cur = np.full(walkers, ctx.csr.index(0))
    return cur, np.full(walkers, -1), ctx.bits[cur] & 1


class TestTransitionDistribution:
    def test_weighted_choice_share(self, star_ctx):
        cfg = PHASE
        rng = np.random.default_rng(0)
        draws = 4000
        cur, prev, k = _walkers_on_centre(star_ctx, draws)
        assert (k == 1).all()
        visited = np.zeros(star_ctx.csr.n, dtype=bool)
        walker, dst, _ = _candidates(cfg, star_ctx, cur, prev, visited, rng)
        walker, dst, new_k = _choose(cfg, star_ctx, walker, dst, k, rng)
        assert (np.sort(walker) == np.arange(draws)).all()  # one move each
        on = star_ctx.csr.ids[dst] <= STAR_A
        p = W_H * STAR_A / (W_H * STAR_A + W_L * STAR_B)
        sigma = np.sqrt(p * (1 - p) / draws)
        assert abs(on.mean() - p) < 3 * sigma
        # Continuing the match advances k; an off-leaf resets it.
        assert (new_k[on] == 2).all() and (new_k[~on] == 0).all()

    def test_phase_opt_caps_and_excludes(self, star_ctx):
        cfg = PHASE_OPT
        rng = np.random.default_rng(1)
        walkers = 3000
        cur, prev, k = _walkers_on_centre(star_ctx, walkers)
        visited = np.zeros(star_ctx.csr.n, dtype=bool)
        in_vs = star_ctx.csr.index(np.arange(1, STAR_A + STAR_B + 1, 5))
        visited[in_vs] = True
        walker, dst, _ = _candidates(cfg, star_ctx, cur, prev, visited, rng)
        per_walker = np.bincount(walker, minlength=walkers)
        assert (per_walker == N).all()  # 81 survivors >= n
        assert not visited[dst].any()
        # The n-subset is uniform over the survivors.
        counts = np.bincount(dst, minlength=star_ctx.csr.n)[~visited]
        counts = counts[star_ctx.csr.ids[~visited] != 0]
        share = N / len(counts)
        mean, sd = walkers * share, np.sqrt(walkers * share * (1 - share))
        assert (np.abs(counts - mean) < 5 * sd).all()
        _, chosen, _ = _choose(cfg, star_ctx, walker, dst, k, rng)
        assert not visited[chosen].any()

    def test_restart_at_m1_weighs_w_h(self):
        # Fig. 3's restart term: under a path of length 1 a walker with
        # k = 1 weighs a candidate that satisfies M_1 but not M_2 by w_h,
        # though it does not continue the prefix, and its k restarts at 1.
        # Candidate 0 satisfies M_1 only, candidate 1 neither.
        ctx = SimpleNamespace(bits=np.array([0b01, 0b00]))
        draws = 4000
        walker = np.repeat(np.arange(draws), 2)
        dst = np.tile([0, 1], draws)
        k = np.ones(draws, dtype=np.int64)
        rng = np.random.default_rng(2)
        _, dst, new_k = _choose(PHASE, ctx, walker, dst, k, rng)
        restart = dst == 0
        p = W_H / (W_H + W_L)
        sigma = np.sqrt(p * (1 - p) / draws)
        assert abs(restart.mean() - p) < 4 * sigma
        assert (new_k[restart] == 1).all() and (new_k[~restart] == 0).all()


class TestExamined:
    """``WalkResult.examined``: the neighbor slots the candidate steps
    read. On a hub PHASE reads the whole slice, PHASE_opt ``DRAW * N``."""

    @pytest.fixture(scope="class")
    def hubs(self, spark):
        graphs = {deg: _star_graph(spark, STAR_A, deg - STAR_A) for deg in (100, 10_000)}
        yield {deg: WalkContext(g, STAR_HYP) for deg, g in graphs.items()}
        for g in graphs.values():
            g.unpersist()

    def test_candidate_step_reads_o_n_slots_on_a_hub(self, hubs):
        walkers = 40
        for deg, ctx in hubs.items():
            cur, prev, _ = _walkers_on_centre(ctx, walkers)
            visited = np.zeros(ctx.csr.n, dtype=bool)
            rng = np.random.default_rng(3)
            *_, opt = _candidates(PHASE_OPT, ctx, cur, prev, visited, rng)
            *_, plain = _candidates(PHASE, ctx, cur, prev, visited, rng)
            assert opt == walkers * DRAW * N
            assert plain == walkers * deg

    @pytest.mark.parametrize("seed", range(3))
    def test_walk_reads_o_n_slots_per_advancing_walker(self, hubs, seed):
        budget = 20
        m = budget // 6  # the walkers run_walk starts at this budget
        read = {}
        for deg, ctx in hubs.items():
            for cfg in (PHASE, PHASE_OPT):
                res = run_walk(ctx, cfg, budget, seed=seed)
                read[cfg.algorithm2, deg] = res.examined
                # A walker advances at most once per superstep.
                if cfg.algorithm2:
                    assert res.examined <= DRAW * N * m * res.supersteps
        assert read[False, 10_000] > 10 * read[False, 100]
