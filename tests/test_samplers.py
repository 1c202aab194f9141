"""Cross-sampler invariants (parametrized over every registered sampler,
reusing one session-scoped run each) plus sampler-specific behavior."""
import hashlib

import pandas as pd
import pytest

from repro.core.hypothesis import Agg, AttrRef, Modifier, Op, path_hypothesis
from repro.core.phase import PHASE_OPT
from repro.graph.property_graph import PropertyGraph
from repro.graph.walk_engine import WalkConfig, WalkContext, run_walk
from repro.samplers import AGNOSTIC, ALL, SAMPLERS, get_sampler
from tests.conftest import SAMPLE_BUDGET, SAMPLE_SEED

ALL_NAMES = sorted(SAMPLERS)


class TestRegistry:
    def test_all_twelve_plus_phase(self):
        # 11 agnostic + PHASE + PHASE_opt = 13 registered.
        assert len(ALL_NAMES) == 13
        assert set(AGNOSTIC) <= set(ALL_NAMES)
        assert {"PHASE", "PHASE_opt"} <= set(ALL_NAMES)

    def test_all_list_matches_paper_table_columns(self):
        assert len(ALL) == 12  # the 12 columns of Tables 3/4

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_sampler("nope")

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_factory_name_roundtrip(self, name):
        assert get_sampler(name).name == name


@pytest.mark.parametrize("name", ALL_NAMES)
class TestInvariants:
    """Every sampler: V_S within budget, valid ids, no duplicates."""

    def test_within_budget(self, sampler_runs, name):
        ids = sampler_runs[name]
        if name == "RES":
            # RES budget counts edges; endpoints <= 2B.
            assert 0 < len(ids) <= 2 * SAMPLE_BUDGET
        else:
            assert len(ids) == SAMPLE_BUDGET

    def test_ids_exist_in_graph(self, sampler_runs, ml_edge_ctx, name):
        assert set(sampler_runs[name]) <= set(ml_edge_ctx.csr.ids.tolist())

    def test_no_duplicates(self, sampler_runs, name):
        ids = sampler_runs[name]
        assert len(ids) == len(set(ids))

    def test_deterministic_in_seed(self, sampler_runs, ml_edge_ctx, name):
        again = get_sampler(name).sample(ml_edge_ctx, SAMPLE_BUDGET, seed=SAMPLE_SEED)
        assert sorted(again) == sorted(sampler_runs[name])


# SHA-1 of each sampler's sorted V_S in ``sampler_runs`` (ML-E1, B = 30,
# seed 42). A change that alters some sampler's V_S for a seed updates
# this table and says so.
PINNED_VS = {
    "DBS": "44df40fdfdb8c8312d08d6cda3246b3af252a21b",
    "FFS": "3837857346f06fd9822ceb08f70d854304d2fac2",
    "FrontierS": "968089228d97096990f48b0f52734695fd35b643",
    "MHRW": "cccba02b2bd41c5730d0e15b1ddb86fdd5b4cad0",
    "NBRW": "1fed0bb566a322ec16917fe82ad752097a6b997c",
    "PHASE": "eff5b3878f50722a3a1c2457d43061a0d02ad433",
    "PHASE_opt": "63421180b1471d1fd99442e423ccecca3c59d274",
    "RES": "fc869918e620ef1db18464f23e1706e4f8ec986f",
    "RNS": "755145e4ee6b579ee27e6927481a937a03d163bd",
    "RWR": "7a05d1be223d3abe6e267d4993bd37a9e76893bf",
    "SBS": "c336927da74b2288446d6fe650113b37128ea2d8",
    "SRW": "d03d9bfff537870d03ee342fb7f577d8005f74aa",
    "ShortestPathS": "dcac5273232562ab088b364e54576d2186a22557",
}


def test_vs_pinned_per_seed(sampler_runs):
    got = {
        name: hashlib.sha1(",".join(map(str, sorted(ids))).encode()).hexdigest()
        for name, ids in sampler_runs.items()
    }
    assert got == PINNED_VS


@pytest.fixture(scope="module")
def toy_path_ctx(toy_graph, toy_hyps):
    return WalkContext(toy_graph, toy_hyps["path"])


@pytest.mark.parametrize("name", [n for n in ALL_NAMES if n != "RES"])
def test_budget_above_graph_size_returns_every_node(toy_path_ctx, name):
    # The toy graph has 5 nodes; B = 36 > |V| must yield exactly V.
    ids = get_sampler(name).sample(toy_path_ctx, 36, seed=0)
    assert sorted(ids) == [1, 2, 3, 4, 5]


@pytest.fixture(scope="module")
def isolated_ctx(spark):
    """The path 1-2-3-4-5-6 plus node 7, which has no edge."""
    g = PropertyGraph.from_tables(
        spark,
        {"t": pd.DataFrame({"id": [1, 2, 3, 4, 5, 6, 7]})},
        {"e": pd.DataFrame({"src": [1, 2, 3, 4, 5], "dst": [2, 3, 4, 5, 6]})},
    )
    hyp = path_hypothesis(
        "iso", [Modifier("t")], [], AttrRef("node", 0, None), Agg.COUNT, Op.GT, 0.0
    )
    yield WalkContext(g, hyp)
    g.unpersist()


# Seed 4 starts one of SRW's two walkers on node 7. A uniform walk reaches
# an isolated node only from a start or a teleport there, and it teleports
# only from a dead end, so on other seeds SRW runs to MAX_SUPERSTEPS
# and returns the 6 path nodes.
ISOLATED_SEED = 4


@pytest.mark.parametrize("name", ["SRW", "PHASE_opt", "SBS", "FFS", "ShortestPathS"])
def test_isolated_node_budget_all_nodes(isolated_ctx, name):
    ids = get_sampler(name).sample(isolated_ctx, 7, seed=ISOLATED_SEED)
    assert sorted(ids) == [1, 2, 3, 4, 5, 6, 7]


@pytest.mark.parametrize("cfg", [WalkConfig(), PHASE_OPT], ids=["SRW", "PHASE_opt"])
def test_walker_on_isolated_node_teleports(isolated_ctx, cfg):
    res = run_walk(isolated_ctx, cfg, 7, seed=ISOLATED_SEED)
    assert res.teleports > 0
    assert sorted(res.node_ids) == [1, 2, 3, 4, 5, 6, 7]


class TestSamplerSpecific:
    def test_dbs_prefers_high_degree(self, sampler_runs, ml_edge_ctx):
        def mean_deg(ids):
            return ml_edge_ctx.csr.deg[ml_edge_ctx.csr.index(ids)].mean()

        assert mean_deg(sampler_runs["DBS"]) > mean_deg(sampler_runs["RNS"])

    def test_res_ids_are_edge_endpoints(self, sampler_runs, ml_edge_ctx):
        edges = ml_edge_ctx.graph.edges.select("src", "dst").collect()
        endpoints = {r["src"] for r in edges} | {r["dst"] for r in edges}
        assert set(sampler_runs["RES"]) <= endpoints

    def test_phase_opt_oversamples_relevant(self, sampler_runs, ml, ml_edge_ctx):
        # Hypothesis-awareness (ML-E1: Comedy movies): PHASE_opt's sample
        # holds a larger relevant fraction than the uniform node sample.
        movies = ml.node_tables["movie"]
        comedy = set(movies[movies["genre"] == "Comedy"]["id"])

        def frac(ids):
            return len(set(ids) & comedy) / len(ids)

        assert frac(sampler_runs["PHASE_opt"]) >= frac(sampler_runs["RNS"])

    def test_sbs_sample_is_locally_connected(self, sampler_runs, ml_edge_ctx):
        # Snowball grows by adjacency: most sampled nodes must have a
        # sampled neighbor (allowing for reignition seeds).
        ids = set(sampler_runs["SBS"])
        adj = ml_edge_ctx.graph.adjacency.select("src", "dst").collect()
        nbrs = {}
        for r in adj:
            nbrs.setdefault(r["src"], set()).add(r["dst"])
        connected = sum(1 for v in ids if nbrs.get(v, set()) & ids)
        assert connected >= 0.5 * len(ids)

    def test_walkers_cover_multiple_components_of_interest(self, sampler_runs):
        # Sanity: different samplers produce different samples.
        assert sorted(sampler_runs["SRW"]) != sorted(sampler_runs["RNS"])
