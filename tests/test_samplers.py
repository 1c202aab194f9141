"""Cross-sampler invariants (parametrized over every registered sampler,
reusing one session-scoped run each) plus sampler-specific behavior."""
import numpy as np
import pytest

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
        assert set(sampler_runs[name]) <= set(int(i) for i in ml_edge_ctx.node_ids)

    def test_no_duplicates(self, sampler_runs, name):
        ids = sampler_runs[name]
        assert len(ids) == len(set(ids))

    def test_deterministic_in_seed(self, sampler_runs, ml_edge_ctx, name):
        again = get_sampler(name).sample(ml_edge_ctx, SAMPLE_BUDGET, seed=SAMPLE_SEED)
        assert sorted(again) == sorted(sampler_runs[name])


@pytest.fixture(scope="module")
def toy_path_ctx(spark, toy_graph, toy_hyps):
    from repro.graph.walk_engine import WalkContext

    return WalkContext(spark, toy_graph, toy_hyps["path"])


@pytest.mark.parametrize("name", [n for n in ALL_NAMES if n != "RES"])
def test_budget_above_graph_size_returns_every_node(toy_path_ctx, name):
    # The toy graph has 5 nodes; B = 36 > |V| must yield exactly V.
    ids = get_sampler(name).sample(toy_path_ctx, 36, seed=0)
    assert sorted(ids) == [1, 2, 3, 4, 5]


class TestSamplerSpecific:
    def test_dbs_prefers_high_degree(self, sampler_runs, ml_edge_ctx):
        def mean_deg(ids):
            return np.mean([ml_edge_ctx.degree(i) for i in ids])

        assert mean_deg(sampler_runs["DBS"]) > mean_deg(sampler_runs["RNS"])

    def test_res_ids_are_edge_endpoints(self, sampler_runs, ml_edge_ctx):
        edges = ml_edge_ctx.graph.edges.select("src", "dst").collect()
        endpoints = {r["src"] for r in edges} | {r["dst"] for r in edges}
        assert set(sampler_runs["RES"]) <= endpoints

    def test_phase_requires_hypothesis(self, spark, toy_graph):
        from repro.graph.walk_engine import WalkContext

        ctx = WalkContext(spark, toy_graph, None)
        with pytest.raises(ValueError):
            get_sampler("PHASE_opt").sample(ctx, 3, seed=0)
        ctx.unpersist()

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
