"""Cross-sampler invariants (parametrized over every registered sampler,
reusing one session-scoped run each) plus sampler-specific behavior."""
import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.core.estimator import estimate
from repro.core.hypothesis import Agg, AttrRef, Modifier, Op, path_hypothesis
from repro.core.phase import PHASE_OPT
from repro.datasets.bank import bank
from repro.graph.csr import CSR
from repro.graph.property_graph import PropertyGraph
from repro.graph.walk_engine import WalkConfig, WalkContext, run_walk
from repro.samplers import AGNOSTIC, ALL, SAMPLERS, get_sampler
from tests.conftest import SAMPLE_BUDGET, SAMPLE_SEED
from tests.reference_draw import gather_rank_keep

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
# this table and says so. RNS and DBS were re-pinned when they became
# numpy draws over the CSR, once their exact-law tests below passed.
PINNED_VS = {
    "DBS": "510c2a5e0be761a3c4144341af9e3a61a6130569",
    "FFS": "470d4dbfa6259bebce285d094c18753fd67e74a4",
    "FrontierS": "968089228d97096990f48b0f52734695fd35b643",
    "MHRW": "cccba02b2bd41c5730d0e15b1ddb86fdd5b4cad0",
    "NBRW": "1fed0bb566a322ec16917fe82ad752097a6b997c",
    "PHASE": "eff5b3878f50722a3a1c2457d43061a0d02ad433",
    "PHASE_opt": "2691fb1675f6bba7b19423758f8a4f788f0aacfd",
    "RES": "fc869918e620ef1db18464f23e1706e4f8ec986f",
    "RNS": "221fe1f3727fe8e46a5d56dcaa93c417c88e15e5",
    "RWR": "7a05d1be223d3abe6e267d4993bd37a9e76893bf",
    "SBS": "b2be0c954b269dd7b1f289b98e5a30bef9833c3c",
    "SRW": "d03d9bfff537870d03ee342fb7f577d8005f74aa",
    "ShortestPathS": "dcac5273232562ab088b364e54576d2186a22557",
}


def _digest(ids) -> str:
    return hashlib.sha1(",".join(map(str, sorted(ids))).encode()).hexdigest()


def test_vs_pinned_per_seed(sampler_runs):
    got = {name: _digest(ids) for name, ids in sampler_runs.items()}
    assert got == PINNED_VS


# SHA-1 of sorted V_S on DB-P1 over the session ``dblp`` graph (DBLP-lite,
# sf = 0.2), keyed by (sampler, budget, seed); B = 28 and 142 are 2% and
# 10% of |V|. Unlike ML-E1 at B = 30, these walks reach the field-of-study
# hubs, so PHASE_opt's and SBS's caps cut rows short and RWR restarts.
# The digests were computed with the lexsort-based race, n-cap and
# dead-walker set difference, before those became sort-free, and
# ShortestPathS's with one depth-4 bfs_parents per source. Those of
# PHASE_opt, SBS and FFS, the samplers that cap their neighbor draw, were
# recomputed when hub rows began to draw slots, once
# ``test_slot_draw_keeps_the_sample_distribution`` passed.
DBLP_PINNED_VS = {
    ("FFS", 28, 0): "f0363c93aaaf48328672c95bc68e41d804ee91c8",
    ("FFS", 28, 1): "0f7767260865e853f721c1a8e2fd866f8e07a398",
    ("FFS", 142, 0): "1151b6c18834085604f44bd3db7f659c226a1324",
    ("FFS", 142, 1): "1fc22723912be6cccf45050968eb165328b65b5a",
    ("MHRW", 28, 0): "96cc250ff8680c2dc5b80bb1809b07ff8d297e3d",
    ("MHRW", 28, 1): "63ee70aea8566df79ba5aa2557e3e1487633967d",
    ("MHRW", 142, 0): "b7fee1a728908f66563fd60d0227a079e0130037",
    ("MHRW", 142, 1): "f64d0527b27a7a93b05c0d2397f1c0db61adb522",
    ("PHASE", 28, 0): "4da60ecc433fd05f10de3c9f5a765ce90aa47822",
    ("PHASE", 28, 1): "341a7c0668e0f5f0213b4ea886c6eea939aaa02e",
    ("PHASE", 142, 0): "70f281a8e6dba9ac122b6ea709660167cb51ccdc",
    ("PHASE", 142, 1): "b648d8fdda27330fdc135a1363d59e66d8747abb",
    ("PHASE_opt", 28, 0): "3e8a96182fff749750dcd28e755f624eab61dc45",
    ("PHASE_opt", 28, 1): "b23f4522618dd4efd979e579674a588a25bc2ad6",
    ("PHASE_opt", 142, 0): "042589547d8e1910283647f0f1bb98695b5a6439",
    ("PHASE_opt", 142, 1): "673930cd4d0f14bccb3f99a0a9a7676798f32f2c",
    ("RWR", 28, 0): "e215713d524842f788c286a65d2ef619cccf7240",
    ("RWR", 28, 1): "edfe66b39b8bbb1d0520d8ac2fa11dfc86bc479f",
    ("RWR", 142, 0): "0787b9b1d578efa6de99846d889687951382fe43",
    ("RWR", 142, 1): "23e81d2be84b148a5a4308b31799f30b9f0cf31f",
    ("SBS", 28, 0): "1feb9fe3c44b9ea56eeeaccfa9a11c59796bc03b",
    ("SBS", 28, 1): "fbe72b4c5ef534aea6b153a76c998db5966068db",
    ("SBS", 142, 0): "4fb0456eedf33517581db2c0777133599cde67f5",
    ("SBS", 142, 1): "10a7f4597faf2438828a91ae7a41bd4253aaca94",
    ("ShortestPathS", 28, 0): "8711bbd57623d18f30479f328d9a40f7e6695179",
    ("ShortestPathS", 28, 1): "ccac25a3731bd2b0cbfdacead149b67b38c89c75",
    ("ShortestPathS", 142, 0): "cfaf3d4a88f3e483462b858d4a2fcc329c7502ce",
    ("ShortestPathS", 142, 1): "96579e4a535404c38b1994e57df894540a6b06fe",
}


def test_vs_pinned_per_seed_dblp(dblp):
    hyp = next(h for h in bank("DBLP")["path"] if h.name == "DB-P1")
    ctx = WalkContext(dblp.graph, hyp)
    n = ctx.csr.n
    got = {}
    for name, budget, seed in DBLP_PINNED_VS:
        assert budget in (int(0.02 * n), int(0.10 * n))
        got[name, budget, seed] = _digest(
            get_sampler(name).sample(ctx, budget, seed=seed)
        )
    assert got == DBLP_PINNED_VS


@pytest.mark.parametrize("name", ["PHASE_opt", "SBS", "FFS"])
def test_slot_draw_keeps_the_sample_distribution(dblp, ml_edge_ctx, monkeypatch, name):
    # The samplers that cap their neighbor draw, run on seeds 0-299 with
    # CSR.unvisited and again with the full-slice reference it replaced,
    # at B = 10% of |V| on DB-P1, where hubs exceed DRAW * cap, and on
    # ML-E1, where 22 of 300 nodes do. Their V_S must agree in
    # distribution on four statistics per graph: the M_1 share of V_S,
    # the relevant instances in S, the mean degree and the mean dense
    # index. Slices run in ascending index, so a draw that favours some
    # slot positions shifts the last one; PHASE_opt takes few drawn steps
    # on DB-P1 (about 9 per sample), so its shift shows on ML-E1. Welch's
    # t per statistic; over five blocks of 200 seeds the largest |t| seen
    # was 2.02, and the bound here is 4.
    hyp = next(h for h in bank("DBLP")["path"] if h.name == "DB-P1")
    ctxs = (WalkContext(dblp.graph, hyp), ml_edge_ctx)

    def statistics():
        rows = []
        for seed in range(300):
            row = []
            for ctx in ctxs:
                ids = get_sampler(name).sample(ctx, int(0.10 * ctx.csr.n), seed=seed)
                i = ctx.csr.index(ids)
                row += [
                    np.mean(ctx.bits[i] & 1),
                    estimate(ctx, ids).n_instances,
                    ctx.csr.deg[i].mean(),
                    i.mean(),
                ]
            rows.append(row)
        return np.array(rows)

    new = statistics()
    monkeypatch.setattr(CSR, "unvisited", gather_rank_keep)
    ref = statistics()
    se = np.sqrt(new.var(0, ddof=1) / len(new) + ref.var(0, ddof=1) / len(ref))
    t = (new.mean(0) - ref.mean(0)) / se
    assert (np.abs(t) <= 4).all(), t


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
# only from a dead end, so on other seeds SRW runs to the superstep cap
# and returns the 6 path nodes.
ISOLATED_SEED = 4


# Over five blocks of 4,000 seeds (0-19,999) the largest |z| on any node
# was 1.86 for RNS and 2.82 for DBS; the bound is 4. Dropping DBS's
# max(deg, 1) puts node 7's z near -20.
LAW_SEEDS = 4_000


def _inclusion_z(ctx, name, budget, p):
    """Binomial z of each node's inclusion count in V_S over
    ``LAW_SEEDS`` seeds against its rate ``p`` (one per dense index)."""
    sample = get_sampler(name).sample
    counts = np.zeros(ctx.csr.n)
    for seed in range(LAW_SEEDS):
        ids = sample(ctx, budget, seed=seed)
        assert len(ids) == len(set(ids)) == budget
        counts[ctx.csr.index(ids)] += 1
    return (counts - LAW_SEEDS * p) / np.sqrt(LAW_SEEDS * p * (1 - p))


def test_rns_includes_every_node_at_rate_b_over_n(isolated_ctx):
    # A uniform 3-subset of 7 nodes holds each node with probability 3/7,
    # the isolated node 7 too.
    z = _inclusion_z(isolated_ctx, "RNS", 3, np.full(7, 3 / 7))
    assert (np.abs(z) <= 4).all(), z


def test_dbs_draws_one_node_in_proportion_to_its_degree(isolated_ctx):
    # At B = 1 the race's winner is node i with probability
    # max(deg_i, 1) / sum(max(deg, 1)): degrees 1, 2, 2, 2, 2, 1 on the
    # path and 0 on node 7, which weighs 1, so the weights sum to 11.
    w = np.maximum(isolated_ctx.csr.deg, 1)
    assert w.tolist() == [1, 2, 2, 2, 2, 1, 1]
    z = _inclusion_z(isolated_ctx, "DBS", 1, w / w.sum())
    assert (np.abs(z) <= 4).all(), z


@pytest.mark.parametrize(
    "name", ["RNS", "DBS", "SRW", "PHASE_opt", "SBS", "FFS", "ShortestPathS"]
)
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
        edges = ml_edge_ctx.graph.edges.select("src", "dst").collect()
        nbrs = {}
        for s, d in edges:
            nbrs.setdefault(s, set()).add(d)
            nbrs.setdefault(d, set()).add(s)
        connected = sum(1 for v in ids if nbrs.get(v, set()) & ids)
        assert connected >= 0.5 * len(ids)

    def test_walkers_cover_multiple_components_of_interest(self, sampler_runs):
        # Sanity: different samplers produce different samples.
        assert sorted(sampler_runs["SRW"]) != sorted(sampler_runs["RNS"])
