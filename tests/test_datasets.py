"""Dataset generator tests: schema shape (paper Table 1), connectedness,
determinism, and the attribute distributions the hypothesis bank relies
on."""
import numpy as np
import pytest

from repro.datasets import dblp_lite, movielens_lite, yelp_lite

EXPECTED_TYPES = {
    # (node types, edge types) per paper Table 1.
    "ml": (2, 1),
    "dblp": (4, 4),
    "yelp": (2, 1),
}


@pytest.fixture(params=["ml", "dblp", "yelp"])
def any_ds(request, ml, dblp, yelp):
    return request.param, {"ml": ml, "dblp": dblp, "yelp": yelp}[request.param]


class TestShape:
    def test_type_counts_match_table1(self, any_ds):
        key, ds = any_ds
        st = ds.graph.stats()
        assert (st["node_types"], st["edge_types"]) == EXPECTED_TYPES[key]

    def test_nonempty(self, any_ds):
        _, ds = any_ds
        st = ds.graph.stats()
        assert st["nodes"] > 100
        assert st["edges"] > st["nodes"]  # avg degree > 2, connected-ish

    def test_no_isolated_nodes(self, any_ds):
        # Paper Def. 1 assumes every node has at least one edge.
        _, ds = any_ds
        assert (ds.graph.csr.deg > 0).all()

    def test_unique_node_ids(self, any_ds):
        _, ds = any_ds
        n = ds.graph.nodes.count()
        assert ds.graph.nodes.select("id").distinct().count() == n

    def test_edges_reference_existing_nodes(self, any_ds):
        _, ds = any_ds
        ids = ds.graph.nodes.select("id")
        dangling = (
            ds.graph.edges.join(ids.withColumnRenamed("id", "src"), "src", "anti")
        ).count() + (
            ds.graph.edges.join(ids.withColumnRenamed("id", "dst"), "dst", "anti")
        ).count()
        assert dangling == 0


class TestDensityOrdering:
    def test_movielens_densest(self, ml, dblp, yelp):
        # Table 1: MovieLens 1.06e-2 >> DBLP 4.19e-6 > Yelp 1.48e-6.
        d_ml = ml.graph.stats()["density"]
        d_db = dblp.graph.stats()["density"]
        d_yp = yelp.graph.stats()["density"]
        assert d_ml > d_db and d_ml > d_yp


class TestDeterminism:
    def test_same_seed_same_graph(self, spark):
        a = movielens_lite(spark, sf=0.1, seed=1)
        b = movielens_lite(spark, sf=0.1, seed=1)
        assert a.node_tables["movie"].equals(b.node_tables["movie"])
        assert a.edge_tables["Rates"].equals(b.edge_tables["Rates"])
        a.graph.unpersist(), b.graph.unpersist()

    def test_different_seed_differs(self, spark):
        a = yelp_lite(spark, sf=0.1, seed=1)
        b = yelp_lite(spark, sf=0.1, seed=2)
        assert not a.edge_tables["Review"].equals(b.edge_tables["Review"])
        a.graph.unpersist(), b.graph.unpersist()

    def test_sf_scales_size(self, spark):
        small = dblp_lite(spark, sf=0.05, seed=3)
        big = dblp_lite(spark, sf=0.2, seed=3)
        assert big.graph.num_nodes() > small.graph.num_nodes()
        small.graph.unpersist(), big.graph.unpersist()


class TestAttributeDistributions:
    """The distributions the bank's ground truths are anchored on."""

    def test_dblp_conference_citation_premium(self, dblp):
        papers = dblp.node_tables["paper"]
        conf = papers[papers["ctype"] == "conference"]["citation"].mean()
        jour = papers[papers["ctype"] == "journal"]["citation"].mean()
        assert conf > 45 > jour  # DB-N1 margin on both sides

    def test_dblp_org_populations(self, dblp):
        authors = dblp.node_tables["author"]
        frac_msr = (authors["org"] == "MSR").mean()
        frac_cn = (authors["org"] == "CN_INST").mean()
        assert frac_msr < frac_cn < 0.2  # MSR rarest, CN rare-ish

    def test_yelp_fast_food_rating_premium(self, yelp):
        # YP-E1 ("fast food average ratings exceed 4") must be true.
        reviews = yelp.edge_tables["Review"]
        biz = yelp.node_tables["business"]
        ff = set(biz[biz["category"] == "fast_food"]["id"])
        stars = reviews[reviews["dst"].isin(ff)]["stars"]
        assert stars.mean() > 4.0

    def test_movielens_genre_rating_spread(self, ml):
        reviews = ml.edge_tables["Rates"]
        movies = ml.node_tables["movie"]
        by_genre = {}
        for g in ("Comedy", "Horror"):
            ids = set(movies[movies["genre"] == g]["id"])
            by_genre[g] = reviews[reviews["dst"].isin(ids)]["rating"].mean()
        assert by_genre["Comedy"] > by_genre["Horror"]

    def test_movielens_rating_range(self, ml):
        r = ml.edge_tables["Rates"]["rating"]
        assert r.min() >= 0.5 and r.max() <= 5.0

    def test_yelp_stars_integral(self, yelp):
        s = yelp.edge_tables["Review"]["stars"]
        assert s.min() >= 1 and s.max() <= 5
        assert np.allclose(s, np.round(s))

    def test_dblp_fos_weight_in_unit_interval(self, dblp):
        w = dblp.edge_tables["WithDomain"]["FOS_weight"]
        assert (w >= 0).all() and (w <= 1).all()


class TestBankGroundTruths:
    """Exact H(G) decisions on the tiny graphs: the bank's intended
    truth values hold (margins survive even at reduced scale)."""

    @pytest.mark.parametrize(
        "dsname,htype,idx,expected",
        [
            ("MovieLens", "node", 0, True),   # ML-N1 Action year > 1975
            ("MovieLens", "edge", 0, True),   # ML-E1 Comedy rating > 3.4
            ("DBLP", "node", 0, True),        # DB-N1 conf citation > 45
            ("DBLP", "edge", 0, True),        # DB-E1 FOS weight > 0.55
            ("DBLP", "path", 0, True),        # DB-P1 CN/DM citation > 38
            ("Yelp", "edge", 0, True),        # YP-E1 fast food > 4
            ("Yelp", "node", 0, True),        # YP-N1 review_count > 120
        ],
    )
    def test_expected_truth(self, request, context, dsname, htype, idx, expected):
        from repro.core.testing import run_test
        from repro.datasets.bank import bank

        ds = request.getfixturevalue(
            {"MovieLens": "ml", "DBLP": "dblp", "Yelp": "yelp"}[dsname]
        )
        hyp = bank(dsname)[htype][idx]
        assert run_test(context(ds.graph, hyp)).decision is expected
