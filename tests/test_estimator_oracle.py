"""Estimator correctness: hand-checked values on the toy graph, and
DuckDB-oracle equivalence (``assert_equivalent``) for relevant-instance
extraction on the toy graph and on the synthetic datasets, on G and on
sampled subgraphs S."""
import duckdb
import pytest

from repro.core.estimator import estimate, relevant_instances
from repro.core.hypothesis import Agg, AttrRef, Modifier, Op, Predicate, path_hypothesis
from repro.datasets.bank import bank, dblp_long_paths
from repro.oracle import assert_equivalent
from repro.samplers import get_sampler
from tests.conftest import TOY_A, TOY_B, TOY_R


# b -r_inv-> a over a-nodes with x > 15 (node 2), f_P the step's edge
# attribute w: the inverse rows (4,2) and (5,2) keep their edges' w.
TOY_EDGE_INV = path_hypothesis(
    "toy-edge-inv",
    [Modifier("b"), Modifier("a", (Predicate("x", ">", 15, numeric=True),))],
    ["r_inv"], AttrRef("edge", 0, "w"), Agg.AVG, Op.GT, 1.0,
)


class TestToyHandChecked:
    """Toy graph arithmetic (see tests/conftest.py for the data):
    a-nodes x = {10, 20}; 'on' b-nodes are 3 and 5; r-edge weights
    (1,3)=0.5 (1,4)=1.5 (2,4)=2.5 (2,5)=3.5; b.y = {3:1, 4:2, 5:3}."""

    def test_node_avg(self, context, toy_graph, toy_hyps):
        est = estimate(context(toy_graph, toy_hyps["node"]))
        assert est.n_instances == 2
        assert est.value == pytest.approx(15.0)

    def test_edge_avg_with_modifier(self, context, toy_graph, toy_hyps):
        # Edges into 'on' b-nodes: (1,3) w=0.5 and (2,5) w=3.5.
        est = estimate(context(toy_graph, toy_hyps["edge"]))
        assert est.n_instances == 2
        assert est.value == pytest.approx(2.0)

    def test_inverse_edge_keeps_the_edge_attribute(self, context, toy_graph):
        # (4,2) w=2.5 and (5,2) w=3.5 -> avg 3.0.
        est = estimate(context(toy_graph, TOY_EDGE_INV))
        assert est.n_instances == 2
        assert est.value == pytest.approx(3.0)

    def test_path_avg_simple_paths_only(self, context, toy_graph, toy_hyps):
        # b -r_inv-> a -r-> b with distinct endpoints:
        # (3,1,4) f=2, (4,1,3) f=1, (4,2,5) f=3, (5,2,4) f=2 -> avg 2.0.
        est = estimate(context(toy_graph, toy_hyps["path"]))
        assert est.n_instances == 4
        assert est.value == pytest.approx(2.0)

    def test_no_backtracking_instance(self, context, toy_graph, toy_hyps):
        # (3,1,3) must be excluded by the simple-path rule.
        inst = relevant_instances(context(toy_graph, toy_hyps["path"]))
        assert (inst["n0"] == inst["n2"]).sum() == 0

    def test_path_on_sample_without_node_1(self, context, toy_graph, toy_hyps):
        # S induced on {2, 3, 4, 5} loses a-node 1 and its edges: only
        # (4,2,5) f=3 and (5,2,4) f=2 remain.
        ctx = context(toy_graph, toy_hyps["path"])
        inst = relevant_instances(ctx, [2, 3, 4, 5])
        assert sorted(map(tuple, inst[["n0", "n1", "n2"]].to_numpy())) == [
            (4, 2, 5), (5, 2, 4)
        ]
        est = estimate(ctx, [2, 3, 4, 5])
        assert est.n_instances == 2
        assert est.value == pytest.approx(2.5)

    @pytest.mark.parametrize(
        "agg,expected",
        [(Agg.MIN, 10.0), (Agg.MAX, 20.0), (Agg.SUM, 30.0), (Agg.COUNT, 2.0)],
    )
    def test_other_aggregates(self, context, toy_graph, agg, expected):
        h = path_hypothesis(
            "t", [Modifier("a")], [], AttrRef("node", 0, "x"), agg, Op.GT, 0
        )
        assert estimate(context(toy_graph, h)).value == pytest.approx(expected)

    def test_count_with_no_attr(self, context, toy_graph):
        h = path_hypothesis(
            "t", [Modifier("b")], [], AttrRef("node", 0, None), Agg.COUNT, Op.GT, 0
        )
        assert estimate(context(toy_graph, h)).value == pytest.approx(3.0)

    def test_empty_selection_is_undecided(self, context, toy_graph):
        h = path_hypothesis(
            "t", [Modifier("zzz")], [], AttrRef("node", 0, "x"), Agg.AVG, Op.GT, 0
        )
        est = estimate(context(toy_graph, h))
        assert est.n_instances == 0
        assert est.value is None
        assert h.decide(est.value) is None

    def test_modifier_with_numeric_predicate(self, context, toy_graph):
        h = path_hypothesis(
            "t", [Modifier("b", (Predicate("y", ">=", 2, numeric=True),))], [],
            AttrRef("node", 0, "y"), Agg.AVG, Op.GT, 0,
        )
        est = estimate(context(toy_graph, h))
        assert est.n_instances == 2
        assert est.value == pytest.approx(2.5)


class TestToyOracle:
    """Cross-check relevant-instance extraction against DuckDB SQL over
    the flat source tables."""

    def test_node_instances(self, context, toy_graph, toy_hyps):
        inst = relevant_instances(context(toy_graph, toy_hyps["node"]))
        assert_equivalent(
            inst, "SELECT id AS n0, x AS f FROM a", a=TOY_A
        )

    def test_edge_instances(self, context, toy_graph, toy_hyps):
        inst = relevant_instances(context(toy_graph, toy_hyps["edge"]))
        sql = """
            SELECT e.src AS n0, e.dst AS n1, e.w AS f
            FROM r e JOIN b ON b.id = e.dst
            WHERE b.flag = 'on'
        """
        assert_equivalent(inst, sql, r=TOY_R, b=TOY_B)

    def test_inverse_edge_instances(self, context, toy_graph):
        inst = relevant_instances(context(toy_graph, TOY_EDGE_INV))
        sql = """
            SELECT e.dst AS n0, e.src AS n1, e.w AS f
            FROM r e JOIN a ON a.id = e.src
            WHERE a.x > 15
        """
        assert_equivalent(inst, sql, r=TOY_R, a=TOY_A)

    def test_path_instances(self, context, toy_graph, toy_hyps):
        inst = relevant_instances(context(toy_graph, toy_hyps["path"]))
        sql = """
            SELECT e1.dst AS n0, e1.src AS n1, e2.dst AS n2, b2.y AS f
            FROM r e1
            JOIN r e2 ON e2.src = e1.src AND e2.dst <> e1.dst
            JOIN b b2 ON b2.id = e2.dst
        """
        assert_equivalent(inst, sql, r=TOY_R, b=TOY_B)


# Relevant instances of dataset hypotheses in DuckDB over the flat tables:
# {name: (SQL, node tables, edge tables)}.
INSTANCE_SQL = {
    "ML-N1": (  # Action movies' year
        """
        SELECT id AS n0, CAST(myear AS DOUBLE) AS f
        FROM movie WHERE genre = 'Action'
        """,
        ["movie"], [],
    ),
    "ML-E1": (  # rating of Comedy
        """
        SELECT e.src AS n0, e.dst AS n1, e.rating AS f
        FROM Rates e JOIN movie m ON m.id = e.dst
        WHERE m.genre = 'Comedy'
        """,
        ["movie"], ["Rates"],
    ),
    "ML-P1": (  # Action <- user -> Comedy
        """
        SELECT e1.dst AS n0, e1.src AS n1, e2.dst AS n2, e2.rating AS f
        FROM Rates e1
        JOIN movie m1 ON m1.id = e1.dst AND m1.genre = 'Action'
        JOIN Rates e2 ON e2.src = e1.src AND e2.dst <> e1.dst
        JOIN movie m2 ON m2.id = e2.dst AND m2.genre = 'Comedy'
        """,
        ["movie"], ["Rates"],
    ),
    "DB-N1": (  # conference papers' citation
        """
        SELECT id AS n0, CAST(citation AS DOUBLE) AS f
        FROM paper WHERE ctype = 'conference'
        """,
        ["paper"], [],
    ),
    "DB-E1": (  # FOS_weight conf->DM
        """
        SELECT e.src AS n0, e.dst AS n1, e.FOS_weight AS f
        FROM WithDomain e
        JOIN paper p ON p.id = e.src
        JOIN fos f ON f.id = e.dst
        WHERE p.ctype = 'conference' AND f.fname = 'DM'
        """,
        ["paper", "fos"], ["WithDomain"],
    ),
    "DB-P1": (  # author[CN] - paper - fos[DM]
        """
        SELECT a.id AS n0, p.id AS n1, wd.dst AS n2,
               CAST(p.citation AS DOUBLE) AS f
        FROM Authorship au
        JOIN author a ON a.id = au.dst AND a.org = 'CN_INST'
        JOIN paper p ON p.id = au.src
        JOIN WithDomain wd ON wd.src = p.id
        JOIN fos f ON f.id = wd.dst AND f.fname = 'DM'
        """,
        ["author", "paper", "fos"], ["Authorship", "WithDomain"],
    ),
    "DB-P-L3": (
        """
        SELECT a1.id AS n0, au1.src AS n1, a2.id AS n2, au3.src AS n3,
               CAST(p2.citation AS DOUBLE) AS f
        FROM Authorship au1
        JOIN author a1 ON a1.id = au1.dst AND a1.org = 'CN_INST'
        JOIN Authorship au2 ON au2.src = au1.src AND au2.dst <> au1.dst
        JOIN author a2 ON a2.id = au2.dst
        JOIN Authorship au3 ON au3.dst = a2.id AND au3.src <> au1.src
        JOIN paper p2 ON p2.id = au3.src AND p2.ctype = 'conference'
        WHERE a2.id <> a1.id
        """,
        ["author", "paper"], ["Authorship"],
    ),
    "YP-N1": (  # users' review count
        """
        SELECT id AS n0, CAST(review_count AS DOUBLE) AS f FROM "user"
        """,
        ["user"], [],
    ),
    "YP-E1": (  # fast-food stars
        """
        SELECT e.src AS n0, e.dst AS n1, e.stars AS f
        FROM Review e JOIN business b ON b.id = e.dst
        WHERE b.category = 'fast_food'
        """,
        ["business"], ["Review"],
    ),
    "YP-P1": (  # coffee <- user -> fast food
        """
        SELECT e1.dst AS n0, e1.src AS n1, e2.dst AS n2, e2.stars AS f
        FROM Review e1
        JOIN business b1 ON b1.id = e1.dst AND b1.category = 'coffee'
        JOIN Review e2 ON e2.src = e1.src AND e2.dst <> e1.dst
        JOIN business b2 ON b2.id = e2.dst AND b2.category = 'fast_food'
        """,
        ["business"], ["Review"],
    ),
    "YP-P3": (  # vegan <- user -> vegan
        """
        SELECT e1.dst AS n0, e1.src AS n1, e2.dst AS n2, e2.stars AS f
        FROM Review e1
        JOIN business b1 ON b1.id = e1.dst AND b1.category = 'vegan'
        JOIN Review e2 ON e2.src = e1.src AND e2.dst <> e1.dst
        JOIN business b2 ON b2.id = e2.dst AND b2.category = 'vegan'
        """,
        ["business"], ["Review"],
    ),
}


def _oracle_tables(ds, name: str, members=None) -> dict:
    """The flat tables ``INSTANCE_SQL[name]`` reads; with ``members``,
    restricted to those nodes and the edges between them (S)."""
    _, node_tables, edge_tables = INSTANCE_SQL[name]
    out = {}
    for t in node_tables:
        df = ds.node_tables[t]
        out[t] = df if members is None else df[df["id"].isin(members)]
    for t in edge_tables:
        df = ds.edge_tables[t]
        out[t] = df if members is None else df[
            df["src"].isin(members) & df["dst"].isin(members)
        ]
    return out


def _assert_oracle(ctx, ds, name: str, members=None) -> None:
    sql = INSTANCE_SQL[name][0]
    assert_equivalent(
        relevant_instances(ctx, members), sql, **_oracle_tables(ds, name, members)
    )


class TestDatasetOracle:
    """Oracle equivalence on the real synthetic datasets (tiny sf)."""

    def test_dblp_node_hypothesis(self, context, dblp):
        h = bank("DBLP")["node"][0]  # DB-N1
        _assert_oracle(context(dblp.graph, h), dblp, h.name)

    def test_dblp_edge_hypothesis(self, context, dblp):
        h = bank("DBLP")["edge"][0]  # DB-E1
        _assert_oracle(context(dblp.graph, h), dblp, h.name)

    def test_dblp_path_hypothesis(self, context, dblp):
        h = bank("DBLP")["path"][0]  # DB-P1
        _assert_oracle(context(dblp.graph, h), dblp, h.name)

    def test_movielens_edge_hypothesis(self, context, ml):
        h = bank("MovieLens")["edge"][0]  # ML-E1
        _assert_oracle(context(ml.graph, h), ml, h.name)

    def test_movielens_path_hypothesis(self, context, ml):
        h = bank("MovieLens")["path"][0]  # ML-P1
        _assert_oracle(context(ml.graph, h), ml, h.name)

    def test_yelp_edge_hypothesis(self, context, yelp):
        h = bank("Yelp")["edge"][0]  # YP-E1
        _assert_oracle(context(yelp.graph, h), yelp, h.name)

    def test_yelp_path_hypothesis(self, context, yelp):
        h = bank("Yelp")["path"][2]  # YP-P3
        _assert_oracle(context(yelp.graph, h), yelp, h.name)

    def test_dblp_length3_path(self, context, dblp):
        h = dblp_long_paths()[3]
        _assert_oracle(context(dblp.graph, h), dblp, h.name)


class TestSampleOracle:
    """On S, the subgraph induced on an RNS V_S of 25% of the nodes, the
    instances and the estimate equal DuckDB over the flat tables
    restricted to V_S and the edges inside it. V_S also gets the nodes of
    one instance of G, so that S is never empty of instances."""

    @pytest.mark.parametrize("htype", ["node", "edge", "path"])
    @pytest.mark.parametrize(
        "dsname,fixture", [("MovieLens", "ml"), ("DBLP", "dblp"), ("Yelp", "yelp")]
    )
    def test_first_bank_hypothesis(self, request, context, dsname, fixture, htype):
        ds = request.getfixturevalue(fixture)
        h = bank(dsname)[htype][0]
        ctx = context(ds.graph, h)
        vs = get_sampler("RNS").sample(ctx, ctx.csr.n // 4, seed=3)
        one = relevant_instances(ctx).drop(columns="f").iloc[0]
        vs = sorted(set(vs) | {int(v) for v in one})
        _assert_oracle(ctx, ds, h.name, vs)

        sql = INSTANCE_SQL[h.name][0]
        con = duckdb.connect()
        try:
            for t, df in _oracle_tables(ds, h.name, vs).items():
                con.register(t, df)
            n, mean = con.execute(
                f"SELECT COUNT(*), AVG(f) FROM ({sql}) WHERE f IS NOT NULL"
            ).fetchone()
        finally:
            con.close()
        est = estimate(ctx, vs)
        assert n > 0
        assert est.n_instances == n
        assert est.value == pytest.approx(mean, rel=1e-9)  # every bank agg is AVG
