"""Unit tests for the hypothesis data model (paper §2.2 formalism)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.hypothesis import (
    Agg,
    AttrRef,
    Hypothesis,
    Modifier,
    Op,
    PathStep,
    Predicate,
    path_hypothesis,
)
from repro.graph.property_graph import PropertyGraph
from repro.graph.walk_engine import WalkContext


def _holds(spark, pred: Predicate, attrs: dict):
    """``pred`` evaluated as the program evaluates it: ``to_column`` over
    a one-row ``map<string,string>`` attrs column."""
    df = spark.createDataFrame([(attrs,)], "attrs map<string,string>")
    return df.select(pred.to_column(F.col("attrs")).alias("v")).first()["v"]


class TestPredicate:
    def test_categorical_eval(self, spark):
        p = Predicate("genre", "==", "Comedy")
        assert _holds(spark, p, {"genre": "Comedy"}) is True
        assert _holds(spark, p, {"genre": "Action"}) is False

    def test_missing_attr_is_false(self, spark):
        # Node 2's flag is None. ``flag != on`` reads a null there, and
        # the context's M_1 bit must be clear for it.
        g = PropertyGraph.from_tables(
            spark,
            {"t": pd.DataFrame({"id": [1, 2, 3], "flag": ["on", None, "off"]})},
            {"e": pd.DataFrame({"src": [1, 2], "dst": [2, 3]})},
        )
        hyp = path_hypothesis(
            "null-flag", [Modifier("t", (Predicate("flag", "!=", "on"),))], [],
            AttrRef("node", 0, None), Agg.COUNT, Op.GT, 0.0,
        )
        ctx = WalkContext(g, hyp)
        assert (ctx.bits[ctx.csr.index([1, 2, 3])] & 1 == 1).tolist() == [False, False, True]
        g.unpersist()

    @pytest.mark.parametrize(
        "op,val,attrs,expected",
        [
            (">", 10, {"age": "20"}, True),
            (">", 10, {"age": "5"}, False),
            (">=", 10, {"age": "10"}, True),
            ("<", 10, {"age": "5"}, True),
            ("<=", 10, {"age": "10"}, True),
            ("!=", 10, {"age": "11"}, True),
            ("==", 10, {"age": "10"}, True),
        ],
    )
    def test_numeric_ops(self, spark, op, val, attrs, expected):
        assert _holds(spark, Predicate("age", op, val, numeric=True), attrs) is expected

    def test_numeric_string_coercion(self, spark):
        # Attribute values are stored as strings in the map; numeric
        # predicates must cast ("2005.0" is not the string "2005").
        p = Predicate("year", "==", 2005, numeric=True)
        assert _holds(spark, p, {"year": "2005"}) is True
        assert _holds(spark, p, {"year": "2005.0"}) is True

    def test_bad_op_raises_in_column(self):
        with pytest.raises(ValueError):
            Predicate("x", "~", 1).to_column(F.col("attrs"))


class TestOp:
    @pytest.mark.parametrize(
        "op,v,c,expected",
        [
            (Op.GT, 2.0, 1.0, True),
            (Op.GT, 1.0, 1.0, False),
            (Op.LT, 0.5, 1.0, True),
            (Op.EQ, 1.0, 1.0, True),
            (Op.NE, 2.0, 1.0, True),
            (Op.NE, 1.0, 1.0, False),
        ],
    )
    def test_apply(self, op, v, c, expected):
        assert op.apply(v, c) is expected

    def test_alternatives(self):
        assert Op.GT.alternative == "greater"
        assert Op.LT.alternative == "less"
        assert Op.EQ.alternative == "two-sided"
        assert Op.NE.alternative == "two-sided"


def _mk(l: int) -> Hypothesis:
    mods = [Modifier("t")] * (l + 1)
    return path_hypothesis(
        f"h{l}", mods, ["r"] * l, AttrRef("node", 0, "a"), Agg.AVG, Op.GT, 0.0
    )


class TestHypothesis:
    def test_kind_by_length(self):
        # l=0 -> node, l=1 -> edge, l>=2 -> path (paper §2.2).
        assert _mk(0).kind == "node"
        assert _mk(1).kind == "edge"
        assert _mk(2).kind == "path"
        assert _mk(4).kind == "path"

    def test_length(self):
        assert _mk(3).length == 3

    def test_modifiers_in_path_order(self):
        m0, m1 = Modifier("a"), Modifier("b", (Predicate("k", "==", "v"),))
        h = path_hypothesis(
            "h", [m0, m1], ["r"], AttrRef("edge", 0, "w"), Agg.AVG, Op.GT, 0
        )
        assert h.modifiers == (m0, m1)

    def test_constructor_arity_check(self):
        with pytest.raises(ValueError):
            path_hypothesis(
                "bad", [Modifier("a")], ["r"], AttrRef("node", 0, "x"),
                Agg.AVG, Op.GT, 0,
            )

    def test_decide(self):
        h = _mk(0)
        assert h.decide(1.0) is True
        assert h.decide(-1.0) is False
        assert h.decide(None) is None  # undecided: no relevant instances

    def test_steps_are_pathsteps(self):
        h = _mk(2)
        assert all(isinstance(s, PathStep) for s in h.steps)

    def test_frozen(self):
        h = _mk(0)
        with pytest.raises(AttributeError):
            h.c = 5.0


class TestBankStructure:
    """The hypothesis bank mirrors the paper's experimental design."""

    @pytest.mark.parametrize("ds", ["MovieLens", "DBLP", "Yelp"])
    def test_three_per_type(self, ds):
        from repro.datasets.bank import bank

        b = bank(ds)
        assert set(b) == {"node", "edge", "path"}
        for htype, hyps in b.items():
            assert len(hyps) == 3
            for h in hyps:
                assert h.kind == htype

    @pytest.mark.parametrize("ds,prefix", [("MovieLens", "ML"), ("DBLP", "DB"), ("Yelp", "YP")])
    def test_naming_convention(self, ds, prefix):
        from repro.datasets.bank import bank

        for hyps in bank(ds).values():
            for h in hyps:
                assert h.name.startswith(prefix + "-")

    def test_long_paths(self):
        from repro.datasets.bank import dblp_long_paths

        lp = dblp_long_paths()
        assert lp[3].length == 3
        assert lp[4].length == 4
        assert all(h.kind == "path" for h in lp.values())
