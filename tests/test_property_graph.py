"""Tests for the PropertyGraph substrate on the hand-checkable toy graph."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graph.property_graph import PropertyGraph
from tests.conftest import TOY_A, TOY_B, TOY_R


class TestConstruction:
    def test_schema(self, toy_graph):
        assert set(toy_graph.nodes.columns) == {"id", "ntype", "attrs"}
        assert set(toy_graph.edges.columns) == {"src", "dst", "etype", "attrs"}

    def test_node_count_by_type(self, toy_graph):
        counts = dict(
            toy_graph.nodes.groupBy("ntype").count().rdd.map(tuple).collect()
        )
        assert counts == {"a": 2, "b": 3}

    def test_attrs_are_string_map(self, toy_graph):
        row = toy_graph.nodes.where(F.col("id") == 1).first()
        assert row["attrs"]["x"] == "10.0"

    def test_edge_attrs(self, toy_graph):
        row = toy_graph.edges.where(
            (F.col("src") == 2) & (F.col("dst") == 5)
        ).first()
        assert float(row["attrs"]["w"]) == 3.5

    def test_requires_tables(self, spark):
        with pytest.raises(ValueError):
            PropertyGraph.from_tables(spark, {}, {})


class TestDegrees:
    def test_values(self, toy_graph):
        # Total (in+out) degree: 1:2, 2:2, 3:1, 4:2, 5:1.
        csr = toy_graph.csr
        assert dict(zip(csr.ids.tolist(), csr.deg.tolist())) == {
            1: 2, 2: 2, 3: 1, 4: 2, 5: 1
        }

    def test_every_node_present(self, toy_graph):
        assert toy_graph.csr.n == toy_graph.num_nodes()

    def test_self_loop_counts_twice(self, spark):
        # A stored self-loop and its inverse are two slots of one row.
        g = PropertyGraph.from_tables(
            spark,
            {"t": pd.DataFrame({"id": [1, 2, 3]})},
            {"e": pd.DataFrame({"src": [1, 1], "dst": [1, 2]})},
        )
        assert g.csr.deg.tolist() == [3, 1, 0]
        g.unpersist()


class TestCsr:
    def test_every_stored_edge_and_its_inverse(self, toy_graph):
        csr = toy_graph.csr
        row, nbr = csr.gather(np.arange(csr.n))
        pairs = sorted(zip(csr.ids[row].tolist(), csr.ids[nbr].tolist()))
        stored = sorted(zip(TOY_R["src"].tolist(), TOY_R["dst"].tolist()))
        assert pairs == sorted(stored + [(d, s) for s, d in stored])

    def test_relation_slots_and_edge_values(self, toy_graph):
        csr = toy_graph.csr
        row, nbr = csr.gather(np.arange(csr.n))
        w = toy_graph.edge_values("w")
        weight = dict(zip(zip(TOY_R["src"], TOY_R["dst"]), TOY_R["w"]))
        for rel, forward in (("r", True), ("r_inv", False)):
            slots = np.flatnonzero(toy_graph.relation_slots(rel))
            assert len(slots) == len(TOY_R)
            for j in slots:
                s, d = csr.ids[row[j]], csr.ids[nbr[j]]
                # The inverse keeps its edge's attributes.
                assert w[j] == weight[(s, d) if forward else (d, s)]
        assert not toy_graph.relation_slots("nope").any()
        assert np.isnan(toy_graph.edge_values("nope")).all()

    def test_unpersist_drops_the_csr(self, spark):
        g = PropertyGraph.from_tables(
            spark, {"a": TOY_A, "b": TOY_B}, {"r": TOY_R}
        )
        first = g.csr
        g.unpersist()
        again = g.csr
        assert again is not first
        for attr in ("ids", "indptr", "nbr", "deg"):
            assert np.array_equal(getattr(again, attr), getattr(first, attr))
        g.unpersist()

    def test_edge_values_refuse_rows_in_another_order(self, spark):
        g = PropertyGraph.from_tables(
            spark, {"a": TOY_A, "b": TOY_B}, {"r": TOY_R}
        )
        g.csr
        stored, g.edges = g.edges, g.edges.orderBy(F.desc("src"), F.desc("dst"))
        with pytest.raises(RuntimeError, match="order"):
            g.edge_values("w")
        g.edges = stored
        g.unpersist()


class TestStats:
    def test_toy_stats(self, toy_graph):
        st = toy_graph.stats()
        assert st["nodes"] == 5
        assert st["edges"] == 4
        assert st["node_types"] == 2
        assert st["edge_types"] == 1
        assert st["density"] == pytest.approx(4 / 20)


class TestInducedSubgraph:
    def test_keeps_internal_edges_only(self, spark, toy_graph):
        ids = spark.createDataFrame(pd.DataFrame({"id": [1, 3, 4]}))
        sub = toy_graph.induced_subgraph(ids)
        assert sub.num_nodes() == 3
        pairs = {(r["src"], r["dst"]) for r in sub.edges.collect()}
        assert pairs == {(1, 3), (1, 4)}  # (2,4),(2,5) dropped with node 2

    def test_empty_selection(self, spark, toy_graph):
        ids = spark.createDataFrame(pd.DataFrame({"id": [99]}))
        sub = toy_graph.induced_subgraph(ids)
        assert sub.num_nodes() == 0
        assert sub.num_edges() == 0

    def test_full_selection_is_identity(self, spark, toy_graph):
        ids = toy_graph.nodes.select("id")
        sub = toy_graph.induced_subgraph(ids)
        assert sub.num_nodes() == toy_graph.num_nodes()
        assert sub.num_edges() == toy_graph.num_edges()

    def test_duplicate_ids_deduped(self, spark, toy_graph):
        ids = spark.createDataFrame(pd.DataFrame({"id": [1, 1, 3, 3]}))
        assert toy_graph.induced_subgraph(ids).num_nodes() == 2
