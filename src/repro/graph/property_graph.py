"""Attributed (property) graph over Spark DataFrames.

Schema (paper Def. 1):

- ``nodes``: ``id BIGINT, ntype STRING, attrs MAP<STRING, STRING>``
- ``edges``: ``src BIGINT, dst BIGINT, etype STRING, attrs MAP<STRING, STRING>``

Attribute values are stored as strings and cast at use sites (the
hypothesis layer knows which attributes are numeric). Edges are directed
and held once; per Def. 1 every relation ``r`` implies its inverse
``r^-1``, named ``r`` suffixed with ``INV_SUFFIX``. Spark never
materializes the inverse: :class:`~repro.graph.walk_engine.WalkContext`
mirrors the collected edges on the driver, the inverse keeping the
edge's attributes.
"""
from __future__ import annotations

from functools import cached_property
from typing import Mapping

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

INV_SUFFIX = "_inv"


class PropertyGraph:
    """An attributed graph held as cached Spark DataFrames.

    Construct via :meth:`from_tables` (flat pandas/Spark tables per node
    and edge type — the generator-friendly path, also what the DuckDB
    oracle consumes) or directly from conforming ``nodes``/``edges``
    DataFrames.
    """

    def __init__(self, nodes: DataFrame, edges: DataFrame, *, cache: bool = True):
        self.nodes = nodes
        self.edges = edges
        if cache:
            self.nodes = self.nodes.cache()
            self.edges = self.edges.cache()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_tables(
        spark: SparkSession,
        node_tables: Mapping[str, pd.DataFrame],
        edge_tables: Mapping[str, pd.DataFrame],
    ) -> "PropertyGraph":
        """Build from flat tables.

        ``node_tables[ntype]`` must have an ``id`` column; every other
        column becomes an attribute. ``edge_tables[etype]`` must have
        ``src``/``dst`` columns; every other column becomes an edge
        attribute. Node ids must be globally unique across types.
        """
        if not node_tables or not edge_tables:
            raise ValueError("need at least one node table and one edge table")
        nodes = _union_typed(spark, node_tables, ("id",), "ntype")
        edges = _union_typed(spark, edge_tables, ("src", "dst"), "etype")
        return PropertyGraph(nodes, edges)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @cached_property
    def degrees(self) -> DataFrame:
        """Total (in+out) degree per node: ``id, degree``, both endpoints
        of every edge counted (a self-loop twice). Every node has
        degree >= 1 by the paper's connectedness assumption; nodes absent
        from the edge list get degree 0 here (generators avoid them)."""
        ends = self.edges.select(F.explode(F.array("src", "dst")).alias("id"))
        deg = ends.groupBy("id").agg(F.count(F.lit(1)).alias("degree"))
        return (
            self.nodes.select("id")
            .join(deg, "id", "left")
            .select("id", F.coalesce("degree", F.lit(0)).alias("degree"))
            .cache()
        )

    # ------------------------------------------------------------------
    # Statistics (Table 1)
    # ------------------------------------------------------------------
    def num_nodes(self) -> int:
        return self.nodes.count()

    def num_edges(self) -> int:
        return self.edges.count()

    def stats(self) -> dict:
        """Table-1 style statistics for a directed graph."""
        n, m = self.num_nodes(), self.num_edges()
        ntypes = self.nodes.select("ntype").distinct().count()
        etypes = self.edges.select("etype").distinct().count()
        density = m / (n * (n - 1)) if n > 1 else 0.0
        return {
            "nodes": n,
            "edges": m,
            "density": density,
            "node_types": ntypes,
            "edge_types": etypes,
        }

    # ------------------------------------------------------------------
    # Subgraphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, node_ids: DataFrame) -> "PropertyGraph":
        """Induced subgraph on ``node_ids`` (a DataFrame with an ``id``
        column). Paper §3.2.1: "The resulting sampled graph S is the
        induced subgraph from V_S"."""
        ids = F.broadcast(node_ids.select("id").distinct())
        nodes = self.nodes.join(ids, "id", "semi")
        edges = (
            self.edges.join(ids.withColumnRenamed("id", "src"), "src", "semi")
            .join(ids.withColumnRenamed("id", "dst"), "dst", "semi")
            .select("src", "dst", "etype", "attrs")
        )
        return PropertyGraph(nodes, edges, cache=False)

    def unpersist(self) -> None:
        """Release cached DataFrames (graphs built per-test/per-run)."""
        for df in (self.nodes, self.edges):
            df.unpersist()
        if "degrees" in self.__dict__:
            self.degrees.unpersist()


def _union_typed(
    spark: SparkSession,
    tables: Mapping[str, pd.DataFrame],
    key_cols: tuple[str, ...],
    type_col: str,
) -> DataFrame:
    """One frame of ``key_cols`` (as BIGINT), ``type_col`` (the table's
    key in ``tables``) and ``attrs``: every other column as a string map."""
    out = None
    for typ, pdf in tables.items():
        attr_cols = [c for c in pdf.columns if c not in key_cols]
        attrs = (
            F.map_from_arrays(
                F.array(*[F.lit(c) for c in attr_cols]),
                F.array(*[F.col(c).cast("string") for c in attr_cols]),
            )
            if attr_cols
            else F.create_map().cast("map<string,string>")
        )
        df = spark.createDataFrame(pdf).select(
            *[F.col(c).cast("bigint").alias(c) for c in key_cols],
            F.lit(typ).alias(type_col),
            attrs.alias("attrs"),
        )
        out = df if out is None else out.unionByName(df)
    return out
