"""Attributed (property) graph over Spark DataFrames.

Schema (paper Def. 1):

- ``nodes``: ``id BIGINT, ntype STRING, attrs MAP<STRING, STRING>``
- ``edges``: ``src BIGINT, dst BIGINT, etype STRING, attrs MAP<STRING, STRING>``

Attribute values are stored as strings and cast at use sites (the
hypothesis layer knows which attributes are numeric). Edges are directed
and held once; per Def. 1 every relation ``r`` implies its inverse
``r^-1``, named ``r`` suffixed with ``INV_SUFFIX``. Spark never
materializes the inverse. :attr:`PropertyGraph.csr`, built on the driver
once per graph from two Spark jobs, holds every stored edge and then its
inverse, and records per slot its relation and its stored edge, whose
attributes the inverse keeps (:meth:`PropertyGraph.edge_values`). This
module is the only one that forms an inverse.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graph.csr import CSR

INV_SUFFIX = "_inv"


@dataclass(frozen=True)
class _Adjacency:
    """The symmetric CSR and, per slot, its relation and stored edge."""

    csr: CSR
    relations: tuple[str, ...]  # code -> name: the stored types, then their inverses
    relation: np.ndarray  # per slot: its relation code
    edge: np.ndarray  # per slot: its stored edge's row in ``edges``
    digest: str  # fingerprint of the stored edges' (src, dst), in row order


def _digest(src: np.ndarray, dst: np.ndarray) -> str:
    h = hashlib.blake2b(np.ascontiguousarray(src, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(dst, dtype=np.int64).tobytes())
    return h.hexdigest()


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
    def _adjacency(self) -> _Adjacency:
        # Two Spark jobs: the node ids, and every stored edge's endpoints
        # and type. Adjacency row k < m is stored edge k, row m + k its
        # inverse; the CSR's slot order carries each row's index along.
        ids = np.sort(self.nodes.select("id").toPandas()["id"].to_numpy())
        e = self.edges.select("src", "dst", "etype").toPandas()
        src, dst = e["src"].to_numpy(), e["dst"].to_numpy()
        m = len(e)
        # np.unique's sorted codes, found by hashing, not sorting, m strings.
        code, etypes = pd.factorize(e["etype"], sort=True)
        relations = (*etypes, *(t + INV_SUFFIX for t in etypes))
        code = code.astype(np.min_scalar_type(len(relations)))
        rows = CSR.build(
            ids, np.concatenate((src, dst)), np.concatenate((dst, src)), np.arange(2 * m)
        )
        return _Adjacency(
            csr=CSR(rows.ids, rows.indptr, rows.nbr, rows.deg),
            relations=tuple(str(r) for r in relations),
            relation=np.concatenate((code, code + len(etypes)))[rows.val],
            edge=rows.val % m,
            digest=_digest(src, dst),
        )

    @property
    def csr(self) -> CSR:
        """The symmetric adjacency on the driver: every stored edge and
        its inverse, one slot each, so ``csr.deg`` is the total (in+out)
        degree, a self-loop counted twice and a node with no edge at 0.
        Built on first access with two Spark jobs and shared by every
        hypothesis on this graph."""
        return self._adjacency.csr

    def relation_slots(self, relation: str) -> np.ndarray:
        """Mask over :attr:`csr`'s slots: the slot's row has type
        ``relation``, a stored edge type ``r`` or its inverse ``r_inv``."""
        adj = self._adjacency
        if relation not in adj.relations:
            return np.zeros(len(adj.relation), dtype=bool)
        return adj.relation == adj.relations.index(relation)

    def edge_values(self, attr: str) -> np.ndarray:
        """One value per slot of :attr:`csr`: its stored edge's ``attr``
        cast to double, so an inverse keeps its edge's attributes; NaN
        where null. One Spark job.

        The order of a second collect is not assumed: the values map to
        slots only once their ``(src, dst)`` rows match the stored order
        the CSR was built from.
        """
        adj = self._adjacency
        e = self.edges.select(
            "src", "dst", F.col("attrs").getItem(attr).cast("double").alias("v")
        ).toPandas()
        if _digest(e["src"].to_numpy(), e["dst"].to_numpy()) != adj.digest:
            raise RuntimeError(
                "the edges collected in an order other than the one the CSR "
                "was built from"
            )
        return e["v"].to_numpy(dtype=float)[adj.edge]

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
        """Release cached DataFrames (graphs built per-test/per-run) and
        the driver CSR; a later :attr:`csr` builds it again."""
        for df in (self.nodes, self.edges):
            df.unpersist()
        self.__dict__.pop("_adjacency", None)


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
