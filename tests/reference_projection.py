"""The hypothesis projection's step CSRs built as each context once built
them on its own, the reference that ``WalkContext.steps`` is checked
against.

Collect the modifier flags and the stored edges, mirror each edge into
its inverse (``src‖dst`` against ``dst‖src``, the inverse named
``r + INV_SUFFIX`` and keeping the edge's attributes), keep per step i
the rows of type r_i into nodes that can take position i + 1 (and, for
an edge f_P at that step, a non-null f_P), then ``CSR.build`` each step.
Two Spark jobs per call.
"""
import numpy as np
from pyspark.sql import functions as F

from repro.core.hypothesis import Hypothesis
from repro.graph.csr import CSR
from repro.graph.property_graph import INV_SUFFIX, PropertyGraph


def reference_steps(graph: PropertyGraph, hyp: Hypothesis) -> list[CSR]:
    mods = hyp.modifiers
    f = hyp.f if hyp.f.attr is not None else None
    node_f = f is not None and f.kind == "node"
    edge_f = f is not None and f.kind == "edge"
    f_col = [F.col("attrs").getItem(f.attr).cast("double").alias("f")] if f else []
    sat = [f"sat{i}" for i in range(len(mods))]
    nodes = (
        graph.nodes.select(
            "id",
            *[m.to_column(F.col("ntype"), F.col("attrs")).alias(s) for m, s in zip(mods, sat)],
            *(f_col if node_f else []),
        )
        .toPandas()
        .sort_values("id")
    )
    edges = graph.edges.select("src", "dst", "etype", *(f_col if edge_f else [])).toPandas()
    ids = nodes["id"].to_numpy()
    ok = nodes[sat].to_numpy(dtype=bool, na_value=False)
    if node_f:
        ok[:, f.position] &= ~np.isnan(nodes["f"].to_numpy(dtype=float))
    src = np.concatenate((edges["src"], edges["dst"]))
    dst = np.concatenate((edges["dst"], edges["src"]))
    etype = np.concatenate((edges["etype"], edges["etype"] + INV_SUFFIX))
    d = np.searchsorted(ids, dst)
    steps = []
    for i, step in enumerate(hyp.steps):
        keep = (etype == step.etype) & ok[d, i + 1]
        val = None
        if edge_f and f.position == i:
            val = np.tile(edges["f"].to_numpy(dtype=float), 2)
            keep &= ~np.isnan(val)
            val = val[keep]
        steps.append(CSR.build(ids, src[keep], dst[keep], val))
    return steps
