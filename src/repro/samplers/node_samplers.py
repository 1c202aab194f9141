"""Node samplers: RNS (uniform) and DBS (degree-proportional).

Both choose B nodes from G (§3.1); DBS weights the draw by degree using
the exponential-race trick (key = -log(U)/degree, take the B smallest)
so the weighted sample without replacement is a single Catalyst job.
"""
from __future__ import annotations

from pyspark.sql import functions as F

from repro.graph.walk_engine import WalkContext, urand
from repro.samplers.base import register


@register("RNS")
def random_node_sample(ctx: WalkContext, budget: int, *, seed: int) -> list[int]:
    """RNS [Stumpf et al. 2005]: B nodes uniformly at random."""
    u = urand(F.col("id"), seed=seed, tag="rns")
    rows = ctx.graph.nodes.select("id").orderBy(u).limit(budget).collect()
    return [int(r["id"]) for r in rows]


@register("DBS")
def degree_based_sample(ctx: WalkContext, budget: int, *, seed: int) -> list[int]:
    """DBS: B nodes drawn with probability proportional to degree."""
    u = urand(F.col("id"), seed=seed, tag="dbs")
    key = -F.log(u) / F.greatest(F.col("degree").cast("double"), F.lit(1.0))
    rows = ctx.graph.degrees.orderBy(key).limit(budget).collect()
    return [int(r["id"]) for r in rows]
