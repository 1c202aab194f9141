"""Edge sampler: RES (uniform random edges).

RES [Krishnamurthy et al. 2005] draws B *edges* uniformly (the budget is
counted in edges per §2.3); V_S is the set of their endpoints and S is
the induced subgraph, as for every other sampler. It is the one sampler
that draws through Spark: one ``orderBy(urand).limit(B)`` job per sample.
"""
from __future__ import annotations

from pyspark.sql import Column
from pyspark.sql import functions as F

from repro.graph.walk_engine import WalkContext
from repro.samplers.base import register

_M = 1_000_000_007


def urand(*cols: Column, seed: int, tag: str) -> Column:
    """Deterministic uniform in (0, 1) from hashed columns + seed + tag."""
    h = F.xxhash64(*cols, F.lit(int(seed)), F.lit(tag))
    return (F.pmod(h, F.lit(_M)).cast("double") + 0.5) / float(_M)


@register("RES")
def random_edge_sample(ctx: WalkContext, budget: int, *, seed: int) -> list[int]:
    """Endpoints of B uniformly sampled stored edges."""
    u = urand(F.col("src"), F.col("dst"), F.col("etype"), seed=seed, tag="res")
    rows = ctx.graph.edges.select("src", "dst").orderBy(u).limit(budget).collect()
    ids = {int(r["src"]) for r in rows} | {int(r["dst"]) for r in rows}
    return list(ids)
