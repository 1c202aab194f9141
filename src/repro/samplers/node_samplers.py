"""Node samplers: RNS (uniform) and DBS (degree-proportional).

Both choose min(B, |V|) nodes of G without replacement (§3.1) in one
seeded numpy draw over the graph's CSR, and launch no Spark job. DBS
weights the draw by degree with the exponential-race trick (key =
Exp(1)/degree, take the B smallest); an isolated node weighs 1, so it
can still be drawn.
"""
from __future__ import annotations

import numpy as np

from repro.graph.walk_engine import WalkContext
from repro.samplers.base import register


@register("RNS")
def random_node_sample(ctx: WalkContext, budget: int, *, seed: int) -> list[int]:
    """RNS [Stumpf et al. 2005]: B nodes uniformly at random."""
    rng = np.random.default_rng(seed)
    csr = ctx.csr
    return csr.ids[rng.choice(csr.n, size=min(budget, csr.n), replace=False)].tolist()


@register("DBS")
def degree_based_sample(ctx: WalkContext, budget: int, *, seed: int) -> list[int]:
    """DBS: B nodes drawn with probability proportional to degree."""
    rng = np.random.default_rng(seed)
    csr = ctx.csr
    key = rng.standard_exponential(csr.n) / np.maximum(csr.deg, 1)
    k = min(budget, csr.n)
    return csr.ids[np.argpartition(key, k - 1)[:k]].tolist()
