"""ShortestPathS: accumulate shortest paths between random node pairs.

Each round picks 16 random (source, target) pairs, runs a depth-4 BFS
with parent pointers from each distinct source, backtracks the found
paths, and adds their nodes to V_S until the budget is met. This is the
standard shortest-path sampler evaluated by Rafiei & Curial and the
paper's ShortestPathS baseline.
"""
from __future__ import annotations

import numpy as np

from repro.graph.bfs import backtrack, bfs_parents
from repro.graph.walk_engine import WalkContext
from repro.samplers.base import register


@register("ShortestPathS")
def shortest_path_sample(ctx: WalkContext, budget: int, *, seed: int) -> list[int]:
    rng = np.random.default_rng(seed)
    n = ctx.csr.n
    target = min(budget, n)
    visited = np.zeros(n, dtype=bool)
    size = 0
    for _ in range(30):
        if size >= target:
            break
        srcs, tgts = rng.choice(n, 16), rng.choice(n, 16)
        parents = {
            s: bfs_parents(ctx.csr, s, max_depth=4) for s in sorted(set(srcs))
        }
        for s, t in zip(srcs, tgts):
            for v in backtrack(parents[s], t) or ():
                if size < budget and not visited[v]:
                    visited[v] = True
                    size += 1
    if size < budget:
        # Unreached pairs on a sparse graph: top up uniformly so the
        # sampling proportion is comparable across samplers.
        pool = np.flatnonzero(~visited)
        extra = rng.choice(pool, size=min(budget - size, len(pool)), replace=False)
        visited[extra] = True
    return ctx.csr.ids[visited].tolist()
