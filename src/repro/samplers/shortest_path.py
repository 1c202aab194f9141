"""ShortestPathS: accumulate shortest paths between random node pairs.

Each round picks a batch of random (source, target) pairs, runs one
multi-source BFS with parent pointers (bounded depth), backtracks the
found paths, and adds their nodes to V_S until the budget is met. This
is the standard shortest-path sampler evaluated by Rafiei & Curial and
the paper's ShortestPathS baseline.
"""
from __future__ import annotations

import numpy as np

from repro.graph.bfs import backtrack, bfs_parents
from repro.graph.walk_engine import WalkContext
from repro.samplers.base import register


@register
class ShortestPathSampler:
    name = "ShortestPathS"
    pairs_per_round = 16
    max_depth = 4

    def sample(self, ctx: WalkContext, budget: int, *, seed: int) -> list[int]:
        rng = np.random.default_rng(seed)
        target = min(budget, len(ctx.node_ids))
        visited: set[int] = set()
        rounds = 0
        while len(visited) < target and rounds < 30:
            rounds += 1
            srcs = [int(x) for x in rng.choice(ctx.node_ids, self.pairs_per_round)]
            tgts = [int(x) for x in rng.choice(ctx.node_ids, self.pairs_per_round)]
            parents = bfs_parents(ctx.csr, srcs, max_depth=self.max_depth)
            for s, t in zip(srcs, tgts):
                path = backtrack(parents[s], s, t)
                if path is None:
                    continue
                for v in path:
                    if len(visited) < budget:
                        visited.add(v)
        if len(visited) < budget:
            # Unreached pairs on a sparse graph: top up uniformly so the
            # sampling proportion is comparable across samplers.
            pool = np.setdiff1d(ctx.node_ids, np.array(sorted(visited)))
            extra = rng.choice(
                pool, size=min(budget - len(visited), len(pool)), replace=False
            )
            visited.update(int(x) for x in extra)
        return list(visited)
