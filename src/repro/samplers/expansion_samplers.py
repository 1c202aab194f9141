"""Expansion samplers over the BFS substrate.

- SBS (snowball, [Goodman 1961]): BFS from a seed, each visited node
  recruits up to ``fanout`` unvisited neighbors per wave.
- FFS (forest fire, [Leskovec & Faloutsos 2006]): like SBS but each
  burning node burns Geometric(p_f)-many unvisited neighbors.

Both restart from a fresh random seed when the fire dies out before the
budget is met (standard practice, keeps V_S at exactly B).
"""
from __future__ import annotations

import numpy as np

from repro.graph.bfs import expand_frontier
from repro.graph.walk_engine import WalkContext
from repro.samplers.base import register


class _Expansion:
    name = "?"

    def _caps(self, frontier: list[int], rng: np.random.Generator) -> dict[int, int]:
        raise NotImplementedError  # pragma: no cover

    def sample(self, ctx: WalkContext, budget: int, *, seed: int) -> list[int]:
        rng = np.random.default_rng(seed)
        target = min(budget, len(ctx.node_ids))
        visited: set[int] = set()
        step = 0
        max_rounds = 200
        frontier: list[int] = []
        while len(visited) < target and step < max_rounds:
            step += 1
            if not frontier:
                s = int(rng.choice(ctx.node_ids))
                visited.add(s)
                frontier = [s]
                continue
            rows = expand_frontier(
                ctx.csr,
                frontier,
                visited,
                per_parent_cap=self._caps(frontier, rng),
                rng=rng,
            )
            new = {int(r["dst"]) for r in rows} - visited
            if not new:
                frontier = []  # fire died: reignite from a fresh seed
                continue
            new_list = sorted(new)
            room = target - len(visited)
            if len(new_list) > room:
                new_list = [
                    int(x)
                    for x in rng.choice(np.array(new_list), size=room, replace=False)
                ]
            visited.update(new_list)
            frontier = new_list
        return list(visited)


@register
class SnowballSampler(_Expansion):
    """SBS with fixed fan-out k=5 (a common setting)."""

    name = "SBS"
    fanout = 5

    def _caps(self, frontier, rng):
        return {int(v): self.fanout for v in frontier}


@register
class ForestFireSampler(_Expansion):
    """FFS with forward-burning probability p_f=0.7 (paper [17] default);
    burn counts are Geometric(1 - p_f) as in the original formulation."""

    name = "FFS"
    p_f = 0.7

    def _caps(self, frontier, rng):
        return {int(v): int(rng.geometric(1.0 - self.p_f)) for v in frontier}
