"""Expansion samplers over the BFS substrate: one loop, two cap rules.

- SBS (snowball, [Goodman 1961]): BFS from a seed, each visited node
  recruits up to k=5 unvisited neighbors per wave (a common setting).
- FFS (forest fire, [Leskovec & Faloutsos 2006]): like SBS but each
  burning node burns Geometric(1 - p_f)-many unvisited neighbors, with
  forward-burning probability p_f=0.7 (the paper's [17] default).

Both restart from a fresh random seed when the fire dies out before the
budget is met (standard practice, keeps V_S at exactly B).
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from repro.graph.bfs import expand_frontier
from repro.graph.walk_engine import WalkContext
from repro.samplers.base import register

MAX_ROUNDS = 200

# Per-parent cap rule: (frontier size, rng) -> one cap per frontier node.
CapRule = Callable[[int, np.random.Generator], np.ndarray]
CAPS: dict[str, CapRule] = {
    "SBS": lambda k, rng: np.full(k, 5),
    "FFS": lambda k, rng: rng.geometric(1.0 - 0.7, size=k),
}


def _register_expansion(name: str, caps: CapRule) -> None:
    @register(name)
    def sample(ctx: WalkContext, budget: int, *, seed: int) -> list[int]:
        rng = np.random.default_rng(seed)
        n = ctx.csr.n
        target = min(budget, n)
        visited = np.zeros(n, dtype=bool)
        frontier = np.array([], dtype=np.int64)
        for _ in range(MAX_ROUNDS):
            if np.count_nonzero(visited) >= target:
                break
            if len(frontier) == 0:
                frontier = np.array([rng.choice(n)])
                visited[frontier] = True
                continue
            new = expand_frontier(
                ctx.csr, frontier, visited, caps(len(frontier), rng), rng
            )
            room = target - np.count_nonzero(visited)
            if len(new) > room:
                new = rng.choice(new, size=room, replace=False)
            visited[new] = True
            frontier = new  # empty when the fire died: reignite next round
        return ctx.csr.ids[visited].tolist()


for name, caps in CAPS.items():
    _register_expansion(name, caps)
