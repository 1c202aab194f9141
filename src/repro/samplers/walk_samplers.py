"""Random-walk based samplers as walk-engine configurations.

- SRW  [Gjoka et al. 2010]: uniform-neighbor walks.
- NBRW [Lee et al. 2012]: never revisit the immediately previous node.
- RWR: restart to the walker's seed with probability 0.15.
- MHRW [Hübler et al. 2008]: uniform proposal, accept with
  min(1, d(cur)/d(next)) — targets the uniform node distribution.
- FrontierS [Ribeiro & Towsley 2010]: m dependent walkers, the advancing
  walker chosen with degree-proportional probability, uniform neighbor.

All share the engine's multi-walker batching with m = 50 walkers
(DESIGN.md §3); they stay hypothesis-agnostic because their weights are
``uniform`` or ``degree``.
"""
from __future__ import annotations

from repro.graph.walk_engine import WalkConfig, WalkContext, run_walk
from repro.samplers.base import register

WALKS = {
    "SRW": WalkConfig(),
    "NBRW": WalkConfig(non_backtracking=True),
    "RWR": WalkConfig(restart=True),
    "MHRW": WalkConfig(metropolis_hastings=True),
    "FrontierS": WalkConfig(weights="degree"),
}


def _register_walk(name: str, cfg: WalkConfig) -> None:
    @register(name)
    def sample(ctx: WalkContext, budget: int, *, seed: int) -> list[int]:
        return run_walk(ctx, cfg, budget, seed=seed).node_ids


for name, cfg in WALKS.items():
    _register_walk(name, cfg)
