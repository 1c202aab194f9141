"""PHASE and PHASE_opt — the paper's hypothesis-aware samplers.

PHASE (Algorithm 1) is an m-dimensional FrontierS-style random walk with
two weight functions:

1. Walker-selection weights L_w: walkers sitting on a node satisfying
   the first modifier M_1 get weight ``w_h``, others ``w_l``.
2. Hypothesis-aware transition weights (Fig. 3): neighbors that continue
   the path's modifier sequence (tracked per-walker as the matched
   prefix length k — the 2nd/higher-order state for l >= 2) get ``w_h``,
   others ``w_l``.

The engine's ``weights="phase"`` applies both.

PHASE_opt (Algorithm 2, the engine's ``algorithm2``) adds two
optimizations, both applied to the candidate set *before* the weighted
choice:

1. Optim 2 — non-backtracking over the whole sample: N' = N[v] - V_S.
2. Optim 1 — examine only min(|N'|, n) uniformly sampled neighbors of
   N'. On a node of degree above ``DRAW * n`` the step reads ``DRAW * n``
   random neighbor slots and keeps the first n distinct unvisited ones,
   so it costs O(n) whatever deg(v); on any other node, or when those
   slots hold fewer than n, it reads all of N[v]
   (:meth:`~repro.graph.csr.CSR.unvisited`).

Paper defaults (§4.1): m=50, w_h=10, w_l=0.1 and n=30 are the engine's
constants ``M``, ``W_H``, ``W_L`` and ``N``.
"""
from __future__ import annotations

from dataclasses import replace

from repro.graph.walk_engine import WalkConfig, WalkContext, run_walk
from repro.samplers.base import register

PHASE = WalkConfig(weights="phase")
PHASE_OPT = replace(PHASE, algorithm2=True)


def _register_phase(name: str, cfg: WalkConfig) -> None:
    @register(name)
    def sample(ctx: WalkContext, budget: int, *, seed: int) -> list[int]:
        return run_walk(ctx, cfg, budget, seed=seed).node_ids


_register_phase("PHASE", PHASE)
_register_phase("PHASE_opt", PHASE_OPT)
