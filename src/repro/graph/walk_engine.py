"""Batched multi-walker random-walk engine over the driver-side CSR.

The substrate every random-walk sampler (SRW, NBRW, RWR, MHRW, FrontierS,
PHASE, PHASE_opt) is configured from. The walks run on the graph's one
symmetric adjacency, :attr:`PropertyGraph.csr
<repro.graph.property_graph.PropertyGraph.csr>`. :class:`WalkContext`
collects a hypothesis's modifier flags (and an edge f_P) to the driver
once per (graph, hypothesis) pair, giving one modifier bitmask per node,
and selects from the graph's CSR the hypothesis projection the estimator
(:mod:`repro.core.estimator`) expands instances over. A superstep is a
few numpy operations over the advancing walkers' neighbor slices and
launches no Spark job.

One superstep advances every gated walker at once; every walker chooses
against V_S as it stood at the start of the superstep. The paper's
sequential walker-selection weights (degree for FrontierS, L_w for
PHASE) become per-superstep advancement probabilities with the same
expected advancement rates (DESIGN.md §3). All walk randomness comes
from one numpy Generator seeded with ``seed``, as does every sampler's
but RES's.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from pyspark.sql import functions as F

from repro.core.hypothesis import Hypothesis
from repro.graph.csr import argmin_in_group
from repro.graph.property_graph import PropertyGraph

# A walk returns what it has, short of the budget if need be, after
# max(SUPERSTEP_FLOOR, CAP_ROUNDS * ceil(B / m)) supersteps. m walkers
# need at least ceil(B / m) supersteps to sample B nodes, and the steps a
# walk takes grow with that: PHASE took up to 10 times it on DBLP-lite at
# sf = 10-50 (EXPERIMENTS.md, "Scale ladder"). Teleports keep a walk
# moving but not always onto new nodes, so a walk can still stop at the
# cap short of B (ROADMAP item 2).
SUPERSTEP_FLOOR = 400
CAP_ROUNDS = 16

# Paper §4.1: m = 50 dependent walkers, L_w and transition weights
# w_h = 10 for nodes that match, w_l = 0.1 for the rest, and PHASE_opt's
# n = 30 candidates per step.
M, W_H, W_L, N = 50, 10.0, 0.1, 30

# RWR: an advancing walker jumps back to its seed with this probability.
RESTART = 0.15

# Walker-selection and transition weights: uniform (1 each), degree
# (FrontierS: walker selection by degree, uniform neighbor) or phase
# (PHASE: L_w walker selection and the Fig. 3 transitions).
WEIGHTS = ("uniform", "degree", "phase")


@dataclass(frozen=True)
class WalkConfig:
    """Configuration that turns the engine into a specific sampler."""

    weights: str = "uniform"  # one of WEIGHTS
    non_backtracking: bool = False  # NBRW: never step back to prev
    algorithm2: bool = False  # PHASE_opt: N uniform candidates of N[v] - V_S
    restart: bool = False  # RWR: jump back to the walker's seed (RESTART)
    metropolis_hastings: bool = False  # MHRW degree-ratio accept/reject

    def __post_init__(self) -> None:
        if self.weights not in WEIGHTS:
            raise ValueError(f"unknown weights {self.weights!r}")


class WalkContext:
    """Per-(graph, hypothesis) state shared by all samplers and the
    estimator: the graph's CSR and, collected to the driver with one Spark
    job (two when f_P is an edge attribute), what the hypothesis reads
    of it.

    - :attr:`csr`: the graph's symmetric adjacency,
      :attr:`PropertyGraph.csr <repro.graph.property_graph.PropertyGraph.csr>`,
      shared by every context on that graph;
    - :attr:`bits`: one integer per node (a dense index), whose bit j
      is set when the node satisfies modifier M_{j+1}, so that a walk
      reads a node's flag for any matched-prefix length k with one
      gather, ``bits[i] >> k & 1``;
    - :attr:`start`: the nodes that can open a relevant instance (they
      satisfy M_1 and, when f_P is that node's attribute, f_P is not
      null);
    - :attr:`steps`: one CSR per path step i, the slots of :attr:`csr`
      of relation r_i whose neighbor can take position i + 1 (it
      satisfies M_{i+2}; a null f_P there drops the slot). When f_P is
      that step's edge attribute, the CSR's ``val`` holds it;
    - :attr:`f`: f_P per node when it is a node attribute, else None.

    f_P is ``attrs[attr].cast("double")``; a null becomes NaN.
    """

    def __init__(self, graph: PropertyGraph, hyp: Hypothesis):
        self.graph = graph
        self.hyp = hyp
        mods = hyp.modifiers
        f = hyp.f if hyp.f.attr is not None else None
        node_f = f is not None and f.kind == "node"
        edge_f = f is not None and f.kind == "edge"
        sat_names = [f"sat{i}" for i in range(len(mods))]
        sat_cols = [
            m.to_column(F.col("ntype"), F.col("attrs")).alias(name)
            for m, name in zip(mods, sat_names)
        ]
        f_col = [F.col("attrs").getItem(f.attr).cast("double").alias("f")] if node_f else []
        self.csr = csr = graph.csr
        nodes = graph.nodes.select("id", *sat_cols, *f_col).toPandas().sort_values("id")
        # ok[i, j]: node i satisfies M_{j+1}; a null flag (e.g. a missing
        # attribute) does not.
        ok = nodes[sat_names].to_numpy(dtype=bool, na_value=False)
        self.bits = ok @ (1 << np.arange(len(mods)))
        self.f = nodes["f"].to_numpy(dtype=float) if node_f else None

        # Now ok[i, j]: node i can take path position j.
        if node_f:
            ok[:, f.position] &= ~np.isnan(self.f)
        self.start = ok[:, 0]
        self.steps = []
        for i, step in enumerate(hyp.steps):
            keep = graph.relation_slots(step.etype) & ok[csr.nbr, i + 1]
            val = None
            if edge_f and f.position == i:
                val = graph.edge_values(f.attr)
                keep &= ~np.isnan(val)
            self.steps.append(csr.select(keep, val))


def _advancement_probs(cfg: WalkConfig, ctx: WalkContext, cur: np.ndarray) -> np.ndarray:
    """Per-walker advancement probability min(1, m * w_i / sum(w)) for
    walkers on the dense indices ``cur``."""
    m = len(cur)
    if cfg.weights == "uniform":
        return np.ones(m)
    if cfg.weights == "degree":
        w = np.maximum(ctx.csr.deg[cur], 1).astype(float)
    else:  # phase
        w = np.where(ctx.bits[cur] & 1, W_H, W_L)
    return np.minimum(1.0, m * w / w.sum())


def _candidates(
    cfg: WalkConfig,
    ctx: WalkContext,
    cur: np.ndarray,
    prev: np.ndarray,
    visited: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Candidate moves ``(walker, dst, examined)`` of walkers on ``cur``,
    with the number of neighbor slots read to find them.

    ``walker`` indexes ``cur``, each walker's candidates one contiguous
    run. Under Algorithm 2 they are at most ``N`` uniformly chosen
    neighbors outside the ``visited`` bitmap; that also rules out
    ``prev``, which is always in V_S. A walker on a node of degree above
    ``DRAW * N`` (:data:`repro.graph.csr.DRAW`) reads only that many
    slots, unless they hold fewer than ``N`` unvisited neighbors.
    Otherwise the candidates are all neighbors, less ``prev`` for NBRW.
    """
    if cfg.algorithm2:
        return ctx.csr.unvisited(cur, visited, np.full(len(cur), N), rng)
    walker, dst = ctx.csr.gather(cur)
    examined = len(dst)
    if cfg.non_backtracking:
        keep = dst != prev[walker]
        walker, dst = walker[keep], dst[keep]
    return walker, dst, examined


def _choose(
    cfg: WalkConfig,
    ctx: WalkContext,
    walker: np.ndarray,
    dst: np.ndarray,
    k: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One move per walker that has candidates, chosen with probability
    proportional to its transition weight: an exponential race, won by
    the walker's smallest key (the first of equal ones) within its run.

    ``k[walker]`` is the walker's matched-prefix length. Returns
    ``(walker, dst, new_k)``, one row per walker, with k after the move.
    """
    key = rng.standard_exponential(len(dst))
    if cfg.weights != "phase":
        win = argmin_in_group(walker, key)
        return walker[win], dst[win], np.zeros(len(win), dtype=np.int64)
    # Fig. 3 generalized: w_h if the candidate continues the matched
    # modifier prefix (bit k, clear for k = L) or restarts a match at M_1
    # (bit 0), else w_l. The walker's k realizes the 2nd/higher-order
    # dependence for paths.
    bits = ctx.bits[dst]
    w = np.where((bits >> k[walker] | bits) & 1, W_H, W_L)
    win = argmin_in_group(walker, key / w)
    walker, dst, bits = walker[win], dst[win], bits[win]
    kw = k[walker]
    return walker, dst, np.where(bits >> kw & 1, kw + 1, bits & 1)


@dataclass
class WalkResult:
    """Output of one engine run: the sampled node set V_S and counters."""

    node_ids: list[int]
    supersteps: int
    teleports: int
    examined: int  # neighbor slots the candidate steps read


def run_walk(
    ctx: WalkContext, cfg: WalkConfig, budget: int, *, seed: int
) -> WalkResult:
    """Run the configured walk until min(``budget``, |V|) distinct nodes
    are sampled, or until the superstep cap is hit."""
    rng = np.random.default_rng(seed)
    n = ctx.csr.n
    target = min(budget, n)
    # Keep enough steps per walker for trajectories to preserve paths:
    # the paper's setting has B/m ~= 65; at our reduced absolute budgets
    # m=50 would leave ~3-step fragments that hold no length-2 path, so
    # m scales with the budget (~6+ steps per walker — enough for the
    # l<=4 paths of the bank while keeping superstep counts bounded).
    m = min(M, max(2, budget // 6), n)

    prev = np.full(m, -1, dtype=np.int64)
    cur = np.full(m, -1, dtype=np.int64)
    k = np.zeros(m, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)

    def move(
        w: np.ndarray, dst: np.ndarray, new_k: Optional[np.ndarray] = None
    ) -> None:
        """Walkers ``w`` step onto ``dst``. Without ``new_k`` (placement,
        restart, teleport) k starts afresh: 1 where ``dst`` satisfies
        M_1, else 0."""
        prev[w] = cur[w]
        cur[w] = dst
        k[w] = ctx.bits[dst] & 1 if new_k is None else new_k
        visited[dst] = True

    move(np.arange(m), rng.choice(n, size=m, replace=False))
    seed_node = cur.copy()
    teleports = examined = 0
    step = 0

    cap = max(SUPERSTEP_FLOOR, CAP_ROUNDS * -(-target // m))
    while np.count_nonzero(visited) < target and step < cap:
        step += 1
        adv = rng.random(m) < _advancement_probs(cfg, ctx, cur)
        if not adv.any():
            adv[int(rng.integers(m))] = True
        adv_idx = np.flatnonzero(adv)

        if cfg.restart:
            restart = rng.random(len(adv_idx)) < RESTART
            r = adv_idx[restart]
            move(r, seed_node[r])
            adv_idx = adv_idx[~restart]

        walker, dst, read = _candidates(
            cfg, ctx, cur[adv_idx], prev[adv_idx], visited, rng
        )
        examined += read
        walker, dst, new_k = _choose(cfg, ctx, walker, dst, k[adv_idx], rng)
        moved = adv_idx[walker]
        stuck = np.ones(len(adv_idx), dtype=bool)
        stuck[walker] = False
        dead = adv_idx[stuck]
        if cfg.metropolis_hastings:
            # A rejected proposal consumes the step: the walker stays put.
            # Both degrees are >= 1: the move used an edge between them.
            deg = ctx.csr.deg
            accept = np.minimum(1.0, deg[cur[moved]] / deg[dst])
            ok = rng.random(len(moved)) < accept
            moved, dst, new_k = moved[ok], dst[ok], new_k[ok]
        move(moved, dst, new_k)

        # Dead ends (no candidate survived the filters): teleport to a
        # fresh random node so the walk keeps covering the graph.
        if len(dead):
            move(dead, rng.integers(n, size=len(dead)))
            teleports += len(dead)

    out = np.flatnonzero(visited)
    if len(out) > budget:
        # Trim overshoot from the final superstep for exact-budget S.
        out = rng.choice(out, size=budget, replace=False)
    return WalkResult(ctx.csr.ids[out].tolist(), step, teleports, examined)
