"""Batched multi-walker random-walk engine over the driver-side CSR.

The substrate every random-walk sampler (SRW, NBRW, RWR, MHRW, FrontierS,
PHASE, PHASE_opt) is configured from. :class:`WalkContext` collects the
symmetric adjacency and the modifier flags to the driver once per (graph,
hypothesis) pair, as a :class:`~repro.graph.csr.CSR` and a ``sat[n, L]``
bitmask. A superstep is a few numpy operations over the advancing
walkers' neighbor slices and launches no Spark job. When each superstep
was a Spark dataflow of its own (broadcast join, ``row_number`` window
for the cap, anti-join for the exclusion, ``collect``), it cost 3.4
Spark jobs and 0.41-0.63 s on DBLP-lite, almost all fixed per-job
latency (DESIGN.md §5).

One superstep advances every gated walker at once; every walker chooses
against V_S as it stood at the start of the superstep. The paper's
sequential walker-selection weights (degree for FrontierS, L_w for
PHASE) become per-superstep advancement probabilities with the same
expected advancement rates (DESIGN.md §3). All walk randomness comes
from one numpy Generator seeded with ``seed``; :func:`urand` is the
Spark-side uniform of the one-job node and edge samplers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from pyspark.sql import Column, SparkSession
from pyspark.sql import functions as F

from repro.core.hypothesis import Hypothesis
from repro.graph.csr import CSR, rank_in_group
from repro.graph.property_graph import PropertyGraph

_M = 1_000_000_007

# Supersteps after which a walk returns what it has (dead graphs teleport,
# so in practice the budget is always reached first).
MAX_SUPERSTEPS = 400


def urand(*cols: Column, seed: int, tag: str) -> Column:
    """Deterministic uniform in (0, 1) from hashed columns + seed + tag."""
    h = F.xxhash64(*cols, F.lit(int(seed)), F.lit(tag))
    return (F.pmod(h, F.lit(_M)).cast("double") + 0.5) / float(_M)


@dataclass(frozen=True)
class WalkConfig:
    """Configuration that turns the engine into a specific sampler."""

    m: int = 50  # number of dependent walkers (paper's m)
    non_backtracking: bool = False  # NBRW: never step back to prev
    exclude_visited: bool = False  # PHASE_opt Optim 2: N[v] - V_S
    neighbor_cap: Optional[int] = None  # PHASE_opt Optim 1: n candidates
    restart_prob: float = 0.0  # RWR: jump back to the walker's seed
    metropolis_hastings: bool = False  # MHRW degree-ratio accept/reject
    advancement: str = "always"  # always | degree | phase (the L_w gate)
    transition: str = "uniform"  # uniform | phase (Fig. 3 matrices)
    w_h: float = 10.0
    w_l: float = 0.1


class WalkContext:
    """Per-(graph, hypothesis) state shared by all samplers.

    Holds the graph's CSR (:attr:`csr`) and ``sat[i, j]``, whether node
    ``i`` (a dense index) satisfies modifier M_{j+1}. Both are built with
    two Spark jobs and live on the driver.
    """

    def __init__(
        self,
        spark: SparkSession,
        graph: PropertyGraph,
        hyp: Optional[Hypothesis] = None,
    ):
        self.graph = graph
        self.hyp = hyp
        mods = hyp.modifiers if hyp is not None else ()
        self.n_modifiers = len(mods)

        sat_cols = [
            m.to_column(F.col("ntype"), F.col("attrs")).alias(f"sat{i}")
            for i, m in enumerate(mods)
        ]
        nodes = graph.nodes.select("id", *sat_cols).toPandas().sort_values("id")
        adj = graph.adjacency.select("src", "dst").toPandas()
        self.csr = CSR.build(
            nodes.pop("id").to_numpy(), adj["src"].to_numpy(), adj["dst"].to_numpy()
        )
        # A null flag (e.g. a missing attribute) does not satisfy.
        self.sat = nodes.fillna(False).to_numpy(dtype=bool)

    # -- driver-side lookups by node id -------------------------------
    def degree(self, node: int) -> int:
        return int(self.csr.deg[self.csr.index(node)])

    def sat1(self, node: int) -> bool:
        return bool(_sat1(self, self.csr.index(node)))

    @property
    def node_ids(self) -> np.ndarray:
        return self.csr.ids

    def unpersist(self) -> None:
        """Nothing is cached on the cluster; kept so owners can release
        every context the same way."""


def _sat1(ctx: WalkContext, nodes: np.ndarray) -> np.ndarray:
    """Whether each node (dense index) satisfies M_1; all False without
    a hypothesis."""
    if ctx.n_modifiers == 0:
        return np.zeros(np.shape(nodes), dtype=bool)
    return ctx.sat[nodes, 0]


def _advancement_probs(cfg: WalkConfig, ctx: WalkContext, cur: np.ndarray) -> np.ndarray:
    """Per-walker advancement probability min(1, m * w_i / sum(w)) for
    walkers on the dense indices ``cur``."""
    m = len(cur)
    if cfg.advancement == "always":
        return np.ones(m)
    if cfg.advancement == "degree":
        w = np.maximum(ctx.csr.deg[cur], 1).astype(float)
    elif cfg.advancement == "phase":
        w = np.where(_sat1(ctx, cur), cfg.w_h, cfg.w_l)
    else:
        raise ValueError(f"unknown advancement mode {cfg.advancement!r}")
    return np.minimum(1.0, m * w / w.sum())


def _initial_k(ctx: WalkContext, nodes: np.ndarray) -> np.ndarray:
    """Matched-prefix length of walkers freshly placed on ``nodes``."""
    return _sat1(ctx, nodes).astype(np.int64)


def _candidates(
    cfg: WalkConfig,
    ctx: WalkContext,
    cur: np.ndarray,
    prev: np.ndarray,
    visited: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate moves ``(walker, dst)`` of walkers on ``cur``.

    ``walker`` indexes ``cur``. Filters apply in Alg. 2 order: no step
    back to ``prev`` (NBRW), ``N[v] - V_S`` against the ``visited``
    bitmap, then at most ``neighbor_cap`` uniformly chosen survivors.
    """
    walker, dst = ctx.csr.gather(cur)
    keep = np.ones(len(dst), dtype=bool)
    if cfg.non_backtracking:
        keep &= dst != prev[walker]
    if cfg.exclude_visited:
        keep &= ~visited[dst]
    walker, dst = walker[keep], dst[keep]
    if cfg.neighbor_cap is not None:
        keep = rank_in_group(walker, rng.random(len(dst))) < cfg.neighbor_cap
        walker, dst = walker[keep], dst[keep]
    return walker, dst


def _choose(
    cfg: WalkConfig,
    ctx: WalkContext,
    walker: np.ndarray,
    dst: np.ndarray,
    k: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One move per walker that has candidates, chosen with probability
    proportional to its transition weight (exponential race).

    ``k[walker]`` is the walker's matched-prefix length. Returns
    ``(walker, dst, new_k)``, one row per walker, with k after the move.
    """
    L = ctx.n_modifiers
    if cfg.transition == "uniform" or L == 0:
        w, new_k = np.ones(len(dst)), np.zeros(len(dst), dtype=np.int64)
    elif cfg.transition == "phase":
        # Fig. 3 generalized: w_h if the candidate continues the matched
        # modifier prefix (or restarts a match at M_1), else w_l. The
        # walker's k realizes the 2nd/higher-order dependence for paths.
        kw, sat = k[walker], ctx.sat[dst]
        continues = (kw < L) & sat[np.arange(len(dst)), np.minimum(kw, L - 1)]
        restarts = sat[:, 0]
        w = np.where(continues | restarts, cfg.w_h, cfg.w_l)
        new_k = np.where(continues, kw + 1, restarts.astype(np.int64))
    else:
        raise ValueError(f"unknown transition mode {cfg.transition!r}")
    win = rank_in_group(walker, rng.standard_exponential(len(dst)) / w) == 0
    return walker[win], dst[win], new_k[win]


@dataclass
class WalkResult:
    """Output of one engine run: the sampled node set V_S and counters."""

    node_ids: list[int]
    supersteps: int
    teleports: int


def run_walk(
    ctx: WalkContext, cfg: WalkConfig, budget: int, *, seed: int
) -> WalkResult:
    """Run the configured walk until min(``budget``, |V|) distinct nodes
    are sampled (or ``MAX_SUPERSTEPS`` is hit)."""
    rng = np.random.default_rng(seed)
    n = ctx.csr.n
    target = min(budget, n)
    # Keep enough steps per walker for trajectories to preserve paths:
    # the paper's setting has B/m ~= 65; at our reduced absolute budgets
    # m=50 would leave ~3-step fragments that hold no length-2 path, so
    # m scales with the budget (~6+ steps per walker — enough for the
    # l<=4 paths of the bank while keeping superstep counts bounded).
    m = min(cfg.m, max(2, budget // 6), n)

    cur = rng.choice(n, size=m, replace=False)
    prev = np.full(m, -1, dtype=np.int64)
    k = _initial_k(ctx, cur)
    seed_node = cur.copy()

    visited = np.zeros(n, dtype=bool)
    visited[cur] = True
    teleports = 0
    step = 0

    while np.count_nonzero(visited) < target and step < MAX_SUPERSTEPS:
        step += 1
        adv = rng.random(m) < _advancement_probs(cfg, ctx, cur)
        if not adv.any():
            adv[int(rng.integers(m))] = True
        adv_idx = np.flatnonzero(adv)

        if cfg.restart_prob > 0.0:
            r = adv_idx[rng.random(len(adv_idx)) < cfg.restart_prob]
            prev[r] = cur[r]
            cur[r] = seed_node[r]
            k[r] = _initial_k(ctx, cur[r])
            adv_idx = np.setdiff1d(adv_idx, r)
            if len(adv_idx) == 0:
                continue

        walker, dst = _candidates(
            cfg, ctx, cur[adv_idx], prev[adv_idx], visited, rng
        )
        walker, dst, new_k = _choose(cfg, ctx, walker, dst, k[adv_idx], rng)
        moved = adv_idx[walker]
        dead = np.setdiff1d(adv_idx, moved)
        if cfg.metropolis_hastings:
            # A rejected proposal consumes the step: the walker stays put.
            # Both degrees are >= 1: the move used an edge between them.
            deg = ctx.csr.deg
            accept = np.minimum(1.0, deg[cur[moved]] / deg[dst])
            ok = rng.random(len(moved)) < accept
            moved, dst, new_k = moved[ok], dst[ok], new_k[ok]
        prev[moved] = cur[moved]
        cur[moved] = dst
        k[moved] = new_k
        visited[dst] = True

        # Dead ends (no candidate survived the filters): teleport to a
        # fresh random node so the walk keeps covering the graph.
        t = rng.integers(n, size=len(dead))
        prev[dead] = cur[dead]
        cur[dead] = t
        k[dead] = _initial_k(ctx, t)
        visited[t] = True
        teleports += len(dead)

    out = np.flatnonzero(visited)
    if len(out) > budget:
        # Trim overshoot from the final superstep for exact-budget S.
        out = rng.choice(out, size=budget, replace=False)
    return WalkResult(ctx.csr.ids[out].tolist(), step, teleports)
