"""Hypothesis estimators: relevant-instance extraction and aggregation.

Paper §3.1/§3.2.3: "we extract all relevant nodes, edges, or paths from
S and compute the required aggregated values". The hypothesis projection
that :class:`~repro.graph.walk_engine.WalkContext` builds says which
nodes and adjacency rows can take each path position; this module
expands instances hop by hop over it and caches nothing. From the
context's ``start`` nodes (they satisfy M_1), for each path step r_i, it
gathers the step's CSR slice of the current path ends, whose rows
already lead into nodes that satisfy M_{i+1}, and keeps simple paths
only. The same code gives the ground truth θ on G and the estimator θ̂
(Eq. 2) on a sample S: S is the subgraph of G induced on V_S, so its
instances are exactly those that start in V_S and stay in V_S at every
hop, and the expansion from V_S touches only V_S's neighborhoods.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
import pandas as pd

from repro.core.hypothesis import Agg
from repro.graph.walk_engine import WalkContext


def _instances(
    ctx: WalkContext, members: Optional[Iterable[int]] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Relevant instances as ``(paths, f)``: ``paths[k]`` holds the dense
    indices of instance k's nodes in path order and ``f[k]`` its f_P.

    ``members`` restricts the instances to the subgraph induced on those
    node ids; None means all of G.
    """
    hyp = ctx.hyp
    start = ctx.start
    inside = None
    if members is not None:
        inside = np.zeros(ctx.csr.n, dtype=bool)
        inside[ctx.csr.index(list(members))] = True
        start = start & inside
    paths = np.flatnonzero(start)[:, None]
    f = None
    mods = hyp.modifiers
    for i, step in enumerate(ctx.steps, start=1):
        owner, pos = step.slots(paths[:, -1])
        nxt = step.nbr[pos]
        keep = np.ones(len(nxt), dtype=bool) if inside is None else inside[nxt]
        # Instances are simple paths: no node at two positions. Node ids
        # are globally unique, so only positions of one node type can clash.
        for j in range(i):
            if mods[j].ntype == mods[i].ntype:
                keep &= paths[owner, j] != nxt
        owner, pos = owner[keep], pos[keep]
        paths = np.column_stack((paths[owner], step.nbr[pos]))
        if f is not None:
            f = f[owner]
        if step.val is not None:
            f = step.val[pos]
    if f is None:
        f = np.ones(len(paths)) if ctx.f is None else ctx.f[paths[:, hyp.f.position]]
    return paths, f


def relevant_instances(
    ctx: WalkContext, members: Optional[Iterable[int]] = None
) -> pd.DataFrame:
    """All relevant path instances of ``ctx.hyp``, in G or in the subgraph
    induced on ``members``.

    Returns a DataFrame with node-id columns ``n0 .. nl`` (one per path
    position) and a double column ``f`` holding f_P for that instance
    (1.0 when f_P has no attribute); an instance whose f_P is null is
    not relevant. Instances are ordered node sequences; a stored edge
    contributes both its forward type and its ``_inv`` type to matching.
    """
    paths, f = _instances(ctx, members)
    out = pd.DataFrame(ctx.csr.ids[paths], columns=[f"n{i}" for i in range(paths.shape[1])])
    out["f"] = f
    return out


@dataclass(frozen=True)
class Estimate:
    """Aggregate over relevant instances plus the summary statistics the
    t-test needs (n, mean, std of the per-instance f values)."""

    n_instances: int
    value: Optional[float]  # the agg result; None when n_instances == 0
    mean: Optional[float]
    std: Optional[float]


def estimate(ctx: WalkContext, members: Optional[Iterable[int]] = None) -> Estimate:
    """Compute θ (``members`` None) or the estimator θ̂ (Eq. 2) on the
    subgraph induced on ``members``."""
    _, f = _instances(ctx, members)
    n = len(f)
    if n == 0:
        return Estimate(0, None, None, None)
    mean = float(f.mean())
    value = {
        Agg.AVG: mean,
        Agg.SUM: f.sum(),
        Agg.COUNT: n,
        Agg.MIN: f.min(),
        Agg.MAX: f.max(),
    }[ctx.hyp.agg]
    std = float(f.std(ddof=1)) if n > 1 else 0.0
    return Estimate(n, float(value), mean, std)
