"""Hypothesis estimators: relevant-instance extraction and aggregation.

Paper §3.1/§3.2.3: "we extract all relevant nodes, edges, or paths from
S and compute the required aggregated values". This module owns the rules
for what a relevant instance is. It builds a hypothesis projection once
per :class:`~repro.graph.walk_engine.WalkContext`, from the columns the
context collects to the driver, and extracts instances by expanding
paths hop by hop over it: from the nodes that satisfy M_1, for each path
step r_i, it gathers the step's CSR slice of the current path ends, whose
rows already lead into nodes that satisfy M_{i+1}. The same code gives
the ground truth θ on G and the estimator θ̂ (Eq. 2) on a sample S: S is the
subgraph of G induced on V_S, so its instances are exactly those that
start in V_S and stay in V_S at every hop, and the expansion from V_S
touches only V_S's neighborhoods.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
import pandas as pd

from repro.core.hypothesis import Agg
from repro.graph.csr import CSR
from repro.graph.walk_engine import WalkContext


@dataclass(frozen=True)
class _Projection:
    """What extraction runs over, built once per context.

    - ``start``: the nodes that can open an instance (they satisfy M_1
      and, when f_P is that node's attribute, f_P is not null);
    - ``steps``: one CSR per path step i, holding the adjacency rows of
      type r_i whose ``dst`` can take position i (it satisfies M_{i+1};
      a null f_P there drops the row). When f_P is that step's edge
      attribute, the CSR's ``val`` holds it;
    - ``f``: f_P per node when it is a node attribute.
    """

    start: np.ndarray
    steps: list[CSR]
    f: Optional[np.ndarray]


def _projection(ctx: WalkContext) -> _Projection:
    """The projection of ``ctx.hyp``, cached on ``ctx``."""
    if ctx.projection is None:
        f = ctx.hyp.f
        # ok[i, j]: node i can take path position j.
        ok = ctx.sat.copy()
        if ctx.node_f is not None:
            ok[:, f.position] &= ~np.isnan(ctx.node_f)
        ids, adj = ctx.csr.ids, ctx.adj
        src, dst = adj["src"].to_numpy(), adj["dst"].to_numpy()
        d = np.searchsorted(ids, dst)
        steps = []
        for i in range(ctx.hyp.length):
            keep = adj[f"r{i}"].to_numpy() & ok[d, i + 1]
            val = None
            if "f" in adj and f.position == i:
                val = adj["f"].to_numpy(dtype=float)
                keep &= ~np.isnan(val)
                val = val[keep]
            steps.append(CSR.build(ids, src[keep], dst[keep], val))
        ctx.projection = _Projection(ok[:, 0], steps, ctx.node_f)
    return ctx.projection


def _instances(
    ctx: WalkContext, members: Optional[Iterable[int]] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Relevant instances as ``(paths, f)``: ``paths[k]`` holds the dense
    indices of instance k's nodes in path order and ``f[k]`` its f_P.

    ``members`` restricts the instances to the subgraph induced on those
    node ids; None means all of G.
    """
    hyp = ctx.hyp
    proj = _projection(ctx)
    start = proj.start
    inside = None
    if members is not None:
        inside = np.zeros(ctx.csr.n, dtype=bool)
        inside[ctx.csr.index(list(members))] = True
        start = start & inside
    paths = np.flatnonzero(start)[:, None]
    f = None
    mods = hyp.modifiers
    for i, step in enumerate(proj.steps, start=1):
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
        f = np.ones(len(paths)) if proj.f is None else proj.f[paths[:, hyp.f.position]]
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
