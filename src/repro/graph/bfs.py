"""BFS primitives over the driver-side CSR of the symmetric adjacency.

Substrate for the expansion samplers (SBS, FFS) and ShortestPathS. Both
the frontier and the graph live on the driver (see
:mod:`repro.graph.walk_engine` for why), so a BFS level is a gather of
the frontier's neighbor slices. Callers pass and receive node ids.
"""
from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.graph.csr import CSR, rank_in_group


def expand_frontier(
    csr: CSR,
    frontier: Iterable[int],
    visited: Iterable[int],
    *,
    per_parent_cap: Optional[dict[int, int]] = None,
    rng: Optional[np.random.Generator] = None,
) -> list[dict]:
    """One BFS level: neighbors of ``frontier`` not in ``visited``.

    ``per_parent_cap`` limits how many (uniform-random, drawn with
    ``rng``) neighbors each parent may contribute — the snowball fan-out
    k or the forest-fire geometric burn count. Returns rows
    ``{"src", "dst"}``; a dst reachable from several parents appears
    once per parent (callers dedupe).
    """
    parents = np.unique(csr.index(list(frontier)))
    owner, dst = csr.gather(parents)
    keep = ~np.isin(dst, csr.index(list(visited)))
    owner, dst = owner[keep], dst[keep]
    if per_parent_cap is not None:
        cap = np.array([per_parent_cap.get(int(v), 0) for v in csr.ids[parents]])
        keep = rank_in_group(owner, rng.random(len(dst))) < cap[owner]
        owner, dst = owner[keep], dst[keep]
    return [
        {"src": s, "dst": d}
        for s, d in zip(csr.ids[parents[owner]].tolist(), csr.ids[dst].tolist())
    ]


def bfs_parents(
    csr: CSR, sources: list[int], *, max_depth: int
) -> dict[int, dict[int, int]]:
    """Multi-source BFS with parent pointers.

    Returns ``{source: {node: parent}}`` for every node reached within
    ``max_depth`` levels of its source. A node's parent is the
    smallest-id node of the previous level adjacent to it.
    """
    parents: dict[int, dict[int, int]] = {}
    for root in sorted(set(int(s) for s in sources)):
        frontier = csr.index([root])
        seen = np.zeros(csr.n, dtype=bool)
        seen[frontier] = True
        par = {root: root}
        for _ in range(max_depth):
            owner, dst = csr.gather(frontier)
            fresh = ~seen[dst]
            # The frontier is ascending, so a node's first occurrence
            # carries its smallest parent.
            dst, first = np.unique(dst[fresh], return_index=True)
            src = frontier[owner[fresh][first]]
            seen[dst] = True
            par.update(zip(csr.ids[dst].tolist(), csr.ids[src].tolist()))
            frontier = dst
        parents[root] = par
    return parents


def backtrack(parents: dict[int, int], source: int, target: int) -> Optional[list[int]]:
    """Path source→target from a parent map, or None if unreached."""
    if target not in parents:
        return None
    path = [target]
    while path[-1] != source:
        path.append(parents[path[-1]])
        if len(path) > len(parents) + 1:
            raise RuntimeError("parent-pointer cycle")
    path.reverse()
    return path
