"""BFS primitives over the driver-side CSR of the symmetric adjacency.

Substrate for the expansion samplers (SBS, FFS) and ShortestPathS. Like
:func:`~repro.graph.walk_engine.run_walk`, they address nodes by dense
CSR index and keep the sample as a ``visited`` bitmap, so a BFS level is
one :meth:`~repro.graph.csr.CSR.unvisited` call over the frontier.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.csr import CSR


def expand_frontier(
    csr: CSR,
    frontier: np.ndarray,
    visited: np.ndarray,
    caps: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One BFS level: the distinct unvisited neighbors of ``frontier``
    that the caps let through, as ascending dense indices. ``frontier``
    may be in any order.

    ``caps[j]`` limits how many uniformly chosen (with ``rng``) unvisited
    neighbors ``frontier[j]`` may contribute — the snowball fan-out or
    the forest-fire burn count. ``visited`` is not updated.
    """
    # Draw in ascending index order whatever the frontier order; each cap
    # moves with its parent.
    order = np.argsort(frontier)
    _, dst, _ = csr.unvisited(frontier[order], visited, caps[order], rng)
    return np.unique(dst)


def bfs_parents(csr: CSR, root: int, *, max_depth: int) -> np.ndarray:
    """BFS from the dense index ``root`` with parent pointers.

    Returns ``parent``: for every node reached within ``max_depth``
    levels, the smallest-index node of the previous level adjacent to it
    (``parent[root] == root``); -1 for every other node.
    """
    parent = np.full(csr.n, -1, dtype=np.int64)
    parent[root] = root
    frontier = np.array([root])
    for _ in range(max_depth):
        owner, dst, _ = csr.unvisited(frontier, parent >= 0)
        # The frontier is ascending, so a node's first occurrence
        # carries its smallest parent.
        dst, first = np.unique(dst, return_index=True)
        parent[dst] = frontier[owner[first]]
        frontier = dst
    return parent


def backtrack(parent: np.ndarray, target: int) -> Optional[list[int]]:
    """Path root→``target`` from a :func:`bfs_parents` array, or None if
    ``target`` was not reached."""
    if parent[target] < 0:
        return None
    path = [int(target)]
    while parent[path[-1]] != path[-1]:
        path.append(int(parent[path[-1]]))
    path.reverse()
    return path
