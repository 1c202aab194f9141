"""Driver-side compressed sparse row (CSR) view of the symmetric adjacency.

The walk engine and the BFS primitives run on this one structure. Nodes
are addressed by *dense indices* ``0..n-1`` in ascending id order, so a
smaller index always means a smaller node id.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CSR:
    """``nbr[indptr[i]:indptr[i + 1]]`` are the neighbors of node ``i``."""

    ids: np.ndarray  # dense index -> node id, ascending
    indptr: np.ndarray
    nbr: np.ndarray
    deg: np.ndarray  # adjacency rows per node (the graph's degree)

    @classmethod
    def build(cls, ids: np.ndarray, src: np.ndarray, dst: np.ndarray) -> "CSR":
        """From sorted unique node ids and adjacency rows given by id."""
        ids = np.asarray(ids, dtype=np.int64)
        s = np.searchsorted(ids, src)
        d = np.searchsorted(ids, dst)
        order = np.lexsort((d, s))
        deg = np.bincount(s, minlength=len(ids))
        indptr = np.concatenate(([0], np.cumsum(deg)))
        return cls(ids, indptr, d[order], deg)

    @property
    def n(self) -> int:
        return len(self.ids)

    def index(self, node_ids) -> np.ndarray:
        """Dense indices of ``node_ids``; KeyError for an id not in the graph."""
        x = np.asarray(node_ids, dtype=np.int64)
        i = np.searchsorted(self.ids, x)
        bad = (i >= self.n) | (self.ids[np.minimum(i, self.n - 1)] != x)
        if np.any(bad):
            raise KeyError(f"node ids not in graph: {np.atleast_1d(x[bad])[:10]}")
        return i

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Neighbors of every node in ``rows`` at once.

        Returns ``(owner, nbr)``: ``nbr[j]`` is a neighbor of
        ``rows[owner[j]]``. Entries come grouped by ``owner`` in order,
        each group in ascending neighbor index.
        """
        counts = self.deg[rows]
        ends = np.cumsum(counts)
        pos = np.repeat(self.indptr[rows] - ends + counts, counts)
        pos += np.arange(len(pos))
        return np.repeat(np.arange(len(rows)), counts), self.nbr[pos]


def rank_in_group(group: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Rank of each ``key`` among the keys of its ``group`` (0 = smallest).

    ``rank < n`` keeps the n smallest keys per group: with uniform keys
    that is a uniform n-subset, and with exponential-race keys
    ``rank == 0`` is a choice weighted by the race's rates.
    """
    order = np.lexsort((key, group))
    g = group[order]
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order)) - np.searchsorted(g, g)
    return rank
