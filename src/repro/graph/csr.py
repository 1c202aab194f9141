"""Driver-side compressed sparse row (CSR) view of the symmetric adjacency.

The walk engine, the BFS primitives and the estimator run on this one
structure: the walks and BFS on the whole adjacency, the estimator on one
filtered CSR per hypothesis path step. Nodes are addressed by *dense
indices* ``0..n-1`` in ascending id order, so a smaller index always means
a smaller node id.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# A capped row of degree above DRAW times its cap draws that many slots
# instead of reading its whole slice: O(cap) per row, Algorithm 2's
# examination of n random neighbors as the paper costs it.
DRAW = 3


@dataclass(frozen=True)
class CSR:
    """``nbr[indptr[i]:indptr[i + 1]]`` are the neighbors of node ``i``."""

    ids: np.ndarray  # dense index -> node id, ascending
    indptr: np.ndarray
    nbr: np.ndarray
    deg: np.ndarray  # adjacency rows per node (the graph's degree)
    val: Optional[np.ndarray] = None  # one value per slot of ``nbr``

    @classmethod
    def build(
        cls,
        ids: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        val: Optional[np.ndarray] = None,
    ) -> "CSR":
        """From sorted unique node ids and adjacency rows given by id;
        ``val`` carries one value per row into :attr:`val`."""
        ids = np.asarray(ids, dtype=np.int64)
        s = np.searchsorted(ids, src)
        d = np.searchsorted(ids, dst)
        # One stable sort of a combined key: the order of lexsort((d, s)),
        # in about half the time.
        order = np.argsort(s * len(ids) + d, kind="stable")
        deg = np.bincount(s, minlength=len(ids))
        indptr = np.concatenate(([0], np.cumsum(deg)))
        return cls(ids, indptr, d[order], deg,
                   None if val is None else np.asarray(val)[order])

    def select(self, keep: np.ndarray, val: Optional[np.ndarray] = None) -> "CSR":
        """The CSR of the slots where ``keep`` holds, each row's slots in
        their order here; ``val`` gives one value per slot here into
        :attr:`val`. Over :meth:`build`'s output this is what ``build``
        gives on the kept rows alone, with no sort."""
        kept = np.concatenate(([0], np.cumsum(keep)))
        indptr = kept[self.indptr]
        return CSR(self.ids, indptr, self.nbr[keep], np.diff(indptr),
                   None if val is None else np.asarray(val)[keep])

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

    def slots(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Slot positions of the neighbor lists of every node in ``rows``.

        Returns ``(owner, pos)``: ``nbr[pos[j]]`` (and ``val[pos[j]]``)
        belongs to ``rows[owner[j]]``. Entries come grouped by ``owner``
        in order, each group in ascending neighbor index.
        """
        counts = self.deg[rows]
        ends = np.cumsum(counts)
        pos = np.repeat(self.indptr[rows] - ends + counts, counts)
        pos += np.arange(len(pos))
        return np.repeat(np.arange(len(rows)), counts), pos

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Neighbors of every node in ``rows`` at once: ``(owner, nbr)``,
        ordered as :meth:`slots`."""
        owner, pos = self.slots(rows)
        return owner, self.nbr[pos]

    def unvisited(
        self,
        rows: np.ndarray,
        visited: np.ndarray,
        caps: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Neighbors of ``rows`` outside the ``visited`` bitmap, as
        ``(owner, nbr, examined)``: ``nbr[j]`` belongs to ``rows[owner[j]]``,
        each owner's neighbors one contiguous run, owners ascending, and
        ``examined`` counts the neighbor slots read.

        Without ``caps`` every row reads its whole slice, its neighbors in
        ascending index, and nothing is drawn. With ``caps``, row ``j``
        keeps at most ``caps[j]`` of them, a uniform subset drawn with
        ``rng`` (Algorithm 2's n-cap, the SBS fan-out, the FFS burn count):

        - a row of degree above ``DRAW * caps[j]`` reads only that many
          slots, drawn with replacement, and keeps the first ``caps[j]``
          distinct unvisited ones in draw order: an exchangeable sequence,
          so a uniform subset;
        - every other row, and a drawn row that found fewer than
          ``caps[j]``, reads its whole slice and gives each unvisited
          neighbor a fresh uniform key; a row over its cap keeps its
          ``caps[j]`` smallest keys, in ascending neighbor index.
        """
        examined = 0
        whole = np.ones(len(rows), dtype=bool)
        if caps is not None:
            deg = self.deg[rows]
            drawn = np.flatnonzero(deg > DRAW * caps)
            if len(drawn):
                fast, short, examined = self._draw(
                    rows, drawn, deg, visited, caps, rng
                )
                whole[drawn] = short
        rest = np.flatnonzero(whole)
        owner, pos = self.slots(rows[rest])
        examined += len(pos)
        nbr = self.nbr[pos]
        keep = ~visited[nbr]
        owner, nbr = rest[owner[keep]], nbr[keep]
        if caps is not None:
            key = rng.random(len(nbr))
            over = (np.bincount(owner, minlength=len(rows)) > caps)[owner]
            if over.any():
                keep = ~over
                o = owner[over]
                keep[over] = rank_in_group(o, key[over]) < caps[o]
                owner, nbr = owner[keep], nbr[keep]
            if len(rest) < len(rows):
                owner = np.concatenate((fast[0], owner))
                nbr = np.concatenate((fast[1], nbr))
                # Two owner-sorted runs: the stable sort merges them.
                order = np.argsort(owner, kind="stable")
                owner, nbr = owner[order], nbr[order]
        return owner, nbr, examined

    def _draw(self, rows, drawn, deg, visited, caps, rng):
        """The slot draw of :meth:`unvisited` for the rows ``rows[drawn]``:
        ``((owner, nbr), short, examined)``, where ``short`` flags the rows
        that found fewer than their cap and must read their whole slice."""
        owner = np.repeat(drawn, DRAW * caps[drawn])
        examined = len(owner)
        # floor(u * deg) < deg for every u in [0, 1) and integer deg < 2**53.
        pos = self.indptr[rows[owner]] + (
            rng.random(examined) * deg[owner]
        ).astype(np.int64)
        nbr = self.nbr[pos]
        keep = ~visited[nbr]
        owner, pos, nbr = owner[keep], pos[keep], nbr[keep]
        # The first draw of each slot per owner: two owners may be one node.
        _, first = np.unique(owner * len(self.nbr) + pos, return_index=True)
        first.sort()
        owner, nbr = owner[first], nbr[first]
        rank = np.arange(len(owner)) - np.searchsorted(owner, owner)
        found = np.bincount(owner, minlength=len(rows)) >= caps
        keep = (rank < caps[owner]) & found[owner]
        return (owner[keep], nbr[keep]), ~found[drawn], examined


def rank_in_group(group: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Rank of each ``key`` among the keys of its ``group`` (0 = smallest,
    ties by position).

    ``rank < n`` keeps the n smallest keys per group: with uniform keys
    that is a uniform n-subset.

    One stable argsort of ``group + key``, so it holds only for what
    :meth:`CSR.unvisited` passes: keys in [0, 1) and each group one
    contiguous run, the runs in ascending order. Float rounding of
    ``group + key`` is monotone, so it never reverses two keys or two
    groups; where it makes two sums equal (a key just under 1 and the next
    group's 0, or two keys of a group closer than the float spacing at
    ``group``) the stable sort keeps their positions. Keys outside [0, 1)
    (exponential keys, integers from 1 up) break the grouping.
    """
    order = np.argsort(group + key, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order)) - np.searchsorted(group, group)
    return rank


def argmin_in_group(group: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Position of the smallest ``key`` of each group, the first on ties,
    in ascending order.

    Each group must be one contiguous run of ``group``, as :meth:`CSR.gather`
    returns its owners. A segmented minimum, O(len(key)) and sort-free:
    with exponential-race keys it is a choice weighted by the race's rates.
    """
    start = np.empty(len(group), dtype=bool)
    start[:1] = True
    np.not_equal(group[1:], group[:-1], out=start[1:])
    starts = np.flatnonzero(start)
    run = np.cumsum(start) - 1
    at_min = np.flatnonzero(key == np.minimum.reduceat(key, starts)[run])
    return at_min[np.searchsorted(at_min, starts)]
