"""The capped neighbor draw as it was before rows over ``DRAW * cap``
drew slots: gather every neighbor slot, drop visited ones, give each
candidate a uniform key and keep the ``caps[j]`` smallest per row.

A reference for ``CSR.unvisited``: on rows at or under ``DRAW * cap`` the
two agree draw for draw, and over whole samplers they must agree in
distribution. ``gather_rank_keep`` has ``unvisited``'s signature, so a
test can patch it in place of the method.
"""
import numpy as np


def lexsort_rank(group, key):
    """Rank of each key within its group for any keys: a two-key lexsort,
    ties by position."""
    order = np.lexsort((key, group))
    g = group[order]
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order)) - np.searchsorted(g, g)
    return rank


def gather_rank_keep(csr, rows, visited, caps=None, rng=None):
    owner, pos = csr.slots(rows)
    nbr = csr.nbr[pos]
    keep = ~visited[nbr]
    owner, nbr = owner[keep], nbr[keep]
    if caps is not None:
        keep = lexsort_rank(owner, rng.random(len(nbr))) < caps[owner]
        owner, nbr = owner[keep], nbr[keep]
    return owner, nbr, len(pos)
