"""Tests for the BFS substrate used by SBS, FFS, and ShortestPathS."""
import numpy as np
import pandas as pd
import pytest

from repro.graph.bfs import backtrack, bfs_parents, expand_frontier
from repro.graph.csr import CSR
from repro.graph.property_graph import PropertyGraph


def _adjacency(graph):
    """``(src, dst)`` of ``graph``'s symmetric adjacency: every stored
    edge in both directions."""
    e = graph.edges.select("src", "dst").toPandas()
    src, dst = e["src"].to_numpy(), e["dst"].to_numpy()
    return np.concatenate((src, dst)), np.concatenate((dst, src))


def _csr(graph):
    """The CSR of ``graph``'s symmetric adjacency."""
    ids = np.sort(graph.nodes.select("id").toPandas()["id"].to_numpy())
    return CSR.build(ids, *_adjacency(graph))


@pytest.fixture(scope="module")
def path_csr(spark):
    """A 6-node path 1-2-3-4-5-6 (undirected: edges read both ways), as a CSR."""
    nodes = pd.DataFrame({"id": [1, 2, 3, 4, 5, 6]})
    edges = pd.DataFrame({"src": [1, 2, 3, 4, 5], "dst": [2, 3, 4, 5, 6]})
    g = PropertyGraph.from_tables(spark, {"t": nodes}, {"e": edges})
    yield _csr(g)
    g.unpersist()


@pytest.fixture(scope="module")
def toy_csr(toy_graph):
    return _csr(toy_graph)


def _expand(csr, frontier, visited, caps, seed=0):
    """``expand_frontier`` called with node ids; returns the new ids."""
    bitmap = np.zeros(csr.n, dtype=bool)
    bitmap[csr.index(visited)] = True
    new = expand_frontier(
        csr, csr.index(frontier), bitmap, np.asarray(caps), np.random.default_rng(seed)
    )
    return csr.ids[new].tolist()


def _parent_ids(csr, parent):
    """A ``bfs_parents`` array as ``{node id: parent id}``."""
    reached = np.flatnonzero(parent >= 0)
    return dict(zip(csr.ids[reached].tolist(), csr.ids[parent[reached]].tolist()))


def _path(csr, root, target, max_depth):
    """``backtrack`` from ``root`` to ``target``, in node ids."""
    parent = bfs_parents(csr, csr.index(root), max_depth=max_depth)
    path = backtrack(parent, csr.index(target))
    return None if path is None else csr.ids[path].tolist()


NO_CAP = 10**9


class TestExpandFrontier:
    def test_basic_level(self, path_csr):
        assert set(_expand(path_csr, [3], [3], [NO_CAP])) == {2, 4}

    def test_visited_excluded(self, path_csr):
        assert set(_expand(path_csr, [3], [2, 3], [NO_CAP])) == {4}

    def test_empty_frontier(self, path_csr):
        assert _expand(path_csr, [], [1], []) == []

    def test_new_indices_ascending(self, path_csr):
        new = _expand(path_csr, [5, 2], [2, 5], [NO_CAP, NO_CAP])
        assert new == [1, 3, 4, 6]

    def test_per_parent_cap(self, toy_csr):
        # Node 1 has neighbors {3, 4}; cap at 1 keeps exactly one.
        new = _expand(toy_csr, [1], [1], [1])
        assert len(new) == 1
        assert new[0] in (3, 4)

    def test_cap_zero_burns_nothing(self, toy_csr):
        assert _expand(toy_csr, [1], [1], [0]) == []

    def test_caps_follow_unsorted_frontier(self, toy_csr):
        # FFS hands caps in frontier order; the frontier need not be
        # sorted. Node 2 (neighbors {4, 5}) may burn both, node 1
        # (neighbors {3, 4}) none, so only 4 and 5 can burn.
        new = _expand(toy_csr, [2, 1], [1, 2], [2, 0])
        assert new == [4, 5]
        new = _expand(toy_csr, [2, 1], [1, 2], [0, 2])
        assert new == [3, 4]


class TestBfsParents:
    def test_parent_chain_on_path_graph(self, path_csr):
        assert _path(path_csr, 1, 6, max_depth=5) == [1, 2, 3, 4, 5, 6]

    def test_depth_cap(self, path_csr):
        parents = _parent_ids(path_csr, bfs_parents(path_csr, path_csr.index(1), max_depth=2))
        assert 3 in parents
        assert 6 not in parents  # distance 5 > cap

    def test_multi_source(self, path_csr):
        assert _path(path_csr, 1, 4, max_depth=3) == [1, 2, 3, 4]
        assert _path(path_csr, 6, 3, max_depth=3) == [6, 5, 4, 3]

    def test_unreachable_returns_none(self, path_csr):
        assert _path(path_csr, 1, 6, max_depth=1) is None

    def test_source_reaches_itself(self, path_csr):
        assert _path(path_csr, 4, 4, max_depth=1) == [4]


def _reference_parents(adj_rows, root, max_depth):
    """Level-by-level BFS in plain Python: parent = smallest-id neighbor
    on the previous level."""
    nbrs: dict[int, set[int]] = {}
    for s, d in adj_rows:
        nbrs.setdefault(s, set()).add(d)
    par = {root: root}
    level = [root]
    for _ in range(max_depth):
        nxt: dict[int, int] = {}
        for u in level:
            for v in nbrs.get(u, ()):
                if v not in par:
                    nxt[v] = min(nxt.get(v, u), u)
        par.update(nxt)
        level = list(nxt)
    return par


def test_bfs_parents_matches_reference(dblp):
    csr = _csr(dblp.graph)
    rows = list(zip(*(a.tolist() for a in _adjacency(dblp.graph))))
    roots = [int(x) for x in np.random.default_rng(3).choice(csr.ids, 8)]
    for r in roots:
        parent = bfs_parents(csr, csr.index(r), max_depth=3)
        assert _parent_ids(csr, parent) == _reference_parents(rows, r, 3)
