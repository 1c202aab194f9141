"""Tests for the BFS substrate used by SBS, FFS, and ShortestPathS."""
import numpy as np
import pandas as pd
import pytest

from repro.graph.bfs import backtrack, bfs_parents, expand_frontier
from repro.graph.property_graph import PropertyGraph
from repro.graph.walk_engine import WalkContext


@pytest.fixture(scope="module")
def path_csr(spark):
    """A 6-node path 1-2-3-4-5-6 (undirected via adjacency), as a CSR."""
    nodes = pd.DataFrame({"id": [1, 2, 3, 4, 5, 6]})
    edges = pd.DataFrame({"src": [1, 2, 3, 4, 5], "dst": [2, 3, 4, 5, 6]})
    g = PropertyGraph.from_tables(spark, {"t": nodes}, {"e": edges})
    yield WalkContext(spark, g).csr
    g.unpersist()


@pytest.fixture(scope="module")
def toy_csr(spark, toy_graph):
    return WalkContext(spark, toy_graph).csr


class TestExpandFrontier:
    def test_basic_level(self, path_csr):
        rows = expand_frontier(path_csr, [3], [3])
        assert {r["dst"] for r in rows} == {2, 4}

    def test_visited_excluded(self, path_csr):
        rows = expand_frontier(path_csr, [3], [2, 3])
        assert {r["dst"] for r in rows} == {4}

    def test_empty_frontier(self, path_csr):
        assert expand_frontier(path_csr, [], [1]) == []

    def test_per_parent_cap(self, toy_csr):
        # Node 1 has neighbors {3, 4}; cap at 1 keeps exactly one.
        rows = expand_frontier(
            toy_csr, [1], [1], per_parent_cap={1: 1}, rng=np.random.default_rng(0)
        )
        assert len(rows) == 1
        assert rows[0]["dst"] in (3, 4)

    def test_cap_zero_burns_nothing(self, toy_csr):
        rows = expand_frontier(
            toy_csr, [1], [1], per_parent_cap={1: 0}, rng=np.random.default_rng(0)
        )
        assert rows == []


class TestBfsParents:
    def test_parent_chain_on_path_graph(self, path_csr):
        parents = bfs_parents(path_csr, [1], max_depth=5)
        path = backtrack(parents[1], 1, 6)
        assert path == [1, 2, 3, 4, 5, 6]

    def test_depth_cap(self, path_csr):
        parents = bfs_parents(path_csr, [1], max_depth=2)
        assert 3 in parents[1]
        assert 6 not in parents[1]  # distance 5 > cap

    def test_multi_source(self, path_csr):
        parents = bfs_parents(path_csr, [1, 6], max_depth=3)
        assert backtrack(parents[1], 1, 4) == [1, 2, 3, 4]
        assert backtrack(parents[6], 6, 3) == [6, 5, 4, 3]

    def test_unreachable_returns_none(self, path_csr):
        parents = bfs_parents(path_csr, [1], max_depth=1)
        assert backtrack(parents[1], 1, 6) is None

    def test_source_reaches_itself(self, path_csr):
        parents = bfs_parents(path_csr, [4], max_depth=1)
        assert backtrack(parents[4], 4, 4) == [4]


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


def test_bfs_parents_matches_reference(spark, dblp):
    ctx = WalkContext(spark, dblp.graph)
    adj = dblp.graph.adjacency.select("src", "dst").toPandas()
    rows = list(zip(adj["src"].tolist(), adj["dst"].tolist()))
    roots = [int(x) for x in np.random.default_rng(3).choice(ctx.node_ids, 8)]
    parents = bfs_parents(ctx.csr, roots, max_depth=3)
    for r in roots:
        assert parents[r] == _reference_parents(rows, r, 3)
