"""Tests for ``CSR.unvisited``, the one neighbor draw of walks and BFS."""
import numpy as np
import pytest

from repro.graph.csr import CSR


@pytest.fixture(scope="module")
def csr():
    """A random symmetric graph on 40 nodes with ids 100, 103, ..."""
    rng = np.random.default_rng(0)
    ids = 100 + 3 * np.arange(40)
    src, dst = rng.choice(ids, 300), rng.choice(ids, 300)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    return CSR.build(ids, np.concatenate([src, dst]), np.concatenate([dst, src]))


def _visited(csr, seed):
    return np.random.default_rng(seed).random(csr.n) < 0.4


def _unvisited_of(csr, row, visited):
    nbr = csr.nbr[csr.indptr[row]:csr.indptr[row + 1]]
    return nbr[~visited[nbr]]


def test_visited_neighbors_never_returned(csr):
    rows = np.arange(csr.n)
    visited = _visited(csr, 1)
    for caps in (None, np.full(csr.n, 3)):
        owner, nbr = csr.unvisited(rows, visited, caps, np.random.default_rng(2))
        assert not visited[nbr].any()
    # Uncapped, every unvisited neighbor comes back, grouped by owner.
    owner, nbr = csr.unvisited(rows, visited)
    assert (np.diff(owner) >= 0).all()
    for j in rows:
        assert (nbr[owner == j] == _unvisited_of(csr, j, visited)).all()


def test_per_row_caps_honoured(csr):
    rows = np.arange(csr.n)[::-1]  # any row order; caps[j] goes with rows[j]
    visited = _visited(csr, 3)
    caps = np.arange(csr.n) % 5
    owner, nbr = csr.unvisited(rows, visited, caps, np.random.default_rng(4))
    for j, row in enumerate(rows):
        mine = nbr[owner == j]
        pool = _unvisited_of(csr, row, visited)
        assert len(mine) == min(caps[j], len(pool))
        assert set(mine) <= set(pool)


def test_no_caps_draws_nothing(csr):
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    csr.unvisited(np.arange(csr.n), _visited(csr, 6), None, rng)
    assert rng.bit_generator.state == before
