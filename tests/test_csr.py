"""Tests for ``CSR.unvisited``, the one neighbor draw of walks and BFS,
and for the per-group kernels it and the walk's race run on."""
import numpy as np
import pytest

from repro.graph.csr import CSR, DRAW, argmin_in_group, rank_in_group
from tests.reference_draw import gather_rank_keep, lexsort_rank


@pytest.fixture(scope="module")
def csr():
    """A random symmetric graph on 40 nodes with ids 100, 103, ..."""
    rng = np.random.default_rng(0)
    ids = 100 + 3 * np.arange(40)
    src, dst = rng.choice(ids, 300), rng.choice(ids, 300)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    return CSR.build(ids, np.concatenate([src, dst]), np.concatenate([dst, src]))


def test_build_orders_rows_as_a_two_key_lexsort():
    """Rows sort by (src, dst), and repeated pairs keep their input order,
    values included: the permutation of ``np.lexsort((dst, src))``."""
    rng = np.random.default_rng(3)
    ids = 100 + 3 * np.arange(30)
    src, dst = rng.choice(ids, 2000), rng.choice(ids, 2000)  # ~2 rows per pair
    val = np.arange(2000)
    g = CSR.build(ids, src, dst, val)
    s, d = np.searchsorted(ids, src), np.searchsorted(ids, dst)
    order = np.lexsort((d, s))
    assert (g.nbr == d[order]).all()
    assert (g.val == val[order]).all()
    assert (g.indptr == np.concatenate(([0], np.cumsum(np.bincount(s, minlength=30))))).all()


def _visited(csr, seed):
    return np.random.default_rng(seed).random(csr.n) < 0.4


def _unvisited_of(csr, row, visited):
    nbr = csr.nbr[csr.indptr[row]:csr.indptr[row + 1]]
    return nbr[~visited[nbr]]


def test_visited_neighbors_never_returned(csr):
    rows = np.arange(csr.n)
    visited = _visited(csr, 1)
    for caps in (None, np.full(csr.n, 3)):
        owner, nbr, _ = csr.unvisited(rows, visited, caps, np.random.default_rng(2))
        assert not visited[nbr].any()
    # Uncapped, every unvisited neighbor comes back, grouped by owner.
    owner, nbr, _ = csr.unvisited(rows, visited)
    assert (np.diff(owner) >= 0).all()
    for j in rows:
        assert (nbr[owner == j] == _unvisited_of(csr, j, visited)).all()


def test_per_row_caps_honoured(csr):
    rows = np.arange(csr.n)[::-1]  # any row order; caps[j] goes with rows[j]
    visited = _visited(csr, 3)
    caps = np.arange(csr.n) % 5
    owner, nbr, _ = csr.unvisited(rows, visited, caps, np.random.default_rng(4))
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


def _grouped(rng, groups, size, keys):
    """Random group labels in contiguous runs (some groups absent) and
    keys drawn by ``keys(rng, n)``."""
    counts = rng.integers(0, size, groups)
    group = np.repeat(np.arange(groups), counts)
    return group, keys(rng, len(group))


@pytest.mark.parametrize("keys", [
    lambda rng, n: rng.standard_exponential(n),
    lambda rng, n: rng.integers(0, 3, n),  # many ties
])
def test_argmin_in_group_is_rank_zero(keys):
    rng = np.random.default_rng(7)
    for _ in range(200):
        group, key = _grouped(rng, int(rng.integers(1, 12)), 9, keys)
        want = np.flatnonzero(lexsort_rank(group, key) == 0)
        assert (argmin_in_group(group, key) == want).all()


def test_rank_in_group_matches_lexsort_on_uniform_keys():
    # The contract rank_in_group keeps: uniform keys in [0, 1), groups in
    # contiguous ascending runs (some labels absent), as CSR.unvisited
    # passes its over-cap owners.
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 10_000:
        groups = int(np.exp(rng.uniform(0, np.log(2_000))))
        group, key = _grouped(rng, groups, 6, lambda rng, n: rng.random(n))
        if len(group):
            assert (rank_in_group(group, key) == lexsort_rank(group, key)).all()
            checked += 1


def test_argmin_in_group_empty():
    got = argmin_in_group(np.empty(0, dtype=np.int64), np.empty(0))
    assert len(got) == 0


@pytest.mark.parametrize("seed", range(6))
def test_capped_unvisited_matches_ranking_every_group(csr, seed):
    # On rows at or under DRAW * cap the draw is the full-slice reference,
    # key for key; over-cap and under-cap rows both occur here.
    rng = np.random.default_rng(seed)
    rows = rng.permutation(csr.n)[: int(rng.integers(1, csr.n))]
    visited = _visited(csr, seed + 10)
    caps = rng.integers(0, 8, len(rows))
    small = csr.deg[rows] <= DRAW * caps
    rows, caps = rows[small], caps[small]
    got = csr.unvisited(rows, visited, caps, np.random.default_rng(seed))
    want = gather_rank_keep(csr, rows, visited, caps, np.random.default_rng(seed))
    assert (got[0] == want[0]).all() and (got[1] == want[1]).all()
    assert got[2] == want[2] == csr.deg[rows].sum()


def test_capped_unvisited_draws_one_key_per_candidate(csr):
    # Cap 7 puts every row (degree <= 19) at or under DRAW * cap.
    rows, visited = np.arange(csr.n), _visited(csr, 8)
    assert (csr.deg <= DRAW * 7).all()
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    csr.unvisited(rows, visited, np.full(csr.n, 7), rng)
    ref.random(len(csr.unvisited(rows, visited)[1]))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("cap", [1, 7, 20, 45, 50])
def test_capped_unvisited_keeps_a_uniform_subset_of_a_hub(cap):
    # A star: hub 0 and 60 leaves, every fourth leaf visited, so the hub
    # has 45 unvisited neighbors. Every draw keeps min(cap, 45) of them,
    # and each leaf is kept with frequency cap / 45. Over these R = 4,000
    # seeds, caps 1, 7 and 20 came at most 2.9 binomial standard errors
    # from it on any leaf; the bound here is 4.5.
    leaves = np.arange(1, 61)
    hub = np.zeros(60, dtype=np.int64)
    star = CSR.build(np.arange(61), np.r_[hub, leaves], np.r_[leaves, hub])
    visited = np.zeros(61, dtype=bool)
    visited[1::4] = True
    pool = np.flatnonzero(~visited)[1:]
    assert len(pool) == 45 and star.deg[0] == 60
    R = 4_000
    kept = np.zeros(61)
    for r in range(R):
        owner, nbr, _ = star.unvisited(
            np.array([0]), visited, np.array([cap]), np.random.default_rng(r))
        assert len(nbr) == min(cap, 45) and (owner == 0).all()
        assert len(np.unique(nbr)) == len(nbr) and not visited[nbr].any()
        kept[nbr] += 1
    p = min(cap, 45) / 45
    se = np.sqrt(p * (1 - p) / R)
    assert np.abs(kept[pool] / R - p).max() <= 4.5 * se


def _star(deg):
    leaves = np.arange(1, deg + 1)
    hub = np.zeros(deg, dtype=np.int64)
    return CSR.build(np.arange(deg + 1), np.r_[hub, leaves], np.r_[leaves, hub])


@pytest.mark.parametrize("deg, cap, n_visited, falls_back", [
    (100, 10, 25, False),
    (100, 30, 25, False),
    (10_000, 30, 5_000, False),
    (100, 10, 60, True),  # a third of the rows find fewer than cap
    (100, 20, 70, True),  # nearly every row does
])
def test_drawn_hub_keeps_a_uniform_subset(deg, cap, n_visited, falls_back):
    # R walkers on the hub of a star whose degree is above DRAW * cap, with
    # n_visited random leaves visited. Each keeps min(cap, pool) distinct
    # unvisited leaves, and each unvisited leaf is kept with frequency
    # cap / pool, whether its row kept the draw or fell back to its whole
    # slice. Over base seeds 0-19 the largest per-leaf deviation was 4.76
    # binomial standard errors (degree 10,000), 3.65 at degree 100; the
    # bound here is 5.5.
    star = _star(deg)
    visited = np.zeros(deg + 1, dtype=bool)
    visited[1 + np.random.default_rng(0).permutation(deg)[:n_visited]] = True
    pool = np.flatnonzero(~visited)[1:]
    assert deg > DRAW * cap and len(pool) > cap
    R = 20_000
    owner, nbr, examined = star.unvisited(
        np.zeros(R, dtype=np.int64), visited, np.full(R, cap),
        np.random.default_rng(0))
    assert (np.bincount(owner, minlength=R) == cap).all()
    assert (np.diff(owner) >= 0).all() and not visited[nbr].any()
    assert (np.bincount(owner * (deg + 1) + nbr) <= 1).all()  # distinct
    # Each row reads DRAW * cap slots, plus its whole slice if it falls back.
    fell_back, rest = divmod(examined - R * DRAW * cap, deg)
    assert rest == 0 and 0 <= fell_back < R
    assert (fell_back > R // 5) == falls_back
    kept = np.bincount(nbr, minlength=deg + 1)[pool]
    p = cap / len(pool)
    se = np.sqrt(R * p * (1 - p))
    assert np.abs(kept - R * p).max() <= 5.5 * se
