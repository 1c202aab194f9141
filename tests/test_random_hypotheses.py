"""The estimator against SQL compiled from the hypothesis, over random
hypotheses.

A seeded generator draws valid hypotheses over a dataset's schema: paths
of length 0-4 whose steps run forward or ``_inv`` at any position,
modifiers whose predicates compare an attribute with a value present in
its table, f_P a numeric node or edge attribute at any position (or
none, counted), and all five aggregates. The schemas repeat node types
(movie and user on MovieLens, paper on DBLP's Cite), so the simple-path
rule is exercised. Each hypothesis is checked on G and on the subgraph
induced on a random node subset, through ``estimate_sql`` and ``Oracle``
of ``perfbench/checks.py``: DuckDB over the generator's flat tables, one
join per step on the stored edge table.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.hypothesis import (
    Agg,
    AttrRef,
    Hypothesis,
    Modifier,
    Op,
    Predicate,
    path_hypothesis,
)
from repro.core.testing import run_test
from repro.graph.property_graph import INV_SUFFIX
from repro.graph.walk_engine import WalkContext

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"

# Hypotheses per dataset fixture, each checked on G and on one subset.
PER_DATASET = 40
FIXTURES = ("ml", "dblp", "yelp")
# A drawn hypothesis with more walks than this from its start nodes, at
# any position, is drawn again: the estimator and the SQL both enumerate
# every partial instance, and an unconstrained length-4 path on the dense
# MovieLens fixture has ~1e9.
MAX_WALKS = 200_000
NUMERIC_OPS = (">", ">=", "<", "<=", "==", "!=")


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def _numeric(df) -> list[str]:
    return [c for c in df.columns if df[c].dtype.kind in "iuf"]


class Schema:
    """Node types with their attribute columns, and the moves a path can
    make from each node type: ``(relation, next type)``, a stored edge
    type forward or its ``_inv`` backward."""

    def __init__(self, node_tables, edge_tables):
        self.node_tables = node_tables
        self.edge_tables = edge_tables
        type_of = {
            int(i): t for t, df in node_tables.items() for i in df["id"]
        }
        self.moves = {t: [] for t in node_tables}
        for r, df in edge_tables.items():
            src, dst = type_of[int(df["src"].iloc[0])], type_of[int(df["dst"].iloc[0])]
            self.moves[src].append((r, dst))
            self.moves[dst].append((r + INV_SUFFIX, src))


def _modifier(rng, schema: Schema, ntype: str) -> Modifier:
    """``ntype`` with 0-2 predicates on values present in its table."""
    df = schema.node_tables[ntype]
    cols = [c for c in df.columns if c != "id"]
    preds = []
    for _ in range(rng.choice(3, p=[0.4, 0.4, 0.2]) if cols else 0):
        col = cols[rng.integers(len(cols))]
        value = df[col].iloc[rng.integers(len(df))]
        if col in _numeric(df):
            op = NUMERIC_OPS[rng.integers(len(NUMERIC_OPS))]
            preds.append(Predicate(col, op, float(value), numeric=True))
        else:
            preds.append(Predicate(col, ("==", "!=")[rng.integers(2)], str(value)))
    return Modifier(ntype, tuple(preds))


def random_hypothesis(rng: np.random.Generator, schema: Schema, name: str) -> Hypothesis:
    """A valid hypothesis over ``schema``, drawn with ``rng``."""
    types = list(schema.node_tables)
    ntypes = [types[rng.integers(len(types))]]
    etypes = []
    for _ in range(rng.integers(5)):
        moves = schema.moves[ntypes[-1]]
        r, nxt = moves[rng.integers(len(moves))]
        etypes.append(r)
        ntypes.append(nxt)
    # Every (kind, position, attribute) f_P can take on this path.
    subjects = [
        ("node", i, c) for i, t in enumerate(ntypes)
        for c in _numeric(schema.node_tables[t]) if c != "id"
    ] + [
        ("edge", i, c) for i, r in enumerate(etypes)
        for c in _numeric(schema.edge_tables[r.removesuffix(INV_SUFFIX)])
        if c not in ("src", "dst")
    ]
    agg = list(Agg)[rng.integers(len(Agg))]
    if agg is Agg.COUNT and rng.random() < 0.5 or not subjects:
        f = AttrRef("node", int(rng.integers(len(ntypes))), None)
        agg = Agg.COUNT
    else:
        f = AttrRef(*subjects[rng.integers(len(subjects))])
    mods = [_modifier(rng, schema, t) for t in ntypes]
    return path_hypothesis(name, mods, etypes, f, agg, Op.GT, 0.0)


def _walks(ctx: WalkContext) -> float:
    """The most walks from the start nodes along the step CSRs at any
    position: at least the partial instances the estimator, or the
    compiled SQL joined in path order, holds at any hop."""
    c = ctx.start.astype(float)
    most = c.sum()
    for step in ctx.steps:
        c = np.bincount(step.nbr, weights=np.repeat(c, step.deg), minlength=step.n)
        most = max(most, c.sum())
    return most


@pytest.fixture(scope="module")
def oracles(request, checks):
    made = {}

    def get(fixture):
        if fixture not in made:
            ds = request.getfixturevalue(fixture)
            oracle = checks.Oracle(ds.node_tables, ds.edge_tables)
            # DuckDB's join-order optimizer turns the simple-path predicates
            # n_i.id <> n_j.id into nested-loop joins, which on a length-4
            # path over the DBLP fixture outgrow 2 GB. Joined in path order
            # the same query takes milliseconds.
            oracle.con.execute("SET disabled_optimizers = 'join_order'")
            made[fixture] = (ds, oracle)
        return made[fixture]

    yield get
    for _, oracle in made.values():
        oracle.close()


@pytest.mark.parametrize("fixture", FIXTURES)
def test_random_hypotheses_match_compiled_sql(oracles, fixture):
    ds, oracle = oracles(fixture)
    schema = Schema(ds.node_tables, ds.edge_tables)
    rng = np.random.default_rng(FIXTURES.index(fixture))
    errors, found = [], 0
    for k in range(PER_DATASET):
        while True:
            hyp = random_hypothesis(rng, schema, f"{fixture}-{k}")
            ctx = WalkContext(ds.graph, hyp)
            if _walks(ctx) <= MAX_WALKS:
                break
        truth = run_test(ctx)
        found += truth.estimate.n_instances > 0
        errors += [f"{e} on G: {hyp}" for e in oracle.check_truth(hyp, truth)]
        ids = ctx.csr.ids
        vs = ids[rng.random(len(ids)) < rng.uniform(0.2, 0.8)].tolist()
        errors += [
            f"{e} on S: {hyp}"
            for e in oracle.check_sample(
                hyp, run_test(ctx, vs), vs, len(vs), "nodes", len(vs)
            )
        ]
    assert not errors, "\n".join(errors)
    # The check means little if most draws hold no instance in G.
    assert found >= PER_DATASET // 2
