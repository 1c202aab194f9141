"""Shared fixtures: the session's Spark, tiny datasets, a hand-checkable
toy graph, and once-per-session sampler runs reused by many invariant
tests."""
from __future__ import annotations

import pandas as pd
import pytest

from jobs.common import get_spark
from repro.core.hypothesis import (
    Agg,
    AttrRef,
    Modifier,
    Op,
    Predicate,
    path_hypothesis,
)
from repro.datasets import dblp_lite, movielens_lite, yelp_lite
from repro.graph.property_graph import PropertyGraph
from repro.graph.walk_engine import WalkContext
from repro.samplers import SAMPLERS, get_sampler


# The session Spark's settings, for the terminal summary: pytest captures
# what a fixture prints, so a line printed there reaches no passing run.
_SESSION_LINE = []


@pytest.fixture(scope="session")
def spark():
    """The jobs' own session, so the tests run the JVM the jobs run."""
    s = get_spark("repro")
    sc = s.sparkContext
    _SESSION_LINE.append(
        f"[conftest] spark.driver.memory={sc.getConf().get('spark.driver.memory')} "
        f"master={sc.master} defaultParallelism={sc.defaultParallelism} "
        "spark.python.sql.dataFrameDebugging.enabled="
        f"{s.conf.get('spark.python.sql.dataFrameDebugging.enabled')}"
    )
    yield s
    s.stop()


def pytest_terminal_summary(terminalreporter):
    for line in _SESSION_LINE:
        terminalreporter.write_line(line)


# ---------------------------------------------------------------------
# Toy graph: 2 'a' nodes, 3 'b' nodes, 4 'r' edges — all values checkable
# by hand. See tests/test_estimator_oracle.py for the arithmetic.
# ---------------------------------------------------------------------
TOY_A = pd.DataFrame({"id": [1, 2], "x": [10.0, 20.0]})
TOY_B = pd.DataFrame({"id": [3, 4, 5], "y": [1.0, 2.0, 3.0], "flag": ["on", "off", "on"]})
TOY_R = pd.DataFrame(
    {"src": [1, 1, 2, 2], "dst": [3, 4, 4, 5], "w": [0.5, 1.5, 2.5, 3.5]}
)


@pytest.fixture(scope="session")
def toy_graph(spark) -> PropertyGraph:
    g = PropertyGraph.from_tables(
        spark, {"a": TOY_A, "b": TOY_B}, {"r": TOY_R}
    )
    yield g
    g.unpersist()


@pytest.fixture(scope="session")
def context():
    """``context(graph, hyp)``: the WalkContext that the estimator and the
    test step read ``hyp``'s projection of ``graph`` from."""
    return WalkContext


@pytest.fixture(scope="session")
def toy_hyps() -> dict:
    """node / edge / path hypotheses over the toy graph."""
    a_any = Modifier("a")
    b_any = Modifier("b")
    b_on = Modifier("b", (Predicate("flag", "==", "on"),))
    return {
        "node": path_hypothesis(
            "toy-node", [a_any], [], AttrRef("node", 0, "x"), Agg.AVG, Op.GT, 12.0
        ),
        "edge": path_hypothesis(
            "toy-edge", [a_any, b_on], ["r"], AttrRef("edge", 0, "w"),
            Agg.AVG, Op.GT, 1.0,
        ),
        "path": path_hypothesis(
            "toy-path", [b_any, a_any, b_any], ["r_inv", "r"],
            AttrRef("node", 2, "y"), Agg.AVG, Op.GT, 1.5,
        ),
    }


# ---------------------------------------------------------------------
# Tiny datasets (session-scoped; each builds in a few seconds)
# ---------------------------------------------------------------------
@pytest.fixture(scope="session")
def ml(spark):
    ds = movielens_lite(spark, sf=0.3, seed=11)
    yield ds
    ds.graph.unpersist()


@pytest.fixture(scope="session")
def dblp(spark):
    ds = dblp_lite(spark, sf=0.2, seed=7)
    yield ds
    ds.graph.unpersist()


@pytest.fixture(scope="session")
def yelp(spark):
    ds = yelp_lite(spark, sf=0.2, seed=13)
    yield ds
    ds.graph.unpersist()


# ---------------------------------------------------------------------
# One sampler run per registered sampler, shared by all invariant tests.
# ---------------------------------------------------------------------
SAMPLE_BUDGET = 30
SAMPLE_SEED = 42


@pytest.fixture(scope="session")
def ml_edge_ctx(ml):
    from repro.datasets.bank import bank

    hyp = bank("MovieLens")["edge"][0]  # ML-E1
    return WalkContext(ml.graph, hyp)


@pytest.fixture(scope="session")
def sampler_runs(ml_edge_ctx) -> dict[str, list[int]]:
    """{sampler name: V_S} for every registered sampler, one run each."""
    out = {}
    for name in sorted(SAMPLERS):
        out[name] = get_sampler(name).sample(
            ml_edge_ctx, SAMPLE_BUDGET, seed=SAMPLE_SEED
        )
    return out
