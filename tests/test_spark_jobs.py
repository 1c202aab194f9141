"""The Spark-job contract of README § "Spark target": a graph's CSR costs
two Spark jobs once, a WalkContext one more (two for an edge f_P), the
test step and every sampler but RES launch none, and an RES query
launches its one sample job."""
import itertools

import pytest

from repro.core.framework import Experiment
from repro.core.testing import run_test
from repro.datasets import dblp_lite
from repro.datasets.bank import bank
from repro.graph.walk_engine import WalkContext

_groups = itertools.count()


def _jobs(spark, fn):
    """``(jobs, result)``: the Spark jobs that ``fn()`` launched, counted
    through a job group of its own, and what it returned."""
    sc = spark.sparkContext
    group = f"job-contract-{next(_groups)}"
    sc.setJobGroup(group, group)
    try:
        out = fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    # Job events reach the status tracker through the listener bus.
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return len(sc.statusTracker().getJobIdsForGroup(group)), out


@pytest.fixture(scope="module")
def experiment(spark, dblp):
    exp = Experiment(spark, dblp.graph, bank("DBLP")["path"][0])  # DB-P1
    exp.truth()
    return exp


@pytest.fixture(scope="module")
def fresh(spark):
    """A graph generated for this module; no session fixture shares it."""
    ds = dblp_lite(spark, sf=0.05, seed=3)
    yield ds.graph
    ds.graph.unpersist()


def test_graph_csr_launches_two_jobs_once(spark):
    ds = dblp_lite(spark, sf=0.05, seed=4)
    jobs, csr = _jobs(spark, lambda: ds.graph.csr)
    assert jobs == 2
    again, same = _jobs(spark, lambda: ds.graph.csr)
    assert again == 0 and same is csr
    ds.graph.unpersist()


@pytest.mark.parametrize(
    "kind,expected", [("node", 1), ("edge", 2), ("path", 1)], ids=["node", "edge", "path"]
)
def test_context_build_jobs(spark, fresh, kind, expected):
    # DB-E1 reads an edge f_P, which takes a second collect of the edges.
    fresh.csr
    jobs, _ = _jobs(spark, lambda: WalkContext(fresh, bank("DBLP")[kind][0]))
    assert jobs == expected


def test_contexts_share_one_csr(fresh):
    node, path = (WalkContext(fresh, bank("DBLP")[k][0]) for k in ("node", "path"))
    assert node.csr is path.csr is fresh.csr


def test_run_test_launches_no_job(spark, experiment):
    ctx = experiment.context()
    vs = ctx.csr.ids[::7].tolist()
    assert _jobs(spark, lambda: run_test(ctx))[0] == 0
    assert _jobs(spark, lambda: run_test(ctx, vs))[0] == 0


@pytest.mark.parametrize(
    "sampler", ["PHASE_opt", "SRW", "SBS", "FFS", "ShortestPathS", "RNS", "DBS"]
)
def test_run_once_launches_no_job(spark, experiment, sampler):
    jobs, res = _jobs(spark, lambda: experiment.run_once(sampler, 60, seed=3))
    assert jobs == 0
    assert res.n_sampled == 60


def test_res_run_once_launches_its_sample_job(spark, experiment):
    # RES is the one query that still draws through Spark.
    jobs, res = _jobs(spark, lambda: experiment.run_once("RES", 60, seed=3))
    assert jobs == 1
    assert 0 < res.n_sampled <= 120
