"""The Spark-job contract of README § "Spark target": a WalkContext build
launches two Spark jobs, and the test step and the walk and BFS samplers
launch none."""
import itertools

import pytest

from repro.core.framework import Experiment
from repro.core.testing import run_test
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


@pytest.mark.parametrize("kind", ["node", "edge", "path"])
def test_context_build_launches_two_jobs(spark, dblp, kind):
    # DB-E1 reads an edge f_P, so the adjacency collect carries it.
    jobs, _ = _jobs(spark, lambda: WalkContext(dblp.graph, bank("DBLP")[kind][0]))
    assert jobs == 2


def test_run_test_launches_no_job(spark, experiment):
    ctx = experiment.context()
    vs = ctx.csr.ids[::7].tolist()
    assert _jobs(spark, lambda: run_test(ctx))[0] == 0
    assert _jobs(spark, lambda: run_test(ctx, vs))[0] == 0


@pytest.mark.parametrize("sampler", ["PHASE_opt", "SRW", "SBS", "FFS", "ShortestPathS"])
def test_run_once_launches_no_job(spark, experiment, sampler):
    jobs, res = _jobs(spark, lambda: experiment.run_once(sampler, 60, seed=3))
    assert jobs == 0
    assert res.n_sampled == 60
