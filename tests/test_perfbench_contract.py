"""The benchmark's span wrappers still see every layer of a query.

``perfbench/spans.py`` swaps the layer functions at their import sites
(``walk_samplers.run_walk``, ``phase.run_walk``,
``expansion_samplers.expand_frontier``, ``shortest_path.bfs_parents``,
``framework.get_sampler``, ``framework.run_test``, ``testing.estimate``).
A sampler that bound its kernel when its module was imported would run
outside the span, so each kernel span must sit under its own sampler's
``samplers.sample`` span.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core.framework import Experiment
from repro.samplers import get_sampler

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Sampler -> the kernel span its sample must open (None: no kernel span;
# RNS is one numpy draw, RES one Spark job).
KERNELS = {
    "PHASE_opt": "walk_engine.run_walk",
    "SRW": "walk_engine.run_walk",
    "SBS": "bfs.expand_frontier",
    "ShortestPathS": "bfs.bfs_parents",
    "RNS": None,
    "RES": None,
}
BUDGET, SEED = 3, 1


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve through it
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.fixture(scope="module")
def traced(spark, spans, toy_graph, toy_hyps):
    exp = Experiment(spark, toy_graph, toy_hyps["path"])
    tracer, sink = spans.Tracer(enabled=True), []
    with spans.instrument(tracer, sink):
        for name in KERNELS:
            exp.run_once(name, BUDGET, seed=SEED)
    expected = [
        get_sampler(name).sample(exp.context(), BUDGET, seed=SEED) for name in KERNELS
    ]
    exp.close()
    return tracer.spans, sink, expected


def test_every_layer_span_recorded(traced):
    names = {s.name for s in traced[0]}
    assert {
        "samplers.sample",
        "walk_engine.run_walk",
        "bfs.expand_frontier",
        "bfs.bfs_parents",
        "testing.run_test",
        "estimator.estimate",
    } <= names


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_span_under_its_sampler(traced, name):
    spans = traced[0]
    (outer,) = [
        s for s in spans if s.name == "samplers.sample" and s.attrs["sampler"] == name
    ]
    inner = {s.name for s in spans if s.parent == outer.sid}
    if KERNELS[name] is None:
        assert inner == set()
    else:
        assert KERNELS[name] in inner


def test_sink_receives_each_sample(traced):
    _, sink, expected = traced
    assert [sorted(v) for v in sink] == [sorted(v) for v in expected]
