"""Spans around the calls into each layer, recorded from outside the program.

A :class:`Tracer` keeps spans in memory: name, start, end, parent span,
query id, the Spark jobs launched while the span was innermost, and
per-span counters read from the wrapped call's arguments or return value.
Job counts come from tagging each span with its own Spark job group
(``sc.setJobGroup``), restoring the parent's group on exit, and asking
``statusTracker().getJobIdsForGroup`` how many jobs carried the tag.

:func:`instrument` swaps the layer functions at their import sites for
wrappers that open a span, and puts the originals back on exit. With
tracing off it installs only the sampler proxy that hands each V_S to the
output checks.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

_GROUP = "spark.jobGroup.id"
_DESC = "spark.job.description"


@dataclass
class Span:
    sid: int
    name: str
    parent: Optional[int]
    qid: int
    start: float
    end: float = 0.0
    jobs: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.qid = -1  # -1 = set-up and warm-up, >= 0 = timed query index
        self._stack: list[int] = []
        self._sc = None

    def attach(self, sc) -> None:
        """Start counting Spark jobs per span on ``sc``."""
        self._sc = sc

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        sc = self._sc
        sp = Span(
            len(self.spans), name, self._stack[-1] if self._stack else None,
            self.qid, 0.0, attrs=dict(attrs),
        )
        self.spans.append(sp)
        self._stack.append(sp.sid)
        if sc is not None:
            saved = (sc.getLocalProperty(_GROUP), sc.getLocalProperty(_DESC))
            group = f"perfbench-{sp.sid}"
            sc.setJobGroup(group, name)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            if sc is not None:
                sp.jobs = len(sc.statusTracker().getJobIdsForGroup(group))
                sc.setLocalProperty(_GROUP, saved[0])
                sc.setLocalProperty(_DESC, saved[1])
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, record=None) -> Callable:
        """``fn`` inside a span; ``record(span, result)`` copies counters
        from the result onto the span."""

        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                if record is not None:
                    record(sp, out)
                return out

        return traced

    def to_json(self) -> list[dict]:
        return [
            {
                "sid": s.sid, "name": s.name, "parent": s.parent, "qid": s.qid,
                "start": s.start, "end": s.end, "jobs": s.jobs, **s.attrs,
            }
            for s in self.spans
        ]


class _CapturingSampler:
    """Sampler proxy: hands V_S to ``sink`` and, traced, opens a span."""

    def __init__(self, sampler, tracer: Tracer, sink: list):
        self._sampler = sampler
        self._tracer = tracer
        self._sink = sink
        self.name = sampler.name

    def sample(self, ctx, budget: int, *, seed: int) -> list[int]:
        with self._tracer.span("samplers.sample", sampler=self.name, budget=budget) as sp:
            node_ids = self._sampler.sample(ctx, budget, seed=seed)
            if sp is not None:
                sp.attrs["n"] = len(node_ids)
        self._sink.append(node_ids)
        return node_ids


def _walk_counts(sp, res) -> None:
    sp.attrs.update(
        supersteps=res.supersteps, teleports=res.teleports, n=len(res.node_ids)
    )


def _instances(sp, est) -> None:
    sp.attrs["instances"] = est.n_instances


@contextmanager
def instrument(tracer: Tracer, sink: list) -> Iterator[None]:
    """Patch the layer entry points for the duration of the block.

    Each sampler V_S is appended to ``sink`` in call order. Functions are
    wrapped where the calling module imported them, so the program's own
    code runs unchanged inside the spans.
    """
    from repro.core import framework, phase, testing
    from repro.graph.property_graph import PropertyGraph
    from repro.samplers import expansion_samplers, shortest_path, walk_samplers

    get_sampler = framework.get_sampler
    patches = [
        (framework, "get_sampler",
         lambda name: _CapturingSampler(get_sampler(name), tracer, sink)),
    ]
    if tracer.enabled:
        for mod, attr, span, record in (
            (walk_samplers, "run_walk", "walk_engine.run_walk", _walk_counts),
            (phase, "run_walk", "walk_engine.run_walk", _walk_counts),
            (expansion_samplers, "expand_frontier", "bfs.expand_frontier", None),
            (shortest_path, "bfs_parents", "bfs.bfs_parents", None),
            (PropertyGraph, "induced_subgraph", "property_graph.induced_subgraph", None),
            (framework, "run_test", "testing.run_test", None),
            (testing, "estimate", "estimator.estimate", _instances),
        ):
            patches.append((mod, attr, tracer.wrap(span, getattr(mod, attr), record)))
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    for mod, attr, new in patches:
        setattr(mod, attr, new)
    try:
        yield
    finally:
        for mod, attr, old in saved:
            setattr(mod, attr, old)
