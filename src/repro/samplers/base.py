"""The sampler registry: one table ``name -> Sampler(name, sample)``.

``sample(ctx, budget, *, seed)`` takes the shared
:class:`~repro.graph.walk_engine.WalkContext` (the graph, its driver-side
CSR and the hypothesis flags, which hypothesis-agnostic samplers ignore),
a budget and a seed, and returns V_S, a list of at most ``budget``
distinct node ids (RES counts its budget in edges, per §2.3). Each
sampler is a setting of one kernel: a walk configuration
(``run_walk``), a BFS expansion with a cap rule (``expand_frontier``),
shortest paths (``bfs_parents``), a seeded numpy draw over the CSR
(RNS, DBS) or, for RES alone, a one-job Spark draw.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

SampleFn = Callable[..., list[int]]


class Sampler(NamedTuple):
    """A registered sampler; ``name`` matches the paper's label."""

    name: str
    sample: SampleFn


SAMPLERS: dict[str, Sampler] = {}


def register(name: str) -> Callable[[SampleFn], SampleFn]:
    """Decorator: add ``sample`` to the registry under ``name``."""

    def add(sample: SampleFn) -> SampleFn:
        SAMPLERS[name] = Sampler(name, sample)
        return sample

    return add


def get_sampler(name: str) -> Sampler:
    if name not in SAMPLERS:
        raise KeyError(f"unknown sampler {name!r}; known: {sorted(SAMPLERS)}")
    return SAMPLERS[name]
