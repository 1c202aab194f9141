"""Sampler protocol and registry.

A sampler takes the shared :class:`~repro.graph.walk_engine.WalkContext`
(which carries the graph, its driver-side CSR, and the hypothesis
flags — hypothesis-agnostic samplers simply ignore the flags), a
budget, and a seed, and returns the sampled node set ``V_S``.
The framework materializes the induced subgraph ``S`` from it.
"""
from __future__ import annotations

from typing import Callable, Protocol

from repro.graph.walk_engine import WalkContext


class Sampler(Protocol):
    """Uniform sampler interface; ``name`` matches the paper's label."""

    name: str

    def sample(self, ctx: WalkContext, budget: int, *, seed: int) -> list[int]:
        """Return V_S, a list of at most ``budget`` distinct node ids
        (RES interprets the budget in edges, per §2.3)."""
        ...


SAMPLERS: dict[str, Callable[[], Sampler]] = {}


def register(factory: Callable[[], Sampler]) -> Callable[[], Sampler]:
    """Class decorator: add a sampler class to the registry by its
    ``name`` attribute."""
    SAMPLERS[factory().name] = factory
    return factory


def get_sampler(name: str) -> Sampler:
    if name not in SAMPLERS:
        raise KeyError(f"unknown sampler {name!r}; known: {sorted(SAMPLERS)}")
    return SAMPLERS[name]()
