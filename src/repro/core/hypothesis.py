"""Hypotheses on attributed graphs (paper §2.2).

A path hypothesis (Def. 3) is ``P_c^o( agg( f_P | M_{t_i} ∀ t_i on P ) )``:

- a *path* ``t_1 -r_1-> t_2 ... -r_l-> t_{l+1}`` of node types joined by
  edge types (edge types may be inverse relations, suffixed ``_inv``);
- a *modifier* ``M_{t_i}`` per node position: a conjunction of attribute
  predicates the node at that position must satisfy;
- ``f_P``: a numeric attribute of one node or edge on the path;
- ``agg`` in {avg, sum, count, min, max};
- a comparison ``o`` in {>, <, =, <>} against the constant ``c``.

Node and edge hypotheses are path hypotheses with l = 0 and l = 1.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from pyspark.sql import Column
from pyspark.sql import functions as F


class Agg(enum.Enum):
    """Aggregation function applied to f_P over relevant instances."""

    AVG = "avg"
    SUM = "sum"
    COUNT = "count"
    MIN = "min"
    MAX = "max"


class Op(enum.Enum):
    """Comparison operator ``o`` of the predicate P_c^o."""

    GT = ">"
    LT = "<"
    EQ = "="
    NE = "<>"

    def apply(self, value: float, c: float) -> bool:
        if self is Op.GT:
            return value > c
        if self is Op.LT:
            return value < c
        if self is Op.EQ:
            return value == c
        return value != c

    @property
    def alternative(self) -> str:
        """The matching t-test alternative."""
        return {"GT": "greater", "LT": "less", "EQ": "two-sided", "NE": "two-sided"}[
            self.name
        ]


@dataclass(frozen=True)
class Predicate:
    """A single attribute predicate, e.g. ``venue_type == 'conference'``
    or ``year >= 2000``. ``numeric=True`` casts the attribute to double
    before comparing."""

    attr: str
    op: str  # one of ==, !=, >, >=, <, <=
    value: object
    numeric: bool = False

    def to_column(self, attrs_col: Column) -> Column:
        import operator

        ops = {
            "==": operator.eq,
            "!=": operator.ne,
            ">": operator.gt,
            ">=": operator.ge,
            "<": operator.lt,
            "<=": operator.le,
        }
        if self.op not in ops:
            raise ValueError(f"unknown predicate op {self.op!r}")
        v = attrs_col.getItem(self.attr)
        if self.numeric:
            v = v.cast("double")
            lit = F.lit(float(self.value))
        else:
            lit = F.lit(str(self.value))
        return ops[self.op](v, lit)

    def eval(self, attrs: dict) -> bool:
        """Pure-Python evaluation (used by tests/oracle helpers)."""
        raw = attrs.get(self.attr)
        if raw is None:
            return False
        a = float(raw) if self.numeric else str(raw)
        b = float(self.value) if self.numeric else str(self.value)
        return {
            "==": a == b,
            "!=": a != b,
            ">": a > b,
            ">=": a >= b,
            "<": a < b,
            "<=": a <= b,
        }[self.op]


@dataclass(frozen=True)
class Modifier:
    """Node-position modifier: node type + conjunction of predicates.

    An empty predicate list means "any node of this type" (the paper's
    ``paper[]``).
    """

    ntype: str
    predicates: tuple[Predicate, ...] = ()

    def to_column(self, ntype_col: Column, attrs_col: Column) -> Column:
        cond = ntype_col == F.lit(self.ntype)
        for p in self.predicates:
            cond = cond & p.to_column(attrs_col)
        return cond


@dataclass(frozen=True)
class PathStep:
    """One hop of the path: edge type ``etype`` leading into the node
    constrained by ``modifier``."""

    etype: str
    modifier: Modifier


@dataclass(frozen=True)
class AttrRef:
    """The primary subject f_P: a numeric attribute of a node or an edge
    on the path. ``position`` indexes nodes 0..l (for ``kind='node'``) or
    edges 0..l-1 (for ``kind='edge'``). ``None`` attr with Agg.COUNT
    counts instances."""

    kind: str  # 'node' | 'edge'
    position: int
    attr: Optional[str]


@dataclass(frozen=True)
class Hypothesis:
    """A node, edge, or path hypothesis (paper Def. 3)."""

    name: str
    start: Modifier
    steps: tuple[PathStep, ...]
    f: AttrRef
    agg: Agg
    op: Op
    c: float

    @property
    def length(self) -> int:
        """Path length l; 0 = node hypothesis, 1 = edge hypothesis."""
        return len(self.steps)

    @property
    def kind(self) -> str:
        return {0: "node", 1: "edge"}.get(self.length, "path")

    @property
    def modifiers(self) -> tuple[Modifier, ...]:
        """Modifiers in path order: M_1 .. M_{l+1}."""
        return (self.start, *(s.modifier for s in self.steps))

    def decide(self, aggregate: Optional[float]) -> Optional[bool]:
        """H(·): compare the aggregate against c; None if undecidable
        (no relevant instance was found — see DESIGN.md §3)."""
        if aggregate is None:
            return None
        return self.op.apply(aggregate, self.c)


def path_hypothesis(
    name: str,
    modifiers: Sequence[Modifier],
    etypes: Sequence[str],
    f: AttrRef,
    agg: Agg,
    op: Op,
    c: float,
) -> Hypothesis:
    """Convenience constructor from parallel modifier/edge-type lists
    (``len(modifiers) == len(etypes) + 1``)."""
    if len(modifiers) != len(etypes) + 1:
        raise ValueError("need len(modifiers) == len(etypes) + 1")
    steps = tuple(PathStep(e, m) for e, m in zip(etypes, modifiers[1:]))
    return Hypothesis(name, modifiers[0], steps, f, agg, op, c)
