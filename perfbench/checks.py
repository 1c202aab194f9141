"""Output checks that run outside the timed region of every query.

- V_S is distinct, a subset of V and within the budget (RES counts its
  budget in edges, so its V_S may hold up to 2B endpoints).
- The estimate on S (instance count, mean and aggregate) equals a DuckDB
  query over the generator's flat tables restricted to V_S and the edges
  between V_S nodes; H(G) is checked the same way over the full tables.
- The decision matches the aggregate, the p-value lies in [0, 1] and the
  confidence interval brackets the mean.

The SQL is compiled from the hypothesis independently of the Spark
estimator: one join per path step on the stored edge table (reversed for
``_inv`` relations), modifiers as WHERE clauses, and distinct node ids
across positions for simple paths. DuckDB runs in a worker process
(``python3 perfbench/checks.py``, fed pickled calls on its stdin) so its
memory does not count in the driver's peak RSS.
"""
from __future__ import annotations

import hashlib
import math
import os
import pickle
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Mapping, Optional, Sequence

import pandas as pd

from repro.core.hypothesis import Agg, Hypothesis, Modifier
from repro.core.testing import TestOutcome
from repro.graph.property_graph import INV_SUFFIX

_SQL_OPS = {"==": "=", "!=": "<>", ">": ">", ">=": ">=", "<": "<", "<=": "<="}
_SQL_AGG = {Agg.AVG: "AVG(f)", Agg.SUM: "SUM(f)", Agg.COUNT: "CAST(COUNT(*) AS DOUBLE)",
            Agg.MIN: "MIN(f)", Agg.MAX: "MAX(f)"}


def _quote(s: str) -> str:
    return '"' + s.replace('"', '""') + '"'


def _modifier_sql(mod: Modifier, alias: str) -> list[str]:
    out = []
    for p in mod.predicates:
        col = f"{alias}.{_quote(p.attr)}"
        if p.numeric:
            out.append(f"CAST({col} AS DOUBLE) {_SQL_OPS[p.op]} {float(p.value)!r}")
        else:
            lit = str(p.value).replace("'", "''")
            out.append(f"CAST({col} AS VARCHAR) {_SQL_OPS[p.op]} '{lit}'")
    return out


def estimate_sql(hyp: Hypothesis, prefix: str) -> str:
    """DuckDB query returning ``n, mean, value`` of ``hyp`` over the
    tables ``<prefix>n_<ntype>`` and ``<prefix>e_<etype>``."""
    joins = [f"{_quote(prefix + 'n_' + hyp.start.ntype)} AS n0"]
    where = _modifier_sql(hyp.start, "n0")
    for i, step in enumerate(hyp.steps, start=1):
        inverse = step.etype.endswith(INV_SUFFIX)
        etype = step.etype[: -len(INV_SUFFIX)] if inverse else step.etype
        near, far = ("dst", "src") if inverse else ("src", "dst")
        joins.append(
            f"JOIN {_quote(prefix + 'e_' + etype)} AS e{i} ON e{i}.{near} = n{i-1}.id"
        )
        joins.append(
            f"JOIN {_quote(prefix + 'n_' + step.modifier.ntype)} AS n{i} "
            f"ON n{i}.id = e{i}.{far}"
        )
        where += _modifier_sql(step.modifier, f"n{i}")
    l = hyp.length
    where += [f"n{i}.id <> n{j}.id" for i in range(l + 1) for j in range(i + 1, l + 1)]
    f = hyp.f
    if f.attr is None:
        f_sql = "1.0"
    elif f.kind == "node":
        f_sql = f"CAST(n{f.position}.{_quote(f.attr)} AS DOUBLE)"
    else:
        f_sql = f"CAST(e{f.position + 1}.{_quote(f.attr)} AS DOUBLE)"
    inner = f"SELECT {f_sql} AS f FROM " + " ".join(joins)
    if where:
        inner += " WHERE " + " AND ".join(where)
    return (
        f"SELECT COUNT(*) AS n, AVG(f) AS mean, {_SQL_AGG[hyp.agg]} AS value "
        f"FROM ({inner}) WHERE f IS NOT NULL"
    )


class OracleProcess:
    """An :class:`Oracle` in a worker process; each check blocks until the
    worker answers. :meth:`close` ends the worker and waits for it."""

    def __init__(
        self,
        node_tables: Mapping[str, pd.DataFrame],
        edge_tables: Mapping[str, pd.DataFrame],
    ):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root)]))
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env,
        )
        self._call("__init__", dict(node_tables), dict(edge_tables))

    def _call(self, method: str, *args):
        pickle.dump((method, args), self._proc.stdin)
        self._proc.stdin.flush()
        ok, value = pickle.load(self._proc.stdout)
        if not ok:
            raise RuntimeError(f"oracle worker: {value}")
        return value

    def check_truth(self, hyp: Hypothesis, outcome: TestOutcome) -> list[str]:
        return self._call("check_truth", hyp, outcome)

    def check_sample(self, *args) -> list[str]:
        return self._call("check_sample", *args)

    def close(self) -> None:
        self._proc.stdin.close()  # the worker exits on EOF
        try:
            self._proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def _serve() -> None:
    """Worker loop: answer pickled ``(method, args)`` calls until EOF."""
    reply_to = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # stray prints go to stderr, not into the reply pipe
    oracle = None
    while True:
        try:
            method, args = pickle.load(sys.stdin.buffer)
        except EOFError:
            break
        try:
            if method == "__init__":
                oracle, value = Oracle(*args), None
            else:
                value = getattr(oracle, method)(*args)
            reply = (True, value)
        except Exception:
            reply = (False, traceback.format_exc())
        pickle.dump(reply, reply_to)
        reply_to.flush()
    if oracle is not None:
        oracle.close()


class Oracle:
    """DuckDB over the flat tables; ``s_``-prefixed views restrict them to
    the node set most recently passed to :meth:`check_sample`."""

    def __init__(
        self,
        node_tables: Mapping[str, pd.DataFrame],
        edge_tables: Mapping[str, pd.DataFrame],
    ):
        import duckdb

        self.con = duckdb.connect()
        self.node_ids = set()
        for t, df in node_tables.items():
            self.con.register(f"n_{t}", df)
            self.node_ids.update(int(x) for x in df["id"])
        for t, df in edge_tables.items():
            self.con.register(f"e_{t}", df)
        self.con.register("vs", pd.DataFrame({"id": pd.Series([], dtype="int64")}))
        for t in node_tables:
            self.con.execute(
                f"CREATE VIEW {_quote('s_n_' + t)} AS SELECT * FROM {_quote('n_' + t)} "
                "WHERE id IN (SELECT id FROM vs)"
            )
        for t in edge_tables:
            self.con.execute(
                f"CREATE VIEW {_quote('s_e_' + t)} AS SELECT * FROM {_quote('e_' + t)} "
                "WHERE src IN (SELECT id FROM vs) AND dst IN (SELECT id FROM vs)"
            )

    def close(self) -> None:
        self.con.close()

    def _expected(self, hyp: Hypothesis, prefix: str) -> tuple:
        return self.con.execute(estimate_sql(hyp, prefix)).fetchone()

    def check_truth(self, hyp: Hypothesis, outcome: TestOutcome) -> list[str]:
        """Problems with H(G) against the full tables ([] when correct)."""
        return check_outcome(hyp, outcome, self._expected(hyp, ""))

    def check_sample(
        self,
        hyp: Hypothesis,
        outcome: TestOutcome,
        node_ids: Sequence[int],
        budget: int,
        budget_unit: str,
        n_sampled: int,
    ) -> list[str]:
        """Problems with one query's V_S and H(S) ([] when correct)."""
        errs = check_node_set(node_ids, self.node_ids, budget, budget_unit)
        if n_sampled != len(node_ids):
            errs.append(f"n_sampled={n_sampled} but |V_S|={len(node_ids)}")
        self.con.register("vs", pd.DataFrame({"id": sorted({int(v) for v in node_ids})},
                                             dtype="int64"))
        return errs + check_outcome(hyp, outcome, self._expected(hyp, "s_"))


def check_node_set(
    node_ids: Sequence[int], all_ids: set, budget: int, budget_unit: str
) -> list[str]:
    errs = []
    ids = [int(v) for v in node_ids]
    if len(set(ids)) != len(ids):
        errs.append(f"V_S has {len(ids) - len(set(ids))} duplicate ids")
    outside = set(ids) - all_ids
    if outside:
        errs.append(f"V_S has {len(outside)} ids outside V")
    # An edge budget of B yields at most 2B endpoints.
    cap = 2 * budget if budget_unit == "edges" else budget
    if len(set(ids)) > cap:
        errs.append(f"|V_S|={len(set(ids))} exceeds {cap} for a budget of "
                    f"{budget} {budget_unit}")
    return errs


def _close(a: Optional[float], b: Optional[float]) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def check_outcome(hyp: Hypothesis, out: TestOutcome, expected: tuple) -> list[str]:
    n, mean, value = expected
    est = out.estimate
    errs = []
    if est.n_instances != n:
        errs.append(f"{hyp.name}: {est.n_instances} instances, oracle {n}")
    elif n > 0 and not (_close(est.mean, mean) and _close(est.value, value)):
        errs.append(f"{hyp.name}: mean/value {est.mean}/{est.value}, "
                    f"oracle {mean}/{value}")
    if out.decision != hyp.decide(est.value):
        errs.append(f"{hyp.name}: decision {out.decision} for value {est.value}")
    tt = out.ttest
    if tt is not None:
        if not 0.0 <= tt.p_value <= 1.0:
            errs.append(f"{hyp.name}: p-value {tt.p_value} outside [0, 1]")
        if not tt.ci_low <= est.mean <= tt.ci_high:
            errs.append(f"{hyp.name}: CI [{tt.ci_low}, {tt.ci_high}] misses "
                        f"mean {est.mean}")
    return errs


def node_set_digest(node_ids: Sequence[int]) -> str:
    """Order-free hash of V_S, comparable across processes."""
    text = ",".join(str(v) for v in sorted(int(x) for x in node_ids))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


if __name__ == "__main__":
    _serve()
