"""Hypothesis-query benchmark: a closed loop of ``Experiment.run_once``.

Usage, from the repository root::

    python3 perfbench/run.py --workload phase-dblp --seed 1 --seconds 20 --trace 0

One client sends sequential hypothesis queries. Each query samples V_S,
induces S, extracts and aggregates the relevant instances and tests
(``Experiment.run_once``). Set-up, counted in ``setup_s``, covers Spark
start, dataset generation, the ``WalkContext`` builds, ground truth H(G)
with its oracle check, and the workload's fixed number of untimed warm-up
queries. The loop then runs whole passes of the workload's query mix until
``--seconds`` of query time have been measured; the output checks after
each query are not timed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace
1`` runs the same loop with spans around every layer call and reports the
per-layer metrics. Both print a report line (configuration, all end-to-end
figures, self-time breakdown) and then, as the last line, the result
object. Per-query records, V_S digests and spans go to ``perfbench/out/``.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not bench_file.is_file():
        print(f"perfbench: no program to measure under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    os.environ["SPARK_MASTER"] = f"local[{os.cpu_count()}]"
    # Keep Python's, Spark's and the JVM's temporary files inside the checkout.
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ.update(
        TMPDIR=str(tmp), SPARK_LOCAL_DIRS=str(tmp),
        JAVA_TOOL_OPTIONS=f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData",
    )

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    from jobs.common import get_spark
    from spans import Tracer

    tracer = Tracer(enabled=bool(args.trace))
    _adopt_orphans()
    try:
        with tracer.span("spark.start"):
            spark = get_spark(f"perfbench-{args.workload}")
        try:
            report, result = _run(spark, tracer, WORKLOADS, args, bench)
        finally:
            _stop(spark)
    finally:
        _reap_children()
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


def _run(spark, tracer, all_workloads, args, bench):
    from checks import OracleProcess, node_set_digest
    from repro.core.framework import Experiment
    from repro.datasets import GENERATORS
    from spans import instrument

    wl = all_workloads[args.workload]
    sc = spark.sparkContext
    tracer.attach(sc)
    with tracer.span("datasets.generate"):
        ds = GENERATORS[wl.dataset](spark)
    oracle = OracleProcess(ds.node_tables, ds.edge_tables)
    captured: list = []
    setup_errors: list[str] = []
    exps, truths, records = {}, {}, []

    def query(qid, q, seed):
        tracer.qid = qid
        captured.clear()
        rec = {"qid": qid, "sampler": q.sampler, "hypothesis": q.hypothesis,
               "budget": q.budget, "seed": seed}
        t = time.perf_counter()
        try:
            with tracer.span("framework.run_once"):
                r = exps[q.hypothesis].run_once(q.sampler, q.budget, seed=seed)
        except Exception:  # a query that raises is counted as failed
            rec.update(seconds=time.perf_counter() - t, raised=True,
                       errors=[traceback.format_exc(limit=3)])
            return rec
        rec["seconds"] = time.perf_counter() - t
        node_ids = captured[-1]
        rec.update(
            n_sampled=r.n_sampled,
            decision=r.outcome.decision,
            truth=truths[q.hypothesis].decision,
            instances=r.outcome.estimate.n_instances,
            digest=node_set_digest(node_ids),
            errors=oracle.check_sample(
                exps[q.hypothesis].hyp, r.outcome, node_ids, q.budget,
                q.budget_unit, r.n_sampled,
            ),
        )
        return rec

    try:
        with instrument(tracer, captured):
            for name, hyp in wl.hypotheses().items():
                exps[name] = Experiment(spark, ds.graph, hyp)
                with tracer.span("walk_engine.context"):
                    exps[name].context()
                with tracer.span("testing.truth"):
                    truths[name] = exps[name].truth()
                setup_errors += oracle.check_truth(hyp, truths[name])
            # Warm-up: the workload's number of untimed queries of the mix,
            # in order. Query times fall over the first queries of a fresh
            # JVM; a fixed count, not a fixed time, starts every run's timed
            # loop at the same point of that curve.
            warm = []
            for i in range(wl.warmup):
                q = wl.mix[i % len(wl.mix)]
                warm.append(query(-1, q, args.seed * 10_000 + 9_999 - i))
            setup_errors += [e for w in warm for e in w["errors"]]
            setup_s = time.perf_counter() - _T0

            measured, qid = 0.0, 0
            while measured < args.seconds:
                for q in wl.mix:
                    rec = query(qid, q, args.seed * 10_000 + qid)
                    records.append(rec)
                    measured += rec["seconds"]
                    qid += 1
    finally:
        oracle.close()
        for exp in exps.values():
            exp.close()

    for msg in setup_errors:
        print(f"perfbench: set-up check failed: {msg}", file=sys.stderr)
    for rec in records:
        for msg in rec["errors"]:
            print(f"perfbench: query {rec['qid']} ({rec['sampler']}, "
                  f"{rec['hypothesis']}) failed: {msg}", file=sys.stderr)

    times = [r["seconds"] for r in records if not r.get("raised")]
    attempted = len(records)
    failed = sum(1 for r in records if r["errors"])
    e2e = {
        "query_s_p50": (statistics.median(times), "s"),
        "tests_per_min": (60.0 * len(times) / sum(times), "1/min"),
        "setup_s": (setup_s, "s"),
        "accuracy": (sum(1 for r in records if "decision" in r
                         and r["decision"] == r["truth"]) / attempted, "ratio"),
        "undecided_frac": (sum(1 for r in records if "decision" in r
                               and r["decision"] is None) / attempted, "ratio"),
        "failed_frac": (failed / attempted, "ratio"),
        "driver_peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    config = {
        "master": sc.master,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "broadcast_threshold": spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "pyspark": spark.version,
        "jvm": sc._jvm.java.lang.System.getProperty("java.version"),
    }
    report = {
        "workload": wl.name, "dataset": wl.dataset, "seed": args.seed,
        "trace": args.trace, "config": config, "query_count": len(times),
        "mix": [f"{q.sampler}/{q.hypothesis}/B={q.budget}" for q in wl.mix],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "setup_failures": setup_errors,
    }
    if args.trace:
        samplers = sorted({q.sampler for w in all_workloads.values() for q in w.mix})
        layers, self_s = _layer_metrics(tracer.spans, samplers)
        # The self times of the spans inside run_once add up to its duration.
        report["self_s_per_query"] = self_s
        report["run_once_s_mean"] = statistics.fmean(
            s.seconds for s in tracer.spans
            if s.name == "framework.run_once" and s.qid >= 0)
        values = layers
        wanted = bench["per_layer"]
    else:
        values = {k: v for k, (v, _) in e2e.items()}
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    stem = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(
        {"report": report, "warmup": warm, "queries": records,
         "spans": tracer.to_json()}, indent=1, default=str))
    # One V_S hash per (workload, sampler, hypothesis, seed): diff two of
    # these files to compare two processes sampler by sampler.
    stem.with_suffix(".digest.json").write_text(json.dumps(
        {f"{wl.name}/{r['sampler']}/{r['hypothesis']}/{r['seed']}": r.get("digest")
         for r in [*warm, *records]}, indent=1, sort_keys=True))

    result = {"correct": failed == 0 and not setup_errors, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return report, result


def _layer_metrics(spans, samplers):
    """Per-layer figures from the spans: times and counts are means per
    timed query, ratios are taken over the totals of the run. Each of
    ``samplers`` gets its own figures, which read 0 where it did not run."""
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)

    def jobs(s):  # jobs launched in the span and its descendants
        return s.jobs + sum(jobs(c) for c in kids[s.sid])

    def self_time(s):
        return s.seconds - sum(c.seconds for c in kids[s.sid])

    setup = [s for s in spans if s.qid < 0]
    timed = [s for s in spans if s.qid >= 0]
    by = defaultdict(list)
    for s in timed:
        by[s.name].append(s)
    n = len(by["framework.run_once"])

    def total(name, f=lambda s: s.seconds):
        return sum(f(s) for s in by[name])

    def ratio(a, b):
        return a / b if b else 0.0

    setup_total = defaultdict(float)
    for s in setup:
        if s.name in ("spark.start", "datasets.generate", "walk_engine.context",
                      "testing.truth"):
            setup_total[s.name + "_s"] += s.seconds
            setup_total[s.name + "_jobs"] += jobs(s)

    steps = total("walk_engine.run_walk", lambda s: s.attrs.get("supersteps", 0))
    bfs_spans = by["bfs.expand_frontier"] + by["bfs.bfs_parents"]
    out = {
        "spark.start_s": setup_total["spark.start_s"],
        "datasets.generate_s": setup_total["datasets.generate_s"],
        "walk_engine.context_s": setup_total["walk_engine.context_s"],
        "walk_engine.context_jobs": setup_total["walk_engine.context_jobs"],
        "testing.truth_s": setup_total["testing.truth_s"],
        "framework.run_once_s_p50": statistics.median(
            s.seconds for s in by["framework.run_once"]),
        "framework.self_s": total("framework.run_once", self_time) / n,
        "spark.jobs_per_query": total("framework.run_once", jobs) / n,
        "spark.s_per_job": ratio(total("framework.run_once"),
                                 total("framework.run_once", jobs)),
        "walk_engine.run_walk_s": total("walk_engine.run_walk") / n,
        "walk_engine.supersteps": steps / n,
        "walk_engine.s_per_superstep": ratio(total("walk_engine.run_walk"), steps),
        "walk_engine.jobs_per_superstep": ratio(
            total("walk_engine.run_walk", jobs), steps),
        "walk_engine.teleports": total(
            "walk_engine.run_walk", lambda s: s.attrs.get("teleports", 0)) / n,
        "walk_engine.new_nodes_per_superstep": ratio(
            total("walk_engine.run_walk", lambda s: s.attrs.get("n", 0)), steps),
        "bfs.expand_frontier_s": total("bfs.expand_frontier") / n,
        "bfs.expand_frontier_calls": len(by["bfs.expand_frontier"]) / n,
        "bfs.jobs": sum(jobs(s) for s in bfs_spans) / n,
        "property_graph.induced_subgraph_s": total("property_graph.induced_subgraph") / n,
        "estimator.estimate_s": total("estimator.estimate") / n,
        "estimator.jobs": total("estimator.estimate", jobs) / n,
        "estimator.instances": total(
            "estimator.estimate", lambda s: s.attrs.get("instances", 0)) / n,
        "estimator.s_per_job": ratio(total("estimator.estimate"),
                                     total("estimator.estimate", jobs)),
        "testing.run_test_s": total("testing.run_test") / n,
    }
    per_sampler = defaultdict(list)
    for s in by["samplers.sample"]:
        per_sampler[s.attrs["sampler"]].append(s)
    for name in samplers:
        ss = per_sampler[name]
        k = len(ss) or 1
        out[f"samplers.sample_s.{name}"] = sum(s.seconds for s in ss) / k
        out[f"samplers.jobs.{name}"] = sum(jobs(s) for s in ss) / k
        out[f"samplers.budget_fill.{name}"] = sum(
            s.attrs.get("n", 0) / s.attrs["budget"] for s in ss) / k
    self_s = defaultdict(float)
    for s in timed:
        self_s[s.name] += self_time(s) / n
    return out, dict(self_s)


def _stop(spark) -> None:
    """Stop Spark and wait for the JVM that PySpark launched to exit."""
    proc = getattr(spark.sparkContext._gateway, "proc", None)
    spark.stop()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on EOF on its stdin
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _adopt_orphans() -> None:
    """Make this process the child subreaper (Linux), so processes whose
    parent dies before them (the JVM's, the oracle's) become its children
    and :func:`_reap_children` waits for them too."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):  # not Linux
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def _reap_children(grace: float = 30.0) -> None:
    """Wait until no child process is left; kill those still running
    after ``grace`` seconds."""
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for kid in _children():
                try:
                    os.kill(kid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)


def _children() -> list[int]:
    me, kids = os.getpid(), []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = (Path("/proc") / entry / "stat").read_text()
        except OSError:  # the process has ended
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:  # field 4: ppid
            kids.append(int(entry))
    return kids


if __name__ == "__main__":
    sys.exit(main())
