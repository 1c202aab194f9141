"""Shared spark-submit session bootstrap for the table jobs.

Jobs are standalone entrypoints (``python jobs/table3_accuracy.py`` or
``spark-submit jobs/table3_accuracy.py``); the tests' ``spark``
fixture and ``perfbench/run.py`` start their session here too, so all
three launch the same driver JVM. PySpark passes every builder conf to
``spark-submit`` as ``--conf``, so the driver heap and Java options set
here apply when the first ``getOrCreate`` launches the JVM.

The builder also sets ``spark.python.sql.dataFrameDebugging.enabled`` to
false. PySpark 4.1 has it on by default: every DataFrame and Column call
then reads a conf over py4j, sets and clears a call-site origin in the
JVM, walks the Python stack and tries to import IPython. Off, the driver
never imports IPython and makes about half the py4j round trips: after
``get_spark`` and a first DataFrame query its RSS fell from 138 to
112 MB, perfbench's ``driver_peak_rss_mb`` by 16% on both workloads,
DBLP-lite's build from about 1,450 to 640-710 round trips, a DB-P1
``WalkContext`` from about 710 to 340-400 and an RNS query from about
120 to 50-75 (EXPERIMENTS.md, "Driver footprint"). The trade: an
analysis error no longer names the Python line that built the failing
DataFrame.

Scale/repetition knobs come from env vars so EXPERIMENTS.md documents
exactly one command per table.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def _driver_mem() -> str:
    """``SPARK_DRIVER_MEM`` if set, else half of ``MemTotal``, clamped to
    2-8 GiB; 2g if ``/proc/meminfo`` cannot be read."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(ln.split()[1]) for ln in f if ln.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kib // (1 << 21)))}g"


def get_spark(app: str) -> SparkSession:
    s = (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.driver.memory", _driver_mem())
        # A heap that runs out ends the JVM, and with it the job, instead
        # of leaving Spark's scheduler to hang after an OutOfMemoryError.
        .config("spark.driver.extraJavaOptions", "-XX:+ExitOnOutOfMemoryError")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        # No per-call DataFrame debugging (see the module docstring).
        .config("spark.python.sql.dataFrameDebugging.enabled", "false")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))
