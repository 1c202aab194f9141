"""Shared spark-submit session bootstrap for the table jobs.

Jobs are standalone entrypoints (``python jobs/table3_accuracy.py`` or
``spark-submit jobs/table3_accuracy.py``); the tests' ``spark``
fixture and ``perfbench/run.py`` start their session here too.
Scale/repetition knobs come from env vars so EXPERIMENTS.md documents
exactly one command per table.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    s = (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))
