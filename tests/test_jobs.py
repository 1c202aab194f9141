"""Every job script imports. The jobs call ``repro.experiments`` and
``repro.samplers`` by name, so an import is enough to catch a renamed or
deleted entry point; no job is run, except ``fill_experiments`` on a
copy of EXPERIMENTS.md. ``jobs/common.py``'s driver launch rule is
tested here too, on its own and on the session's JVM."""
import importlib.util
import io
import pathlib
import sys

import pytest
from pyspark.errors import utils as pyspark_errors
from pyspark.sql import functions as F

from jobs import common

ROOT = pathlib.Path(__file__).parents[1]
JOBS = sorted((ROOT / "jobs").glob("*.py"))


def _load(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"job_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_jobs_found():
    assert {p.name for p in JOBS} >= {"common.py", "table3_accuracy.py"}


@pytest.mark.parametrize("path", JOBS, ids=lambda p: p.name)
def test_job_imports(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # jobs prepend jobs/
    _load(path)


def test_fill_experiments_rewrites_only_the_tables(tmp_path, monkeypatch):
    """On a copy of EXPERIMENTS.md with the committed results/*.csv, every
    line that is not a table row survives ``fill``, and a second run
    changes nothing."""
    fill = _load(ROOT / "jobs" / "fill_experiments.py")
    original = (ROOT / "EXPERIMENTS.md").read_text()
    exp = tmp_path / "EXPERIMENTS.md"
    exp.write_text(original)
    monkeypatch.setattr(fill, "EXP", str(exp))
    fill.main()
    once = exp.read_text()
    fill.main()
    assert exp.read_text() == once

    def prose(text):
        return [ln for ln in text.splitlines() if not ln.startswith("|")]

    assert prose(once) == prose(original)


# ---------------------------------------------------------------------
# The driver JVM's launch rule, which get_spark alone applies.
# ---------------------------------------------------------------------
def _bytes(mem: str) -> int:
    """A Spark memory string ("7g", "512m"; a bare number is MiB) in bytes."""
    unit = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}
    mem = mem.strip().lower()
    if mem[-1] in unit:
        return int(mem[:-1]) * unit[mem[-1]]
    return int(mem) << 20


def test_driver_mem_env_override(monkeypatch):
    monkeypatch.setenv("SPARK_DRIVER_MEM", "3g")
    assert common._driver_mem() == "3g"


@pytest.mark.parametrize(
    "mem_total_gib,heap",
    [(1, "2g"), (4, "2g"), (6, "3g"), (15.7, "7g"), (16, "8g"), (64, "8g")],
)
def test_driver_mem_is_half_of_mem_total_clamped(monkeypatch, mem_total_gib, heap):
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    meminfo = f"MemFree: 1 kB\nMemTotal: {int(mem_total_gib * (1 << 20))} kB\n"
    monkeypatch.setattr(common, "open", lambda _: io.StringIO(meminfo), raising=False)
    assert common._driver_mem() == heap


def test_driver_mem_without_meminfo(monkeypatch):
    def unreadable(_):
        raise OSError("no /proc")

    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    monkeypatch.setattr(common, "open", unreadable, raising=False)
    assert common._driver_mem() == "2g"


def test_session_jvm_runs_the_launch_rule(spark):
    """The session's JVM has the heap ``_driver_mem`` asks for, not the
    JVM's 1 GiB default, and exits on an OutOfMemoryError."""
    jvm = spark.sparkContext._jvm
    heap = _bytes(common._driver_mem())
    assert 0.9 * heap <= jvm.java.lang.Runtime.getRuntime().maxMemory() <= heap
    args = jvm.java.lang.management.ManagementFactory.getRuntimeMXBean().getInputArguments()
    assert "-XX:+ExitOnOutOfMemoryError" in list(args)


def test_session_runs_without_dataframe_debugging(spark, monkeypatch):
    """The launch rule turns off PySpark's per-call DataFrame debugging, so
    a DataFrame chain captures no Python call site. PySpark caches the
    setting for the process at its first wrapped call; clearing the cache
    makes this chain read it from the session."""
    assert spark.conf.get("spark.python.sql.dataFrameDebugging.enabled") == "false"
    captured = []
    capture = pyspark_errors._capture_call_site
    monkeypatch.setattr(pyspark_errors, "_enable_debugging_cache", None)
    monkeypatch.setattr(
        pyspark_errors, "_capture_call_site", lambda depth: captured.append(depth) or capture(depth)
    )
    rows = spark.range(5).select((F.col("id") % 3).alias("x")).orderBy("x").collect()
    assert [r.x for r in rows] == [0, 0, 1, 1, 2]
    assert captured == []
