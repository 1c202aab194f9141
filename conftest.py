"""The test session's Spark: the jobs' ``get_spark`` with a sized driver.

``spark.driver.memory`` is read at JVM launch, not from SparkConf, so it
goes into ``PYSPARK_SUBMIT_ARGS`` here, at conftest import, before any
test module imports pyspark.
"""
import os


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


os.environ["SPARK_DRIVER_MEM"] = _driver_mem()
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} pyspark-shell",
)

import pytest  # noqa: E402

from jobs.common import get_spark  # noqa: E402


# The session Spark's settings, for the terminal summary: pytest captures
# what a fixture prints, so a line printed there reaches no passing run.
_SESSION_LINE = []


@pytest.fixture(scope="session")
def spark():
    s = get_spark("repro")
    _SESSION_LINE.append(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}"
    )
    yield s
    s.stop()


def pytest_terminal_summary(terminalreporter):
    for line in _SESSION_LINE:
        terminalreporter.write_line(line)
