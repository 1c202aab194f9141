"""Every job script imports. The jobs call ``repro.experiments`` and
``repro.samplers`` by name, so an import is enough to catch a renamed or
deleted entry point; no job is run."""
import importlib.util
import pathlib
import sys

import pytest

JOBS = sorted((pathlib.Path(__file__).parents[1] / "jobs").glob("*.py"))


def test_jobs_found():
    assert {p.name for p in JOBS} >= {"common.py", "table3_accuracy.py"}


@pytest.mark.parametrize("path", JOBS, ids=lambda p: p.name)
def test_job_imports(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # jobs prepend jobs/
    spec = importlib.util.spec_from_file_location(f"job_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
