"""Every job script imports. The jobs call ``repro.experiments`` and
``repro.samplers`` by name, so an import is enough to catch a renamed or
deleted entry point; no job is run, except ``fill_experiments`` on a
copy of EXPERIMENTS.md."""
import importlib.util
import pathlib
import sys

import pytest

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
