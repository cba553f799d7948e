"""The benchmark's tracer (perfbench/spans.py) wraps package functions by
the names their callers look them up by; each of those names must exist,
or traced benchmark runs fail.  And the benchmark's smoke run, every
workload at a tiny size checked against BENCHMARK.json, passes."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_every_wrapped_name_resolves(spans):
    assert spans.TARGETS
    for owner, attr, *_ in spans.TARGETS:
        assert callable(getattr(spans._resolve(owner), attr, None)), f"{owner}:{attr}"


def test_benchmark_smoke_run_passes():
    done = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=PERFBENCH.parent, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
