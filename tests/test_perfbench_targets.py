"""The benchmark's tracer (perfbench/spans.py) wraps package functions by
the names their callers look them up by; each of those names must exist,
or traced benchmark runs fail."""

import importlib
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
