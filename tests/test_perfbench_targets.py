"""The benchmark's tracer (perfbench/spans.py) wraps package functions by
the names their callers look them up by; each of those names must exist,
or traced benchmark runs fail.  Its tree node count counts each tree of a
fit once.  And the benchmark's smoke run, every workload at a tiny size
checked against BENCHMARK.json, passes."""

import collections
import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hierfcst.models import ModelSpec, fit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_every_wrapped_name_resolves(spans):
    assert spans.TARGETS
    for owner, attr, *_ in spans.TARGETS:
        assert callable(getattr(spans._resolve(owner), attr, None)), f"{owner}:{attr}"


@pytest.mark.parametrize("family, hp", [
    ("rforest", {"n_trees": 4, "max_depth": 3, "min_leaf": 1, "max_features": 0.5}),
    ("adaboost", {"rounds": 8, "base_depth": 2}),
    ("ensemble", {"n_bags": 3, "boost_rounds": 4, "max_depth": 2})])
def test_traced_tree_nodes_are_the_item_fits_nodes(spans, family, hp):
    # Four items of 24 rows, 3 features, 2 targets; item 0's first target
    # is constant, so its boosters stop early.
    rng = np.random.default_rng(0)
    X = rng.normal(size=(4, 24, 3))
    Y = rng.normal(size=(4, 24, 2)) + 2 * X[..., :1]
    Y[0, :, 0] = 4.5
    spec = ModelSpec(family, hp)
    counts = collections.Counter()
    spans._count_fit(counts, (spec, X, Y), {}, fit(spec, X, Y))
    per_item = sum(tree.feature.size for i in range(len(X))
                   for model in fit(spec, X[i], Y[i]).payload.models
                   for tree in model.all_trees())
    assert counts["models.trees.nodes"] == per_item > 0


def test_benchmark_smoke_run_passes():
    done = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=PERFBENCH.parent, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
