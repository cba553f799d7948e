"""The level-wise tree engine against the recursive reference engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierfcst.errors import HierfcstError
from hierfcst.models import AdaBoostR2, ModelSpec, RegressionTree, fit
from hierfcst.models.trees import _pairwise_sum

from oracles import (RecursiveTree, adaboost_reference, bagged_boost_reference,
                     forest_reference, weighted_median_reference)


def _bfs(root):
    """(feature, threshold, value) of every node in level order; value None
    for an inner node and feature None for a leaf."""
    out, queue = [], [root]
    while queue:
        node = queue.pop(0)
        if node.feature is None:
            out.append((None, None, node.value))
        else:
            out.append((node.feature, node.threshold, None))
            queue += [node.left, node.right]
    return out


@st.composite
def tree_inputs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 60))
    p = draw(st.integers(1, 4))
    levels = draw(st.integers(1, 6))
    X = rng.integers(0, levels, size=(n, p)).astype(float)
    if draw(st.booleans()):
        X += rng.normal(size=(n, p)) * (rng.random((n, p)) < 0.5)
    dup = rng.random(n) < draw(st.sampled_from([0.0, 0.3]))
    X[dup] = X[rng.integers(0, n, size=n)][dup]          # duplicate rows
    y = (rng.integers(0, 4, size=n).astype(float) if draw(st.booleans())
         else rng.normal(size=n))
    w = rng.uniform(0.1, 2.0, size=n)
    w[rng.random(n) < draw(st.sampled_from([0.0, 0.25]))] = 0.0
    w[0] = max(w[0], 0.5)
    return X, y, w, draw(st.integers(0, 5)), draw(st.integers(1, 3))


class TestFlatEngineMatchesRecursiveReference:
    @settings(max_examples=200, deadline=None)
    @given(tree_inputs())
    def test_same_splits_and_leaves(self, case):
        X, y, w, depth, min_leaf = case
        try:
            ref = RecursiveTree(depth, min_leaf).fit(X, y, w)
        except ZeroDivisionError:       # a node left with zero total weight
            with pytest.raises(HierfcstError):
                RegressionTree(depth, min_leaf).fit(X, y, w)
            return
        tree = RegressionTree(depth, min_leaf).fit(X, y, w)
        got, want = _bfs(tree.root), _bfs(ref.root)
        assert [g[:2] for g in got] == [r[:2] for r in want]
        leaves = [(g[2], r[2]) for g, r in zip(got, want) if r[0] is None]
        np.testing.assert_allclose(*zip(*leaves), rtol=1e-12, atol=0)
        grid = np.vstack([X, X + 0.5, X - 0.5])
        np.testing.assert_allclose(tree.predict(grid), ref.predict(grid),
                                   rtol=1e-12, atol=0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 40), st.integers(1, 3))
    def test_multi_target_families_match_per_target_fits(self, seed, n, k):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 4, size=(n, 3)).astype(float)
        Y = rng.normal(size=(n, k))
        Xq = rng.normal(size=(7, 3)) * 2
        forest = fit(ModelSpec("rforest", {"n_trees": 4, "max_depth": 3, "seed": 5}), X, Y)
        boost = fit(ModelSpec("adaboost", {"rounds": 5, "base_depth": 2}), X, Y)
        bagged = fit(ModelSpec("ensemble", {"n_bags": 3, "boost_rounds": 4,
                                            "max_depth": 2, "seed": 9}), X, Y)
        for c in range(k):
            ref = forest_reference(X, Y[:, c], 4, 3, 2, True, seed=5 + c)
            np.testing.assert_allclose(forest.payload.models[c].predict(Xq), ref(Xq),
                                       rtol=1e-12, atol=1e-300)
            trees, lw = adaboost_reference(X, Y[:, c], 5, 2)
            want = weighted_median_reference([t.predict(Xq) for t in trees], lw)
            np.testing.assert_allclose(boost.payload.models[c].predict(Xq), want,
                                       rtol=1e-12, atol=1e-300)
            ref = bagged_boost_reference(X, Y[:, c], 3, 4, 0.1, 2, seed=9 + c)
            np.testing.assert_allclose(bagged.payload.models[c].predict(Xq), ref(Xq),
                                       rtol=1e-12, atol=1e-300)


def test_pairwise_sum_matches_numpy_sum():
    rng = np.random.default_rng(3)
    lengths = np.concatenate([np.arange(1, 140), rng.integers(140, 3000, size=30)])
    a = rng.normal(size=(2, lengths.sum())) * 10.0 ** rng.integers(-6, 6, size=lengths.sum())
    starts = np.cumsum(lengths) - lengths
    want = [[row[s:s + k].sum() for s, k in zip(starts, lengths)] for row in a]
    np.testing.assert_array_equal(_pairwise_sum(a, starts, lengths), want)


class TestFeatureSubsets:
    def test_subset_without_rng_raises(self):
        with pytest.raises(HierfcstError):
            RegressionTree(max_depth=3, max_features=0.5)

    def test_split_features_come_from_the_drawn_subsets(self):
        class Recorder:
            def __init__(self, seed):
                self.rng, self.draws = np.random.default_rng(seed), []

            def choice(self, *args, **kwargs):
                out = self.rng.choice(*args, **kwargs)
                self.draws.append(set(out.tolist()))
                return out

        rng = np.random.default_rng(4)
        X = rng.normal(size=(64, 8))
        y = 5 * X[:, 0] + rng.normal(size=64)
        recorder = Recorder(1)
        tree = RegressionTree(max_depth=3, min_leaf=1, max_features=0.25,
                              rng=recorder).fit(X, y)
        # Continuous data: every node above depth 3 splits, so the draws
        # map one to one onto the inner nodes in level order.
        inner = [f for f in tree.feature if f >= 0]
        assert len(inner) == len(recorder.draws) == 7
        assert all(len(d) == 2 for d in recorder.draws)
        assert all(f in d for f, d in zip(inner, recorder.draws))
        assert any(0 not in d for d in recorder.draws)


def test_staged_predictions_are_prefix_predictions():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(40, 3))
    y = np.abs(X[:, 0]) + X[:, 1] + 0.3 * rng.normal(size=40)
    boost = AdaBoostR2(rounds=8, base_depth=3).fit(X, y)
    staged = boost.staged_predict(X)
    assert len(staged) == len(boost.trees) == 8
    assert not np.array_equal(staged[0], staged[-1])   # the median moves
    for k, pred in enumerate(staged, start=1):
        np.testing.assert_array_equal(pred, boost.predict(X, upto=k))
    np.testing.assert_array_equal(staged[-1], boost.predict(X))


def test_tree_payload_reads_as_nodes():
    X = np.arange(20.0)[:, None]
    y = (X[:, 0] >= 10).astype(float)
    tree = RegressionTree(max_depth=2).fit(X, y)
    root = tree.root
    assert not root.is_leaf and root.feature == 0 and root.threshold == 9.5
    assert root.left.is_leaf and root.left.value == 0.0
    assert root.right.is_leaf and root.right.value == 1.0
