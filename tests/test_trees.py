"""The level-wise tree engine against the recursive reference engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierfcst.errors import HierfcstError
from hierfcst.models import AdaBoostR2, ModelSpec, RegressionTree, fit
from hierfcst.models.trees import _pairwise_sum, _pick, _weighted_median

from oracles import (RecursiveTree, adaboost_reference, bagged_boost_reference,
                     forest_reference, sequential_pick, weighted_median_reference)


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


def bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


def tree_arrays(tree):
    return [(a.dtype.str, a.tobytes()) for a in
            (tree.feature, tree.threshold, tree.left, tree.right, tree.value)]


def assert_same_model(got, want):
    """The same trees, node array for node array, and the same log weights
    (AdaBoost) or member inits and tree counts (bagged boosting)."""
    assert [tree_arrays(t) for t in got.all_trees()] == \
        [tree_arrays(t) for t in want.all_trees()]
    if hasattr(want, "log_weights"):
        assert bits(got.log_weights) == bits(want.log_weights)
    if hasattr(want, "members"):
        assert [(m.init, len(m.trees)) for m in got.members] == \
            [(m.init, len(m.trees)) for m in want.members]


def assert_stack_matches_items(spec, X, Y, Xq):
    """A stacked fit of X (items, n, k), Y (items, n, m) holds, for every
    item, the models ``fit(spec, X[i], Y[i])`` holds, bit for bit, and
    predicts Xq[i] as that fit does."""
    stacked = fit(spec, X, Y)
    m = Y.shape[-1]
    assert stacked.payload.failures == {}
    assert len(stacked.payload.models) == len(X) * m
    raw = stacked.predict_transformed(Xq)
    for i in range(len(X)):
        alone = fit(spec, X[i], Y[i])
        for c in range(m):
            assert_same_model(stacked.payload.models[i * m + c], alone.payload.models[c])
        assert bits(raw[i]) == bits(alone.predict_transformed(Xq[i]))
    return stacked


def boosting_stack():
    """Six items of 24 rows, 3 features, 2 targets: item 0's first target
    is constant, item 1's X is constant and its first target two-valued
    and balanced; the others are noisy."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(6, 24, 3))
    Y = rng.normal(size=(6, 24, 2)) + 2 * X[..., :1]
    Y[..., 1] = np.where(rng.random((6, 24)) < 0.3, rng.normal(size=(6, 24)) * 5, Y[..., 1])
    Y[0, :, 0] = 4.5
    X[1] = 1.0
    Y[1, :, 0] = np.tile([-1.0, 1.0], 12)
    return X, Y, rng.normal(size=(6, 9, 3)) * 2


class TestStackedFitMatchesPerItem:
    def test_adaboost_rounds_and_stops(self):
        X, Y, Xq = boosting_stack()
        spec = ModelSpec("adaboost", {"rounds": 8, "base_depth": 2})
        boosts = assert_stack_matches_items(spec, X, Y, Xq).payload.models
        # Item 0's constant target is fitted perfectly in round one.
        assert len(boosts[0].trees) == 1 and boosts[0].log_weights == [np.log(1e12)]
        # Item 1's first tree has average loss 1 >= 0.5: kept alone.
        assert len(boosts[2].trees) == 1 and boosts[2].log_weights == [1.0]
        # The others stop in different rounds.
        assert len({len(b.trees) for b in boosts[3:]}) >= 3
        for b, (i, c) in enumerate(np.ndindex(6, 2)):
            trees, log_weights = adaboost_reference(X[i], Y[i, :, c], 8, 2,
                                                    tree_class=RegressionTree)
            assert [tree_arrays(t) for t in boosts[b].trees] == \
                [tree_arrays(t) for t in trees]
            assert bits(boosts[b].log_weights) == bits(log_weights)

    @pytest.mark.parametrize("max_features, bootstrap",
                             [(0.5, True), (0.5, False), (1.0, True)])
    def test_forest(self, max_features, bootstrap):
        X, Y, Xq = boosting_stack()
        spec = ModelSpec("rforest", {"n_trees": 4, "max_depth": 3, "min_leaf": 1,
                                     "max_features": max_features,
                                     "bootstrap": bootstrap, "seed": 3})
        forests = assert_stack_matches_items(spec, X, Y, Xq).payload.models
        assert all(len(f.trees) == 4 for f in forests)

    def test_bagged_boost(self):
        X, Y, Xq = boosting_stack()
        spec = ModelSpec("ensemble", {"n_bags": 3, "boost_rounds": 4, "max_depth": 2,
                                      "seed": 2})
        ensembles = assert_stack_matches_items(spec, X, Y, Xq).payload.models
        # Item 0's constant target leaves nothing to boost.
        assert all(m.trees == [] and m.init == 4.5 for m in ensembles[0].members)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(2, 30),
           st.integers(1, 3), st.sampled_from(["rforest", "adaboost", "ensemble"]))
    def test_random_stacks(self, seed, items, n, m, family):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 4, size=(items, n, 3)).astype(float)
        Y = rng.normal(size=(items, n, m)) * (rng.random((items, 1, m)) < 0.8)
        hp = {"rforest": {"n_trees": 3, "max_depth": 3, "max_features": 0.7},
              "adaboost": {"rounds": 5, "base_depth": 2},
              "ensemble": {"n_bags": 2, "boost_rounds": 3, "max_depth": 2}}[family]
        assert_stack_matches_items(ModelSpec(family, hp), X, Y,
                                   rng.normal(size=(items, 5, 3)) * 2)

    def test_stack_predicts_a_stack_of_its_items(self):
        X, Y, Xq = boosting_stack()
        model = fit(ModelSpec("adaboost", {"rounds": 2}), X, Y)
        with pytest.raises(HierfcstError, match="stack of 6 item fits"):
            model.predict_transformed(Xq[:3])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(1, 60))
def test_pick_matches_the_sequential_rule(seed, rows, cols):
    # Gains on a coarse grid nudged by steps around the 1e-12 margin: chains
    # of near-ties, exact ties, zeros, negatives and -inf (no candidate).
    rng = np.random.default_rng(seed)
    gain = rng.integers(-1, 4, size=(rows, cols)) * 0.5
    gain += rng.choice([0.0, 4e-13, 9e-13, 1.1e-12, 3e-12], size=gain.shape).cumsum(axis=1)
    gain[rng.random(gain.shape) < 0.2] = -np.inf
    np.testing.assert_array_equal(_pick(gain), [sequential_pick(row) for row in gain])


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
    staged = [boost.predict(X, upto=k) for k in range(1, len(boost.trees) + 1)]
    assert len(staged) == len(boost.trees) == 8
    assert not np.array_equal(staged[0], staged[-1])   # the median moves
    for k, pred in enumerate(staged, start=1):
        prefix = np.array([tree.predict(X) for tree in boost.trees[:k]])
        np.testing.assert_array_equal(pred, _weighted_median(prefix, boost.log_weights[:k]))
    np.testing.assert_array_equal(staged[-1], boost.predict(X))


def test_tree_payload_reads_as_nodes():
    X = np.arange(20.0)[:, None]
    y = (X[:, 0] >= 10).astype(float)
    tree = RegressionTree(max_depth=2).fit(X, y)
    root = tree.root
    assert not root.is_leaf and root.feature == 0 and root.threshold == 9.5
    assert root.left.is_leaf and root.left.value == 0.0
    assert root.right.is_leaf and root.right.value == 1.0
