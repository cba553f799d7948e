import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierfcst import dataset as ds
from hierfcst.errors import (DomainError, HierfcstError, NotFittedError,
                             WindowRangeError)
from hierfcst.preprocess import (SupervisedSet, TargetTransform,
                                 build_training_set, diagonal_feed,
                                 feature_frame, load_supervised,
                                 save_supervised, window_index)

from oracles import training_rows, window_cells


def coded_tensor(T=12, H=4, n_items=2):
    """Cell (i, t, h) = 10000*i + 100*t + h + 1, every cell observed."""
    values = np.zeros((n_items, T, H))
    for i in range(n_items):
        for t in range(T):
            for h in range(H):
                values[i, t, h] = 10000 * i + 100 * t + h + 1
    return ds.PreorderTensor(items=[f"i{i}" for i in range(n_items)],
                             values=values,
                             observed_mask=np.ones_like(values, bool))


def cell(i, t, h):
    return 10000 * i + 100 * t + h + 1


class TestWindowIndex:
    def test_reference_layout_w4(self):
        x_idx, y_idx = window_index(4, 3)
        assert x_idx == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        assert y_idx == [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]

    def test_smallest_window(self):
        x_idx, y_idx = window_index(2, 1)
        assert x_idx == [(0, 0)]
        assert y_idx == [(1, 0)]

    @pytest.mark.parametrize("H", range(1, 9))
    def test_partition_property(self, H):
        W = H + 1
        x_idx, y_idx = window_index(W, H)
        assert len(x_idx) == len(y_idx) == H * (H + 1) // 2
        assert len(x_idx) + len(y_idx) == W * H
        assert set(x_idx) | set(y_idx) == {(s, h) for s in range(W) for h in range(H)}
        assert not set(x_idx) & set(y_idx)
        assert all(s <= h for s, h in x_idx)
        assert all(s > h for s, h in y_idx)
        assert x_idx == sorted(x_idx) and y_idx == sorted(y_idx)  # row-major

    def test_rectangular_rejected(self):
        with pytest.raises(HierfcstError):
            window_index(4, 4)
        with pytest.raises(HierfcstError):
            window_index(3, 3)


class TestDiagonalFeed:
    def test_values_match_reference_positions(self):
        t = coded_tensor()
        anchor = 2
        frame = diagonal_feed(t, 0, anchor, 4, 3)
        expect_x = [cell(0, anchor + s, h) for (s, h) in
                    [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]]
        expect_y = [cell(0, anchor + s, h) for (s, h) in
                    [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]]
        np.testing.assert_array_equal(frame.x, expect_x)
        np.testing.assert_array_equal(frame.y, expect_y)

    def test_earliest_future_targets_positions(self):
        _, y_idx = window_index(4, 3)
        assert y_idx.index((1, 0)) == 0
        assert y_idx.index((2, 1)) == 2
        assert y_idx.index((3, 2)) == 5

    def test_all_zero_tensor(self):
        t = ds.PreorderTensor(items=["z"], values=np.zeros((1, 8, 3)),
                              observed_mask=np.ones((1, 8, 3), bool))
        frame = diagonal_feed(t, 0, 1, 3, 2)
        assert np.all(frame.x == 0) and np.all(frame.y == 0)

    def test_window_out_of_range(self):
        t = coded_tensor(T=6)
        with pytest.raises(WindowRangeError):
            diagonal_feed(t, 0, 3, 4, 3)

    def test_leakage_freedom(self):
        t = coded_tensor(T=10, H=3)
        anchor = 2
        frame = diagonal_feed(t, 0, anchor, 4, 3)
        for s, h in frame.x_index:
            assert ds.is_known_at(t, 0, anchor + s, h, now=anchor)
        for s, h in frame.y_index:
            assert not ds.is_known_at(t, 0, anchor + s, h, now=anchor)

    def test_feature_frame_reaches_last_periods(self):
        t = coded_tensor(T=12, H=3)
        x = feature_frame(t, 0, 9, 4, 3)  # full frame would exceed T
        frame_x = [cell(0, 9 + s, h) for (s, h) in window_index(4, 3)[0]]
        np.testing.assert_array_equal(x, frame_x)
        with pytest.raises(WindowRangeError):
            feature_frame(t, 0, 11, 4, 3)


class TestBuildTrainingSet:
    def test_anchor_count(self):
        t = coded_tensor(T=45, H=3, n_items=1)
        sset = build_training_set(t, 0, 4, 3)
        assert sset.X.shape[0] == 42
        assert [a for (_, a) in sset.samples] == list(range(42))

    def test_identity_transform_keeps_raw_cells(self):
        t = coded_tensor()
        sset = build_training_set(t, 0, 4, 3)
        frame = diagonal_feed(t, 0, 0, 4, 3)
        np.testing.assert_array_equal(sset.X[0], frame.x)
        np.testing.assert_array_equal(sset.Y[0], frame.y)

    def test_all_items_stacks_identical_blocks(self):
        values = np.tile(coded_tensor(n_items=1).values, (3, 1, 1))
        t = ds.PreorderTensor(items=["a", "b", "c"], values=values,
                              observed_mask=np.ones_like(values, bool))
        one = build_training_set(t, 0, 4, 3)
        full = build_training_set(t, "all", 4, 3)
        assert full.X.shape[0] == 3 * one.X.shape[0]
        for b in range(3):
            blk = slice(b * one.X.shape[0], (b + 1) * one.X.shape[0])
            np.testing.assert_array_equal(full.X[blk], one.X)

    def test_empty_scope_rejected(self):
        t = coded_tensor()
        with pytest.raises(HierfcstError):
            build_training_set(t, [], 4, 3)

    def test_cache_round_trip(self, tmp_path):
        t = coded_tensor()
        sset = build_training_set(t, "all", 4, 3, transform="minmax")
        path = tmp_path / "sup.npz"
        save_supervised(sset, path)
        back = load_supervised(path)
        assert isinstance(back, SupervisedSet)
        np.testing.assert_array_equal(back.X, sset.X)
        np.testing.assert_array_equal(back.Y, sset.Y)
        assert back.samples == sset.samples
        assert back.transforms[1].vmax == sset.transforms[1].vmax


@st.composite
def feeding_cases(draw):
    """A random tensor with a window geometry, an item subset, in-range
    training anchors and a transform kind."""
    H = draw(st.integers(1, 6))
    W = H + 1
    n_items = draw(st.integers(1, 4))
    T = draw(st.integers(W, W + 8))
    n_leads = draw(st.integers(H, H + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(0, 50, size=(n_items, T, n_leads))
    values[rng.random(values.shape) < 0.3] = 0.0
    tensor = ds.PreorderTensor(items=[f"i{i}" for i in range(n_items)],
                               values=values,
                               observed_mask=np.ones_like(values, bool))
    items = draw(st.lists(st.integers(0, n_items - 1), min_size=1, unique=True))
    anchors = draw(st.lists(st.integers(0, T - W), min_size=1, unique=True))
    kind = draw(st.sampled_from(["identity", "log1p", "minmax"]))
    return tensor, W, H, items, anchors, kind


class TestGatherMatchesPerCellReference:
    @settings(max_examples=60, deadline=None)
    @given(feeding_cases())
    def test_build_training_set(self, case):
        tensor, W, H, items, anchors, kind = case
        sset = build_training_set(tensor, items, W, H, transform=kind,
                                  anchors=anchors)
        x_idx, y_idx = window_index(W, H)
        np.testing.assert_array_equal(
            sset.X, training_rows(tensor.values, items, anchors, x_idx, sset.transforms))
        np.testing.assert_array_equal(
            sset.Y, training_rows(tensor.values, items, anchors, y_idx, sset.transforms))
        assert sset.samples == [(i, a) for i in items for a in anchors]

    @settings(max_examples=60, deadline=None)
    @given(feeding_cases())
    def test_diagonal_feed_and_feature_frame(self, case):
        tensor, W, H, items, anchors, _ = case
        x_idx, y_idx = window_index(W, H)
        for i in items:
            for a in anchors:
                frame = diagonal_feed(tensor, i, a, W, H)
                np.testing.assert_array_equal(frame.x, window_cells(tensor.values, i, a, x_idx))
                np.testing.assert_array_equal(frame.y, window_cells(tensor.values, i, a, y_idx))
            # Inputs reach one anchor further than whole frames.
            inputs = anchors + [tensor.n_periods - W + 1]
            rows = feature_frame(tensor, i, np.array(inputs), W, H)
            expect = [window_cells(tensor.values, i, a, x_idx) for a in inputs]
            np.testing.assert_array_equal(rows, expect)
            np.testing.assert_array_equal(feature_frame(tensor, i, inputs[-1], W, H),
                                          expect[-1])

    @pytest.mark.parametrize("H", [1, 3])
    def test_out_of_range_anchors_raise(self, H):
        W = H + 1
        t = coded_tensor(T=10, H=H)
        T = t.n_periods
        for bad in (-1, T - W + 1, T):
            with pytest.raises(WindowRangeError):
                diagonal_feed(t, 0, bad, W, H)
            with pytest.raises(WindowRangeError):
                build_training_set(t, "all", W, H, anchors=[0, bad])
        for bad in (-1, T - W + 2, T):
            with pytest.raises(WindowRangeError):
                feature_frame(t, 0, bad, W, H)
            with pytest.raises(WindowRangeError):
                feature_frame(t, 0, np.array([0, bad]), W, H)

    def test_more_leads_than_tensor_raise(self):
        t = coded_tensor(T=10, H=3)
        with pytest.raises(WindowRangeError):
            diagonal_feed(t, 0, 0, 5, 4)
        with pytest.raises(WindowRangeError):
            feature_frame(t, 0, 0, 5, 4)
        with pytest.raises(WindowRangeError):
            feature_frame(t, 0, np.array([0, 1]), 5, 4)
        with pytest.raises(WindowRangeError):
            build_training_set(t, "all", 5, 4)


class TestTransforms:
    def test_log1p_of_zero(self):
        tf = TargetTransform.fit("log1p", [0.0, 1.0])
        assert tf.forward(0.0) == 0.0

    def test_minmax_midpoint(self):
        tf = TargetTransform(kind="minmax", vmin=0.0, vmax=10.0)
        assert tf.forward(5.0) == 0.5

    @pytest.mark.parametrize("kind", ["identity", "log1p", "minmax"])
    def test_round_trip(self, kind):
        tf = TargetTransform.fit(kind, np.array([0.0, 2.0, 7.3, 11.0]))
        v = 7.3
        assert abs(tf.inverse(tf.forward(v)) - v) <= 1e-9 * abs(v)

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 50, size=200)
        for kind in ("identity", "log1p", "minmax"):
            tf = TargetTransform.fit(kind, values)
            back = tf.inverse(tf.forward(values))
            np.testing.assert_allclose(back, values, rtol=1e-9, atol=1e-12)

    def test_degenerate_minmax_maps_to_zero(self):
        tf = TargetTransform.fit("minmax", np.full(5, 4.2))
        out = tf.forward(np.array([0.0, 4.2, 9.0]))
        np.testing.assert_array_equal(out, 0.0)
        assert tf.inverse(0.0) == 4.2

    def test_unfitted_minmax_raises(self):
        tf = TargetTransform(kind="minmax")
        with pytest.raises(NotFittedError):
            tf.forward(1.0)
        with pytest.raises(NotFittedError):
            tf.inverse(0.5)

    def test_log1p_domain_error(self):
        tf = TargetTransform(kind="log1p")
        with pytest.raises(DomainError):
            tf.forward(-2.0)

    def test_strictly_monotone(self):
        rng = np.random.default_rng(1)
        values = np.sort(rng.uniform(0, 100, size=50))
        for kind in ("identity", "log1p", "minmax"):
            tf = TargetTransform.fit(kind, values)
            out = tf.forward(values)
            assert np.all(np.diff(out) > 0)

    def test_unknown_kind(self):
        with pytest.raises(HierfcstError):
            TargetTransform(kind="boxcox")
