import os
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierfcst import dataset as ds
from hierfcst import preprocess
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
        x_idx, y_idx = window_index(3)
        assert x_idx == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        assert y_idx == [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]

    def test_smallest_window(self):
        x_idx, y_idx = window_index(1)
        assert x_idx == [(0, 0)]
        assert y_idx == [(1, 0)]

    @pytest.mark.parametrize("H", range(1, 9))
    def test_partition_property(self, H):
        W = H + 1
        x_idx, y_idx = window_index(H)
        assert len(x_idx) == len(y_idx) == H * (H + 1) // 2
        assert len(x_idx) + len(y_idx) == W * H
        assert set(x_idx) | set(y_idx) == {(s, h) for s in range(W) for h in range(H)}
        assert not set(x_idx) & set(y_idx)
        assert all(s <= h for s, h in x_idx)
        assert all(s > h for s, h in y_idx)
        assert x_idx == sorted(x_idx) and y_idx == sorted(y_idx)  # row-major


class TestDiagonalFeed:
    def test_values_match_reference_positions(self):
        t = coded_tensor()
        anchor = 2
        frame = diagonal_feed(t, 0, anchor, 3)
        expect_x = [cell(0, anchor + s, h) for (s, h) in
                    [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]]
        expect_y = [cell(0, anchor + s, h) for (s, h) in
                    [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]]
        np.testing.assert_array_equal(frame.x, expect_x)
        np.testing.assert_array_equal(frame.y, expect_y)

    def test_earliest_future_targets_positions(self):
        _, y_idx = window_index(3)
        assert y_idx.index((1, 0)) == 0
        assert y_idx.index((2, 1)) == 2
        assert y_idx.index((3, 2)) == 5

    def test_all_zero_tensor(self):
        t = ds.PreorderTensor(items=["z"], values=np.zeros((1, 8, 3)),
                              observed_mask=np.ones((1, 8, 3), bool))
        frame = diagonal_feed(t, 0, 1, 2)
        assert np.all(frame.x == 0) and np.all(frame.y == 0)

    def test_window_out_of_range(self):
        t = coded_tensor(T=6)
        with pytest.raises(WindowRangeError):
            diagonal_feed(t, 0, 3, 3)

    def test_leakage_freedom(self):
        t = coded_tensor(T=10, H=3)
        anchor = 2
        frame = diagonal_feed(t, 0, anchor, 3)
        for s, h in frame.x_index:
            assert ds.is_known_at(t, 0, anchor + s, h, now=anchor)
        for s, h in frame.y_index:
            assert not ds.is_known_at(t, 0, anchor + s, h, now=anchor)

    def test_feature_frame_reaches_last_periods(self):
        t = coded_tensor(T=12, H=3)
        x = feature_frame(t, 0, 9, 3)  # full frame would exceed T
        frame_x = [cell(0, 9 + s, h) for (s, h) in window_index(3)[0]]
        np.testing.assert_array_equal(x, frame_x)
        with pytest.raises(WindowRangeError):
            feature_frame(t, 0, 11, 3)


class TestBuildTrainingSet:
    def test_anchor_count(self):
        t = coded_tensor(T=45, H=3, n_items=1)
        sset = build_training_set(t, 0, 3)
        assert sset.X.shape[0] == 42
        np.testing.assert_array_equal(sset.sample_anchors, np.arange(42))
        np.testing.assert_array_equal(sset.sample_items, np.zeros(42))

    def test_identity_transform_keeps_raw_cells(self):
        t = coded_tensor()
        sset = build_training_set(t, 0, 3)
        frame = diagonal_feed(t, 0, 0, 3)
        np.testing.assert_array_equal(sset.X[0], frame.x)
        np.testing.assert_array_equal(sset.Y[0], frame.y)

    def test_all_items_stacks_identical_blocks(self):
        values = np.tile(coded_tensor(n_items=1).values, (3, 1, 1))
        t = ds.PreorderTensor(items=["a", "b", "c"], values=values,
                              observed_mask=np.ones_like(values, bool))
        one = build_training_set(t, 0, 3)
        full = build_training_set(t, "all", 3)
        assert full.X.shape[0] == 3 * one.X.shape[0]
        for b in range(3):
            blk = slice(b * one.X.shape[0], (b + 1) * one.X.shape[0])
            np.testing.assert_array_equal(full.X[blk], one.X)

    def test_empty_scope_rejected(self):
        t = coded_tensor()
        with pytest.raises(HierfcstError):
            build_training_set(t, [], 3)

    def test_repeated_item_rejected(self):
        # item_transforms[k] belongs to the scope's k-th item: one each.
        with pytest.raises(HierfcstError, match="twice"):
            build_training_set(coded_tensor(), [1, 0, 1], 3)

    def test_cache_round_trip(self, tmp_path):
        t = coded_tensor()
        sset = build_training_set(t, "all", 3, transform="minmax")
        path = tmp_path / "sup.npz"
        save_supervised(sset, path)
        back = load_supervised(path)
        assert isinstance(back, SupervisedSet)
        np.testing.assert_array_equal(back.X, sset.X)
        np.testing.assert_array_equal(back.Y, sset.Y)
        np.testing.assert_array_equal(back.sample_items, sset.sample_items)
        np.testing.assert_array_equal(back.sample_anchors, sset.sample_anchors)
        assert back.item_transforms[1].vmax == sset.item_transforms[1].vmax

    @pytest.mark.parametrize("kind", ["identity", "minmax"])
    def test_cache_lists_transforms_by_item_index(self, tmp_path, kind):
        # The cache layout lists the transforms by ascending item index; a
        # loaded set holds them in scope order again.
        t = coded_tensor(n_items=3)
        sset = build_training_set(t, [2, 0], 3, transform=kind, anchors=[4, 1])
        path = tmp_path / "sup.npz"
        save_supervised(sset, path)
        stored = np.load(path)
        np.testing.assert_array_equal(stored["sample_items"], [2, 2, 0, 0])
        np.testing.assert_array_equal(stored["sample_anchors"], [4, 1, 4, 1])
        assert (int(stored["W"]), int(stored["H"])) == (4, 3)
        np.testing.assert_array_equal(stored["tf_items"], [0, 2])
        np.testing.assert_array_equal(stored["tf_kinds"], [kind, kind])
        lows = [t.values[0].min(), t.values[2].min()] if kind == "minmax" else [np.nan] * 2
        np.testing.assert_array_equal(stored["tf_vmins"], lows)
        back = load_supervised(path).item_transforms
        for k, i in enumerate([2, 0]):
            assert back[k] == TargetTransform.fit(kind, t.values[i])

    def test_cache_stored_at_exact_path(self, tmp_path):
        sset = build_training_set(coded_tensor(), "all", 3, transform="log1p")
        path = tmp_path / "sup.cache"
        save_supervised(sset, path)
        assert os.listdir(tmp_path) == ["sup.cache"]
        with zipfile.ZipFile(path) as zf:
            assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}
        np.testing.assert_array_equal(load_supervised(path).X, sset.X)

    def test_compressed_cache_of_earlier_layout_loads(self, tmp_path):
        sset = build_training_set(coded_tensor(), "all", 3, transform="minmax")
        tf = sset.item_transforms
        path = tmp_path / "old.npz"
        np.savez_compressed(
            path, cache_version=np.array(1), kind=np.array("supervised_set"),
            X=sset.X, Y=sset.Y, sample_items=sset.sample_items,
            sample_anchors=sset.sample_anchors, W=np.array(4), H=np.array(3),
            tf_items=np.arange(2), tf_kinds=np.array(["minmax"] * 2),
            tf_vmins=tf.vmin, tf_vmaxs=tf.vmax)
        back = load_supervised(path)
        np.testing.assert_array_equal(back.X, sset.X)
        np.testing.assert_array_equal(back.Y, sset.Y)
        np.testing.assert_array_equal(back.sample_items, sset.sample_items)
        np.testing.assert_array_equal(back.sample_anchors, sset.sample_anchors)
        assert back.H == 3
        assert [back.item_transforms[k] for k in range(2)] == [tf[k] for k in range(2)]

    def test_tensor_cache_is_not_a_supervised_cache(self, tmp_path):
        path = tmp_path / "t.npz"
        ds.save_cache(coded_tensor(), path)
        with pytest.raises(HierfcstError, match="t.npz"):
            load_supervised(path)


@st.composite
def feeding_cases(draw):
    """A random tensor with a lead count H, an item subset, in-range
    training anchors and a transform kind."""
    H = draw(st.integers(1, 6))
    W = H + 1                   # the periods a whole frame spans
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
    return tensor, H, items, anchors, kind


class TestGatherMatchesPerCellReference:
    @settings(max_examples=60, deadline=None)
    @given(feeding_cases())
    def test_build_training_set(self, case):
        tensor, H, items, anchors, kind = case
        sset = build_training_set(tensor, items, H, transform=kind, anchors=anchors)
        x_idx, y_idx = window_index(H)
        transforms = {i: sset.item_transforms[k] for k, i in enumerate(items)}
        for i in items:
            assert transforms[i] == TargetTransform.fit(kind, tensor.values[i])
        np.testing.assert_array_equal(
            sset.X, training_rows(tensor.values, items, anchors, x_idx, transforms))
        np.testing.assert_array_equal(
            sset.Y, training_rows(tensor.values, items, anchors, y_idx, transforms))
        assert sset.sample_items.tolist() == [i for i in items for a in anchors]
        assert sset.sample_anchors.tolist() == [a for i in items for a in anchors]

    @settings(max_examples=60, deadline=None)
    @given(feeding_cases())
    def test_diagonal_feed_and_feature_frame(self, case):
        tensor, H, items, anchors, _ = case
        x_idx, y_idx = window_index(H)
        for i in items:
            for a in anchors:
                frame = diagonal_feed(tensor, i, a, H)
                np.testing.assert_array_equal(frame.x, window_cells(tensor.values, i, a, x_idx))
                np.testing.assert_array_equal(frame.y, window_cells(tensor.values, i, a, y_idx))
            # Inputs reach one anchor further than whole frames.
            inputs = anchors + [tensor.n_periods - H]
            rows = feature_frame(tensor, i, np.array(inputs), H)
            expect = [window_cells(tensor.values, i, a, x_idx) for a in inputs]
            np.testing.assert_array_equal(rows, expect)
            np.testing.assert_array_equal(feature_frame(tensor, i, inputs[-1], H),
                                          expect[-1])

    @pytest.mark.parametrize("H", [1, 3])
    def test_out_of_range_anchors_raise(self, H):
        W = H + 1
        t = coded_tensor(T=10, H=H)
        T = t.n_periods
        for bad in (-1, T - W + 1, T):
            with pytest.raises(WindowRangeError):
                diagonal_feed(t, 0, bad, H)
            with pytest.raises(WindowRangeError):
                build_training_set(t, "all", H, anchors=[0, bad])
        for bad in (-1, T - W + 2, T):
            with pytest.raises(WindowRangeError):
                feature_frame(t, 0, bad, H)
            with pytest.raises(WindowRangeError):
                feature_frame(t, 0, np.array([0, bad]), H)

    def test_more_leads_than_tensor_raise(self):
        t = coded_tensor(T=10, H=3)
        with pytest.raises(WindowRangeError):
            diagonal_feed(t, 0, 0, 4)
        with pytest.raises(WindowRangeError):
            feature_frame(t, 0, 0, 4)
        with pytest.raises(WindowRangeError):
            feature_frame(t, 0, np.array([0, 1]), 4)
        with pytest.raises(WindowRangeError):
            build_training_set(t, "all", 4)


# Each call as written when the frame width W was passed before H.  On a
# tensor with H + 1 leads a call that read W as H would build wider frames.
WIDTH_FIRST_CALLS = {
    "window_index": lambda t, tf: window_index(4, 3),
    "diagonal_feed": lambda t, tf: diagonal_feed(t, 0, 0, 4, 3),
    "feature_frame": lambda t, tf: feature_frame(t, 0, np.array([0, 1]), 4, 3),
    "build_training_set": lambda t, tf: build_training_set(t, "all", 4, 3),
    "build_training_set-kind": lambda t, tf: build_training_set(t, 0, 4, 3, "log1p"),
    "build_training_set-transforms": lambda t, tf: build_training_set(
        t, "all", 4, 3, anchors=range(5), transforms=tf),
    "build_training_set-keywords": lambda t, tf: build_training_set(t, 0, W=4, H=3),
}


@pytest.mark.parametrize("call", WIDTH_FIRST_CALLS.values(), ids=WIDTH_FIRST_CALLS)
def test_width_first_calls_raise_before_reading_cells(call, monkeypatch):
    t = coded_tensor(T=12, H=4)
    tf = TargetTransform.fit_items("identity", t.values)

    def no_gather(*args):
        raise AssertionError("frames were built")

    monkeypatch.setattr(preprocess, "gather_cells", no_gather)
    with pytest.raises(TypeError):
        call(t, tf)


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
