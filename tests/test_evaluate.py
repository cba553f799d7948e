import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierfcst import dataset as ds
from hierfcst import evaluate, trmf
from hierfcst.errors import HierfcstError
from hierfcst.evaluate import (DF_FEEDINGS, NODF_LAGS, BacktestSplit, backtest,
                               best_forecast_report, forecast_matrix, frame_leads,
                               lag1_mimicry, smape, smape_rows)
from hierfcst.models import FEEDING_MODES, ModelSpec, fit, linear
from hierfcst.preprocess import TRANSFORM_KINDS

from oracles import backtest_reference, nodf_forecasts_reference, smape_item, smape_ref


class TestSmape:
    def test_perfect_forecast(self):
        assert smape([3.0, 5.0], [3.0, 5.0]) == 0.0

    def test_zero_forecast_of_positive_actuals(self):
        assert smape([0.0, 0.0], [4.0, 9.0]) == 200.0

    def test_single_point_formula(self):
        assert smape([1.0], [3.0]) == pytest.approx(100.0, abs=1e-12)

    def test_zero_zero_convention(self):
        assert smape([0.0, 1.0], [0.0, 1.0]) == 0.0

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            F = rng.uniform(0, 10, size=8)
            A = rng.uniform(0, 10, size=8)
            assert smape(F, A) == pytest.approx(smape_ref(F, A), abs=1e-12)

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            F = rng.uniform(0, 100, size=6)
            A = rng.uniform(0, 100, size=6)
            c = rng.uniform(0.1, 10)
            assert smape(F, A) == pytest.approx(smape(A, F), abs=1e-12)
            assert smape(c * F, c * A) == pytest.approx(smape(F, A), abs=1e-9)

    def test_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            F = rng.uniform(0, 50, size=5)
            A = rng.uniform(0, 50, size=5)
            v = smape(F, A)
            assert 0.0 <= v <= 200.0

    def test_errors(self):
        with pytest.raises(HierfcstError):
            smape([1.0], [1.0, 2.0])
        with pytest.raises(HierfcstError):
            smape([], [])
        with pytest.raises(HierfcstError):
            smape([np.nan], [1.0])


class TestBacktestSplit:
    def test_defaults(self):
        split = BacktestSplit()
        assert list(split.train_range) == list(range(37))
        assert list(split.test_range) == list(range(37, 45))

    def test_validate(self):
        with pytest.raises(HierfcstError):
            BacktestSplit(40, 8).validate(45)
        BacktestSplit(37, 8).validate(45)

    def test_bad_sizes(self):
        with pytest.raises(HierfcstError):
            BacktestSplit(1, 8)
        with pytest.raises(HierfcstError):
            BacktestSplit(10, 0)


def constant_tensor(value=6.0, n_items=1, T=45, H=4):
    values = np.full((n_items, T, H), value)
    return ds.PreorderTensor(items=[f"c{i}" for i in range(n_items)],
                             values=values,
                             observed_mask=np.ones_like(values, bool))


class TestBacktest:
    def test_constant_item_arx_wins_with_zero_smape(self):
        tensor = constant_tensor()
        board = backtest(tensor, [ModelSpec("arx", {"p": 2}, label="arx")],
                         BacktestSplit(37, 8))
        row = board.row("arx")
        assert row.mean_smape == pytest.approx(0.0, abs=1e-9)
        assert board.best_model["c0"] == "arx"
        assert row.best_count == 1

    def test_noop_transform_gives_identical_rows(self):
        tensor = ds.synthesize(21, 4, 45, 4, "smooth")
        a = ModelSpec("ridge", {"lam": 1e-3}, feeding="df_one_by_one", label="a")
        b = ModelSpec("ridge", {"lam": 1e-3}, feeding="df_one_by_one",
                      transform="identity", label="b")
        board = backtest(tensor, [a, b])
        ra, rb = board.row("a"), board.row("b")
        assert ra.mean_smape == rb.mean_smape
        assert ra.median_smape == rb.median_smape

    def test_leaderboard_csv_deterministic(self):
        tensor = ds.synthesize(22, 5, 45, 4, "anticipatory")
        specs = [ModelSpec("ridge", {"lam": 1e-4}, feeding="df_one_by_one",
                           label="ridge df"),
                 ModelSpec("arx", {"p": 2}, label="arx"),
                 ModelSpec("rforest", {"n_trees": 5, "seed": 7}, label="rf")]
        csv1 = backtest(tensor, specs).to_csv()
        csv2 = backtest(tensor, specs).to_csv()
        assert csv1 == csv2

    def test_counts_sum_to_items(self):
        tensor = ds.synthesize(23, 6, 45, 4, "smooth")
        specs = [ModelSpec("arx", {"p": 1}, label="arx1"),
                 ModelSpec("arx", {"p": 3}, label="arx3")]
        board = backtest(tensor, specs)
        assert sum(r.best_count for r in board.rows) == tensor.n_items

    def test_tie_breaks_lexicographically(self):
        tensor = constant_tensor()
        specs = [ModelSpec("arx", {"p": 1}, label="zeta"),
                 ModelSpec("arx", {"p": 1}, label="alpha")]
        board = backtest(tensor, specs)
        assert board.best_model["c0"] == "alpha"

    def test_failure_recorded_and_excluded(self):
        # 6 train periods cannot support an AR(5)+exog fit: that spec fails
        # wholesale, is recorded, and the other spec still wins every item.
        tensor = ds.synthesize(24, 3, 14, 4, "smooth")
        split = BacktestSplit(6, 4)
        ok = ModelSpec("arx", {"p": 1}, label="ok")
        bad = ModelSpec("arx", {"p": 5, "exog": "preorders"}, label="bad")
        board = backtest(tensor, [ok, bad], split)
        assert len(board.failures) == tensor.n_items
        assert all(name == "bad" for name, _, _ in board.failures)
        assert all(v == "ok" for v in board.best_model.values())
        assert board.row("ok").n_items == tensor.n_items
        assert np.isnan(board.row("bad").mean_smape)

    def test_degenerate_item_fails_alone(self):
        # Unpenalized ridge on an all-zero item has singular normal
        # equations; only that item's forecast is lost.
        tensor = ds.synthesize(26, 20, 45, 4, "anticipatory")
        tensor.values[3] = 0.0
        spec = ModelSpec("ridge", {"lam": 0.0}, feeding="df_one_by_one", label="r0")
        board = backtest(tensor, [spec])
        assert len(board.failures) == 1
        name, item, message = board.failures[0]
        assert (name, item) == ("r0", tensor.items[3])
        assert message.startswith("IllConditionedError: ")
        assert board.row("r0").n_items == 19
        assert np.isfinite(board.row("r0").mean_smape)
        assert set(board.best_model) == set(tensor.items) - {item}

    def test_arx_item_whose_fit_fails_fails_alone(self, monkeypatch):
        # Item 1's least-squares SVD does not converge (LAPACK info > 0):
        # its ARX fit fails, and the other items' fits are scored.
        from hierfcst.models import arx
        calls = []

        def gelsd(*args, _real=arx._gelsd):
            calls.append(None)
            x, s, rank, info = _real(*args)
            return x, s, rank, 1 if len(calls) == 2 else info

        monkeypatch.setattr(arx, "_gelsd", gelsd)
        tensor = ds.synthesize(26, 4, 45, 4, "anticipatory")
        board = backtest(tensor, [ModelSpec("arx", label="a")])
        assert board.failures == [("a", tensor.items[1], "LinAlgError: SVD did not "
                                   "converge in Linear Least Squares")]
        assert sorted(board.scores["a"]) == [tensor.items[i] for i in (0, 2, 3)]
        assert board.row("a").n_items == 3

    def test_failed_spec_sorts_after_scored_specs(self):
        tensor = ds.synthesize(24, 3, 14, 4, "smooth")
        bad = ModelSpec("arx", {"p": 5, "exog": "preorders"}, label="a_bad")
        ok = ModelSpec("arx", {"p": 1}, label="ok")
        board = backtest(tensor, [bad, ok], BacktestSplit(6, 4))
        assert [r.spec_name for r in board.rows] == ["ok", "a_bad"]
        assert board.to_csv().splitlines()[-1] == "a_bad,nan,nan,0,0"

    def test_duplicate_spec_names_rejected(self):
        tensor = constant_tensor()
        s = ModelSpec("arx", label="dup")
        with pytest.raises(HierfcstError):
            backtest(tensor, [s, s])

    def test_trmf_family_in_backtest(self):
        tensor = ds.synthesize(25, 6, 20, 2, "smooth")
        spec = ModelSpec("trmf", {"rank": 2, "ar_order": 1, "max_sweeps": 30},
                         label="mf")
        board = backtest(tensor, [spec], BacktestSplit(15, 5))
        assert board.row("mf").n_items == 6
        assert np.isfinite(board.row("mf").mean_smape)

    def test_anticipatory_df_advantage(self):
        tensor = ds.synthesize(26, 20, 45, 4, "anticipatory")
        specs = [ModelSpec("ridge", {"lam": 1e-6}, feeding="df_one_by_one",
                           label="ridge df"),
                 ModelSpec("arx", {"p": 3}, label="arx")]
        board = backtest(tensor, specs)
        ridge = board.row("ridge df").mean_smape
        arx = board.row("arx").mean_smape
        assert ridge <= 0.8 * arx

    def test_forecast_matrix_shapes(self):
        tensor = ds.synthesize(27, 4, 45, 4, "smooth")
        split = BacktestSplit(37, 8)
        for spec in (ModelSpec("ridge", feeding="df_all_items", label="r"),
                     ModelSpec("lasso", {"lam": 0.01}, label="l"),
                     ModelSpec("poisson", {"lam": 1e-6}, feeding="df_all_items",
                               transform="minmax", label="p"),
                     ModelSpec("kernel", {"lam": 0.5}, feeding="df_one_by_one",
                               transform="log1p", label="k"),
                     ModelSpec("arx", label="a")):
            fc, extras = forecast_matrix(tensor, spec, split)
            assert fc.shape == (4, 8)
            assert np.all(fc >= 0) and np.all(np.isfinite(fc))


class TestMimicry:
    def test_shifted_forecast_flagged(self):
        rng = np.random.default_rng(3)
        actual = rng.uniform(1, 10, size=9)
        forecast = actual[:-1]          # repeats the previous actual
        flag, lagged, now = lag1_mimicry(forecast, actual[1:], actual[0])
        assert flag and lagged > now + 0.1

    def test_perfect_forecast_not_flagged(self):
        rng = np.random.default_rng(4)
        actual = rng.uniform(1, 10, size=8)
        flag, _, _ = lag1_mimicry(actual, actual, 5.0)
        assert not flag

    def test_random_walk_arx_flagged(self):
        rng = np.random.default_rng(5)
        T = 45
        walk = np.abs(np.cumsum(rng.normal(size=T)) + 20.0)
        values = np.repeat(walk[None, :, None], 2, axis=2)[None, ...][0]
        values = values.reshape(1, T, 2)
        tensor = ds.PreorderTensor(items=["rw"], values=values,
                                   observed_mask=np.ones_like(values, bool))
        board = backtest(tensor, [ModelSpec("arx", {"p": 1}, label="arx")])
        report = best_forecast_report(board, "rw")
        assert report.mimicry_flag

    def test_constant_inputs_zero_correlation(self):
        flag, lagged, now = lag1_mimicry([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], 0.0)
        assert not flag and lagged == 0.0 and now == 0.0


class TestReport:
    def test_report_csv_layout(self):
        tensor = constant_tensor(value=4.0)
        board = backtest(tensor, [ModelSpec("arx", label="arx")])
        report = best_forecast_report(board, "c0")
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "period,actual,forecast"
        assert len(lines) == 1 + 8
        first = lines[1].split(",")
        assert first[0] == "37" and float(first[1]) == 4.0

    def test_unscored_item(self):
        tensor = constant_tensor()
        board = backtest(tensor, [ModelSpec("arx", label="arx")])
        with pytest.raises(HierfcstError):
            best_forecast_report(board, "ghost")


class TestSmapeRows:
    def test_rows_match_single_series(self):
        rng = np.random.default_rng(8)
        F = rng.uniform(0, 10, size=(300, 8))
        A = rng.uniform(0, 10, size=(300, 8))
        F[:5] = 0.0
        A[:3] = 0.0
        rows = smape_rows(F, A)
        assert all(rows[i] == smape_item(F[i], A[i]) == smape(F[i], A[i])
                   for i in range(300))


def assert_matches_reference(tensor, specs, split):
    """Same failures, same leaderboard bytes and the same forecasts, bit
    for bit: the stacked solves make the LAPACK calls of per-item fits."""
    board = backtest(tensor, specs, split)
    csv, failures, forecasts = backtest_reference(tensor, specs, split)
    assert board.failures == failures
    assert board.forecasts.keys() == forecasts.keys()
    for key, expect in forecasts.items():
        np.testing.assert_array_equal(board.forecasts[key], expect, err_msg=str(key))
    assert board.to_csv() == csv


@st.composite
def backtest_cases(draw):
    """A small catalog with all-zero and constant items, a split, and specs
    in one transform covering every feeding mode, ARX, TRMF, stacked
    Poisson and the stacked tree families."""
    n_items = draw(st.integers(1, 5))
    n_leads = draw(st.integers(1, 4))
    T = draw(st.integers(12, 18))
    n_test = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(0, 50, size=(n_items, T, n_leads))
    values[rng.random(values.shape) < 0.2] = 0.0
    for i in range(n_items):
        shape = draw(st.sampled_from(["random", "random", "zero", "constant"]))
        if shape != "random":
            values[i] = 0.0 if shape == "zero" else 7.5
    tensor = ds.PreorderTensor(items=[f"i{i}" for i in range(n_items)], values=values,
                               observed_mask=values > 0)
    kind = draw(st.sampled_from(TRANSFORM_KINDS))
    lam = draw(st.sampled_from([0.0, 1e-3, 1.0]))
    specs = [ModelSpec("ridge", {"lam": lam}, transform=kind, feeding=feeding,
                       label=f"ridge_{feeding}") for feeding in FEEDING_MODES]
    specs += [ModelSpec("kernel", transform=kind, feeding=feeding, label=f"kernel_{feeding}")
              for feeding in ("df_one_by_one", "df_all_items")]
    specs += [ModelSpec("lasso", transform=kind, feeding="df_one_by_one", label="lasso"),
              ModelSpec("poisson", transform=kind, feeding="df_one_by_one", label="poisson"),
              ModelSpec("poisson", transform=kind, label="poisson_nodf"),
              ModelSpec("arx", {"p": draw(st.integers(1, 2))}, transform=kind, label="arx"),
              ModelSpec("arx", {"exog": "preorders"}, transform=kind, label="arx_exog"),
              ModelSpec("trmf", {"rank": 1, "ar_order": 1, "max_sweeps": 5},
                        transform=kind, label="trmf")]
    specs += tree_specs(kind)
    return tensor, specs, BacktestSplit(T - n_test, n_test)


def tree_specs(kind):
    """Small tree specs fitted per item: the three families under
    df_one_by_one and adaboost without feeding."""
    forest = {"n_trees": 3, "max_depth": 2, "max_features": 0.7}
    boost = {"rounds": 3, "base_depth": 2}
    bagged = {"n_bags": 2, "boost_rounds": 2, "max_depth": 2}
    return [ModelSpec("rforest", forest, transform=kind, feeding="df_one_by_one",
                      label="rforest"),
            ModelSpec("adaboost", boost, transform=kind, feeding="df_one_by_one",
                      label="adaboost"),
            ModelSpec("ensemble", bagged, transform=kind, feeding="df_one_by_one",
                      label="ensemble"),
            ModelSpec("adaboost", boost, transform=kind, label="adaboost_nodf")]


class TestStackedBacktestMatchesPerItem:
    # A log1p Poisson forecast can overflow expm1; that item then fails.
    @pytest.mark.filterwarnings("ignore:overflow encountered in expm1:RuntimeWarning")
    @settings(max_examples=30, deadline=None)
    @given(backtest_cases())
    def test_random_catalogs(self, case):
        assert_matches_reference(*case)

    @pytest.mark.parametrize("kind", TRANSFORM_KINDS)
    def test_zeroed_item_and_unpenalized_ridge(self, kind):
        tensor = ds.synthesize(26, 20, 45, 4, "anticipatory")
        tensor.values[3] = 0.0
        tensor.values[5] = 4.0
        specs = [ModelSpec("ridge", {"lam": 0.0}, transform=kind, feeding="df_one_by_one",
                           label="r0"),
                 ModelSpec("ridge", transform=kind, feeding="df_all_items", label="r_all"),
                 ModelSpec("kernel", transform=kind, feeding="df_one_by_one", label="k"),
                 ModelSpec("arx", transform=kind, label="arx"),
                 ModelSpec("arx", {"exog": "preorders"}, transform=kind, label="arx_exog")]
        assert_matches_reference(tensor, specs, BacktestSplit(37, 8))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("feeding", ["df_one_by_one", "none"])
    def test_non_finite_item_fails_alone_in_tree_specs(self, feeding):
        # The item's non-finite training rows fail the stacked fit of its
        # block, which is then fitted item by item: under feeding an
        # infinite pre-order, without feeding features that overflow.
        if feeding == "none":
            tensor = self.overflowing_catalog()
        else:
            tensor = ds.synthesize(4, 5, 45, 4, "anticipatory")
            tensor.values[2, 5, 1] = np.inf
        specs = tree_specs("identity")
        assert_matches_reference(tensor, specs, BacktestSplit(37, 8))
        board = backtest(tensor, specs, BacktestSplit(37, 8))
        names = {spec.name for spec in specs if spec.feeding == feeding}
        assert [failure for failure in board.failures if failure[0] in names] == \
            [(spec.name, tensor.items[2], "DomainError: X and Y must be finite")
             for spec in specs if spec.name in names]

    def test_negative_target_item_fails_alone_in_poisson_specs(self):
        # The item's negative targets fail the stacked Poisson fit of its
        # block, which is then fitted item by item.
        tensor = ds.synthesize(4, 5, 45, 4, "anticipatory")
        tensor.values[2, 5] = -1.0
        specs = [ModelSpec("poisson", feeding="df_one_by_one", label="p"),
                 ModelSpec("poisson", label="p_nodf")]
        assert_matches_reference(tensor, specs, BacktestSplit(37, 8))
        board = backtest(tensor, specs, BacktestSplit(37, 8))
        assert board.failures == [
            (name, tensor.items[2], "DomainError: Poisson regression requires "
                                    "non-negative targets") for name in ("p", "p_nodf")]

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("period", [5, 40])
    @pytest.mark.parametrize("kind", TRANSFORM_KINDS)
    def test_non_finite_series_fails_alone_without_feeding(self, kind, period):
        # The item's series is infinite in a training or a test period: its
        # features cannot be extracted, so it fails alone and every other
        # item is fitted and forecast as alone.
        tensor = ds.synthesize(4, 5, 45, 4, "anticipatory")
        tensor.values[2, period, 0] = np.inf
        for family in ("ridge", "lasso", "poisson", "kernel", "adaboost"):
            spec = ModelSpec(family, transform=kind)
            fc, extras = forecast_matrix(tensor, spec, BacktestSplit(37, 8))
            ref, failures = nodf_forecasts_reference(tensor, spec, BacktestSplit(37, 8))
            assert extras["failures"] == failures == \
                {2: "HierfcstError: series must be finite"}, spec
            assert bits(fc) == bits(ref), spec

    @pytest.mark.parametrize("feeding, period, lead", [("df_one_by_one", 5, 1),
                                                       ("none", 5, 0)])
    def test_one_bad_item_leaves_the_others_stacked(self, feeding, period, lead):
        # The items on either side of the bad one are fitted as two stacks;
        # the bad item is fitted alone under feeding, where its own fit
        # raises, and not at all without feeding, where its series has
        # already failed it.
        tensor = ds.synthesize(4, 6, 45, 4, "anticipatory")
        tensor.values[2, period, lead] = np.inf
        spec = ModelSpec("adaboost", {"rounds": 3, "base_depth": 2}, feeding=feeding,
                         label="a")
        stacks = []

        def recording_fit(spec, X, Y, *args, **kwargs):
            stacks.append(len(X) if np.ndim(X) == 3 else None)
            return fit(spec, X, Y, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluate, "fit", recording_fit)
            board = backtest(tensor, [spec], BacktestSplit(37, 8))
        assert stacks == [2, 3] + ([None] if feeding != "none" else [])
        assert [item for _, item, _ in board.failures] == [tensor.items[2]]
        assert_matches_reference(tensor, [spec], BacktestSplit(37, 8))

    @staticmethod
    def overflowing_catalog():
        tensor = ds.synthesize(3, 4, 45, 4)
        rng = np.random.default_rng(0)
        tensor.values[2] = 10.0 ** rng.uniform(290, 308, size=tensor.values[2].shape)
        return tensor

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_item_fails_alone(self):
        tensor = self.overflowing_catalog()
        spec = ModelSpec("ridge", feeding="df_one_by_one", label="r")
        board = backtest(tensor, [spec])
        assert len(board.failures) == 1
        name, item, message = board.failures[0]
        assert item == tensor.items[2]
        assert message.startswith("DomainError: non-finite normal equations")
        assert board.row("r").n_items == 3
        assert np.isfinite(board.row("r").mean_smape)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_item_non_finite_forecasts(self):
        # Kernel ridge turns the item's overflow into NaN forecasts, which
        # fail the item at scoring, as they did per item.
        specs = [ModelSpec("kernel", feeding="df_one_by_one", label="k"),
                 ModelSpec("ridge", transform="log1p", feeding="df_one_by_one", label="r"),
                 ModelSpec("arx", {"exog": "preorders"}, label="a")]
        assert_matches_reference(self.overflowing_catalog(), specs, BacktestSplit(37, 8))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_item_fails_alone_without_feeding(self):
        # The item's features overflow, which fails the stacked fit of its
        # block; the block is then fitted item by item.
        tensor = self.overflowing_catalog()
        specs = [ModelSpec("ridge", label="r"), ModelSpec("kernel", label="k")]
        assert_matches_reference(tensor, specs, BacktestSplit(37, 8))
        board = backtest(tensor, specs)
        assert [(name, item) for name, item, _ in board.failures] == \
            [("r", tensor.items[2]), ("k", tensor.items[2])]
        assert all(message.startswith("DomainError: ") for *_, message in board.failures)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_test_row_fails_its_item_without_feeding(self):
        # The training rows are finite; the test rows' features overflow,
        # so the item's forecasts are NaN and it fails alone at scoring.
        tensor = ds.synthesize(3, 4, 45, 4)
        tensor.values[2, 38:] = 1e300
        spec = ModelSpec("ridge", label="r")
        assert_matches_reference(tensor, [spec], BacktestSplit(37, 8))
        board = backtest(tensor, [spec], BacktestSplit(37, 8))
        assert board.failures == [("r", tensor.items[2],
                                   "HierfcstError: smape requires finite inputs")]
        assert sorted(board.scores["r"]) == [tensor.items[i] for i in (0, 1, 3)]
        assert np.isfinite(board.row("r").mean_smape)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning",
                                "ignore:observed density:RuntimeWarning")
    def test_overflowing_item_fails_the_trmf_spec_and_ridge_is_scored(self):
        tensor = self.overflowing_catalog()
        specs = [ModelSpec("ridge", feeding="df_one_by_one", label="r"),
                 ModelSpec("trmf", label="t")]
        board = backtest(tensor, specs)
        failed = [(item, message) for name, item, message in board.failures if name == "t"]
        assert [item for item, _ in failed] == tensor.items
        assert all(message.startswith("IllConditionedError: ") for _, message in failed)
        assert board.row("r").n_items == 3
        assert np.isfinite(board.row("r").mean_smape)


class TestKernelMemoryBudget:
    """A kernel ridge fit whose kernel stack would pass KERNEL_MAX_BYTES
    fails before it builds it."""

    def test_pooled_kernel_fails_and_per_item_kernel_scores(self, monkeypatch):
        tensor = ds.synthesize(3, 6, 45, 4, "anticipatory")
        split = BacktestSplit(37, 8)
        specs = [ModelSpec("kernel", feeding="df_all_items", label="pooled"),
                 ModelSpec("kernel", feeding="df_one_by_one", label="own")]
        unbounded = backtest(tensor, specs[1:], split)
        # Pooled: one matrix over 6 x 33 rows, 313,632 bytes; per item: a
        # stack of six 33 x 33 matrices, 52,272 bytes.
        monkeypatch.setattr(linear, "KERNEL_MAX_BYTES", 100_000)
        board = backtest(tensor, specs, split)
        message = ("HierfcstError: kernel ridge on 198 rows needs 313632 bytes of kernel "
                   "matrices, over the budget of 100000; fit it per item (df_one_by_one)")
        assert board.failures == [("pooled", item, message) for item in tensor.items]
        assert board.row("pooled").n_items == 0
        assert board.scores["own"] == unbounded.scores["own"]
        assert board.row("own").n_items == 6

    def test_default_budget_stops_the_paper_scale_pooled_design(self):
        # One matrix of 11,585 rows fits in 1 GiB; the pooled design of
        # 2562 items x 33 anchors would take 57 GB.  Only X, a stack of one
        # (84,546 x 10) item, is allocated here.
        assert 11585 ** 2 * 8 <= linear.KERNEL_MAX_BYTES < 11586 ** 2 * 8
        X = np.zeros((1, 2562 * 33, 10))
        with pytest.raises(HierfcstError, match="84546 rows needs 57184208928 bytes"):
            linear.fit_kernel_ridge(X, X, 1e-4)


class TestTreeSpecsFitTheScoredCells:
    """A tree family grows one model per target cell, so a DF backtest fits
    only the cells up to the deepest one it scores, with the forecasts of
    fits on every cell; the other families fit every cell."""

    @staticmethod
    def specs():
        forest = {"max_features": 0.7}          # draws feature subsets per column
        return [ModelSpec(family, params, feeding=feeding, label=f"{family}{j} {feeding}")
                for feeding in DF_FEEDINGS
                for j, (family, params) in enumerate([("rforest", {}), ("rforest", forest),
                                                      ("adaboost", {}), ("ensemble", {})])]

    @pytest.mark.parametrize("split, cells", [(BacktestSplit(37, 8), 4),
                                              (BacktestSplit(30, 8), 1)])
    def test_fitted_cells(self, split, cells):
        # At 37/8 on 45 periods the last test periods fall back to cells
        # (2, 0) and (3, 0), the fourth of the 10 in row-major order; at
        # 30/8 every test period reads the lead-0 cell (1, 0).
        tensor = ds.synthesize(4, 3, 45, 4, "anticipatory")
        specs = self.specs() + [ModelSpec("ridge", feeding=feeding, label=feeding)
                                for feeding in DF_FEEDINGS]
        fitted = {}

        def recording_fit(*args, **kwargs):
            model = fit(*args, **kwargs)
            fitted.setdefault(args[0].name, set()).add(model.n_targets)
            return model

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluate, "fit", recording_fit)
            board = backtest(tensor, specs, split)
        assert not board.failures
        assert fitted == {spec.name: {10 if spec.family == "ridge" else cells}
                          for spec in specs}

    @pytest.mark.parametrize("split", [BacktestSplit(37, 8), BacktestSplit(30, 8)])
    def test_forecasts_of_fits_on_every_cell(self, split):
        assert_matches_reference(ds.synthesize(4, 5, 45, 4, "anticipatory"),
                                 self.specs(), split)

    def test_non_finite_unscored_cell_fails_as_a_fitted_one(self):
        # The infinite pre-order reaches only training targets the trees do
        # not fit; it still fails the item, or the pooled spec's every item.
        tensor = ds.synthesize(4, 5, 45, 4, "anticipatory")
        tensor.values[2, 35, 2] = np.inf
        specs = self.specs()
        assert_matches_reference(tensor, specs, BacktestSplit(37, 8))
        board = backtest(tensor, specs, BacktestSplit(37, 8))
        message = "DomainError: X and Y must be finite"
        assert board.failures == [
            (spec.name, item, message) for spec in specs
            for item in (tensor.items if spec.feeding == "df_all_items" else [tensor.items[2]])]


def bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


@st.composite
def nodf_cases(draw):
    """A small catalog with all-zero and constant items, a split, and
    no-feeding specs in one transform: the stacked families (ridge from
    lam = 0, kernel) and lasso, fitted item by item."""
    n_items = draw(st.integers(1, 6))
    T = draw(st.integers(8, 20))
    n_test = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(0, 50, size=(n_items, T, 2))
    values[rng.random(values.shape) < 0.3] = 0.0
    for i in range(n_items):
        shape = draw(st.sampled_from(["random", "random", "zero", "constant"]))
        if shape != "random":
            values[i] = 0.0 if shape == "zero" else 7.5
    tensor = ds.PreorderTensor(items=[f"i{i}" for i in range(n_items)], values=values,
                               observed_mask=values > 0)
    kind = draw(st.sampled_from(TRANSFORM_KINDS))
    specs = [ModelSpec("ridge", {"lam": lam}, transform=kind) for lam in (0.0, 1e-3, 1.0)]
    specs += [ModelSpec("kernel", transform=kind), ModelSpec("lasso", transform=kind)]
    return tensor, specs, BacktestSplit(T - n_test, n_test)


class TestNoFeedingMatchesPerItem:
    @settings(max_examples=60, deadline=None)
    @given(nodf_cases())
    def test_forecasts_and_failures_bit_for_bit(self, case):
        tensor, specs, split = case
        for spec in specs:
            fc, extras = forecast_matrix(tensor, spec, split)
            ref, failures = nodf_forecasts_reference(tensor, spec, split)
            assert extras["failures"] == failures, spec
            assert bits(fc) == bits(ref), spec

    @pytest.mark.parametrize("train", [2, 3])
    def test_too_few_training_periods_fail_the_spec(self, train):
        tensor = ds.synthesize(1, 3, 6, 2)
        board = backtest(tensor, [ModelSpec("ridge", label="r")], BacktestSplit(train, 2))
        assert [item for _, item, _ in board.failures] == tensor.items
        assert all(message == "HierfcstError: the no-feeding regression needs more "
                   f"than 3 training periods, got {train}" for *_, message in board.failures)

    def test_paper_style_catalog(self):
        tensor = ds.synthesize(26, 40, 45, 4, "anticipatory")
        tensor.values[3] = 0.0
        tensor.values[5] = 4.0
        for kind in TRANSFORM_KINDS:
            for spec in (ModelSpec("ridge", transform=kind), ModelSpec("kernel", transform=kind),
                         ModelSpec("poisson", transform=kind)):
                fc, extras = forecast_matrix(tensor, spec, BacktestSplit(37, 8))
                ref, failures = nodf_forecasts_reference(tensor, spec, BacktestSplit(37, 8))
                assert extras["failures"] == failures
                assert bits(fc) == bits(ref)


class TestNonFiniteForecastsFailTheirItem:
    """A forecast row that is not all finite fails its item alone, with
    smape's message, in every family; the spec's other items are scored."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("start, value, specs", [
        (41, 1e308, [ModelSpec("kernel", feeding="df_one_by_one", label="k")]),
        (42, 1.7e308, [ModelSpec("ridge", feeding="df_one_by_one", label="r1"),
                       ModelSpec("ridge", feeding="df_all_items", label="ra"),
                       ModelSpec("arx", label="a"),
                       ModelSpec("arx", {"exog": "preorders"}, label="ax")]),
    ])
    def test_overflowing_test_periods(self, start, value, specs):
        tensor = ds.synthesize(3, 4, 45, 4)
        tensor.values[2, start:] = value
        assert_matches_reference(tensor, specs, BacktestSplit(37, 8))
        board = backtest(tensor, specs, BacktestSplit(37, 8))
        assert board.failures == [(spec.name, tensor.items[2],
                                   "HierfcstError: smape requires finite inputs")
                                  for spec in specs]
        for spec in specs:
            assert sorted(board.scores[spec.name]) == [tensor.items[i] for i in (0, 1, 3)]

    def test_non_finite_trmf_row(self, monkeypatch):
        rolling_refit = trmf.rolling_refit

        def overflowing(*args, **kwargs):
            rows = rolling_refit(*args, **kwargs)
            rows[3][2] = np.inf
            return rows

        monkeypatch.setattr(trmf, "rolling_refit", overflowing)
        tensor = ds.synthesize(3, 4, 45, 4)
        spec = ModelSpec("trmf", {"max_sweeps": 5}, label="t")
        board = backtest(tensor, [spec], BacktestSplit(37, 8))
        assert board.failures == [("t", tensor.items[2],
                                   "HierfcstError: smape requires finite inputs")]
        assert sorted(board.scores["t"]) == [tensor.items[i] for i in (0, 1, 3)]


@st.composite
def shared_design_cases(draw):
    """A small catalog, a split, and specs that interleave every transform
    kind with both diagonal-feeding modes and no feeding, some (feeding,
    kind) pairs repeated out of order, with an ARX spec among them."""
    n_items = draw(st.integers(1, 4))
    n_leads = draw(st.integers(1, 4))
    T = draw(st.integers(12, 18))
    n_test = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(0, 50, size=(n_items, T, n_leads))
    values[rng.random(values.shape) < 0.2] = 0.0
    tensor = ds.PreorderTensor(items=[f"i{i}" for i in range(n_items)], values=values,
                               observed_mask=values > 0)
    pairs = [(feeding, kind) for feeding in FEEDING_MODES for kind in TRANSFORM_KINDS]
    pairs += draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4))
    pairs = draw(st.permutations(pairs))
    specs = [ModelSpec(draw(st.sampled_from(["ridge", "kernel"])), transform=kind,
                       feeding=feeding, label=f"s{j}")
             for j, (feeding, kind) in enumerate(pairs)]
    specs.insert(draw(st.integers(0, len(specs))), ModelSpec("arx", label="arx"))
    return tensor, specs, BacktestSplit(T - n_test, n_test)


class CountingCalls:
    """Counts the calls backtest makes through hierfcst.evaluate's names
    for the design builders, the names the benchmark's tracer wraps."""

    def __init__(self, mp):
        self.training_sets = []         # transform kind per build_training_set call
        self.frames = 0
        self.features = 0
        build, frame, features = (evaluate.build_training_set, evaluate.feature_frame,
                                  evaluate.extract_features)

        def counting_build(*args, **kwargs):
            self.training_sets.append(kwargs["transforms"].kind)
            return build(*args, **kwargs)

        def counting_frame(*args, **kwargs):
            self.frames += 1
            return frame(*args, **kwargs)

        def counting_features(*args, **kwargs):
            self.features += 1
            return features(*args, **kwargs)

        mp.setattr(evaluate, "build_training_set", counting_build)
        mp.setattr(evaluate, "feature_frame", counting_frame)
        mp.setattr(evaluate, "extract_features", counting_features)


class TestSharedDesigns:
    """backtest builds each design once per (feeding, transform kind) and
    lends it read-only to every spec that reads it."""

    @settings(max_examples=25, deadline=None)
    @given(shared_design_cases())
    def test_one_build_per_kind_and_the_reference_board(self, case):
        tensor, specs, split = case
        assert_matches_reference(tensor, specs, split)
        with pytest.MonkeyPatch.context() as mp:
            calls = CountingCalls(mp)
            backtest(tensor, specs, split)
        assert sorted(calls.training_sets) == sorted(TRANSFORM_KINDS)
        assert calls.frames == len(TRANSFORM_KINDS)
        rows_per_build = split.train_periods - NODF_LAGS + split.test_periods
        assert calls.features == len(TRANSFORM_KINDS) * rows_per_build

    @pytest.mark.parametrize("train, leads, failing", [(4, 4, DF_FEEDINGS),
                                                       (3, 1, ("none",))])
    def test_failed_build_fails_each_spec_with_its_message(self, train, leads, failing):
        # With 4 leads the frames span 5 periods, so 4 training periods hold
        # no training anchor; 3 are too few for the no-feeding lags.
        tensor = ds.synthesize(2, 3, 12, leads)
        split = BacktestSplit(train, 8)
        specs = [ModelSpec("ridge", feeding=feeding, label=f"{feeding}{j}")
                 for j in range(2) for feeding in FEEDING_MODES]
        with pytest.MonkeyPatch.context() as mp:
            calls = CountingCalls(mp)
            board = backtest(tensor, specs, split)
        for spec in specs:
            messages = [m for name, _, m in board.failures if name == spec.name]
            if spec.feeding in failing:
                with pytest.raises(HierfcstError) as err:
                    forecast_matrix(tensor, spec, split)
                assert messages == [f"HierfcstError: {err.value}"] * tensor.n_items
            else:
                assert messages == []
                fc, _ = forecast_matrix(tensor, spec, split)
                for i, item in enumerate(tensor.items):
                    assert bits(board.forecasts[(spec.name, item)]) == bits(fc[i])
        # A build that raised is not kept: each spec needing it builds again.
        assert len(calls.training_sets) == (4 if train == 4 else 1)

    @pytest.mark.parametrize("feeding", FEEDING_MODES)
    def test_a_fit_cannot_write_into_a_shared_design(self, feeding):
        tensor = ds.synthesize(4, 5, 45, 4, "anticipatory")
        seen = []

        def writing_fit(spec, X, Y, *args, **kwargs):
            seen.append((X.flags.writeable, Y.flags.writeable))
            X[...] = 0.0

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluate, "fit", writing_fit)
            with pytest.raises(ValueError, match="read-only"):
                backtest(tensor, [ModelSpec("ridge", feeding=feeding, label="r")])
        assert seen == [(False, False)]


@st.composite
def short_catalog_cases(draw):
    """A small catalog with all-zero items and a partial observation mask
    (unobserved cells zero), H leads, a split whose training periods go
    down to the shortest each feeding mode accepts (H + 1 with diagonal
    feeding, NODF_LAGS + 1 without) and below, and one spec per feeding
    mode and transform kind next to ARX and TRMF."""
    n_items = draw(st.integers(1, 4))
    H = draw(st.integers(1, 4))
    train = draw(st.one_of(st.sampled_from([H, H + 1, NODF_LAGS, NODF_LAGS + 1]),
                           st.integers(2, 12)).filter(lambda t: t >= 2))
    n_test = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(0, 50, size=(n_items, train + n_test, H))
    mask = rng.random(values.shape) < draw(st.sampled_from([0.3, 0.7, 1.0]))
    for i in range(n_items):
        if draw(st.booleans()):
            values[i] = 0.0
    values[~mask] = 0.0
    tensor = ds.PreorderTensor(items=[f"i{i}" for i in range(n_items)], values=values,
                               observed_mask=mask)
    kind = draw(st.sampled_from(TRANSFORM_KINDS))
    specs = [ModelSpec("ridge", {"lam": draw(st.sampled_from([0.0, 1e-3]))},
                       transform=kind, feeding=feeding, label=f"ridge_{feeding}")
             for feeding in FEEDING_MODES]
    specs += [ModelSpec("kernel", transform=kind, feeding="df_all_items", label="kernel"),
              ModelSpec("arx", {"p": 1}, transform=kind, label="arx"),
              ModelSpec("trmf", {"rank": 1, "ar_order": 1, "max_sweeps": 3},
                        transform=kind, label="trmf")]
    return tensor, specs, BacktestSplit(train, n_test)


class TestBacktestOnShortCatalogs:
    @pytest.mark.filterwarnings("ignore:observed density:RuntimeWarning",
                                "ignore:non-stationary AR:RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(short_catalog_cases())
    def test_every_item_scored_or_failed_and_reruns_identical(self, case):
        tensor, specs, split = case
        board = backtest(tensor, specs, split)
        failed = {(name, item): message for name, item, message in board.failures}
        assert len(failed) == len(board.failures)
        for spec in specs:
            for item in tensor.items:
                scored = item in board.scores[spec.name]
                assert scored != ((spec.name, item) in failed), (spec.name, item)
                assert scored or re.fullmatch(r"[A-Z]\w*: .+", failed[spec.name, item],
                                              re.S), failed[spec.name, item]
        nan = np.isnan([row.mean_smape for row in board.rows])
        assert not np.any(nan[:-1] & ~nan[1:]), board.to_csv()
        if split.train_periods <= frame_leads(tensor):
            for spec in specs:
                if spec.feeding in DF_FEEDINGS:
                    assert [m for name, _, m in board.failures if name == spec.name] == \
                        ["HierfcstError: no valid anchors"] * tensor.n_items

        again = backtest(tensor, specs, split)
        assert again.to_csv() == board.to_csv()
        assert again.failures == board.failures
        assert again.forecasts.keys() == board.forecasts.keys()
        for key, fc in board.forecasts.items():
            assert again.forecasts[key].tobytes() == fc.tobytes(), key
