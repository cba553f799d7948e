import numpy as np
import pytest

from hierfcst import dataset as ds
from hierfcst.errors import HierfcstError
from hierfcst.evaluate import (BacktestSplit, backtest, best_forecast_report,
                               forecast_matrix, lag1_mimicry, smape)
from hierfcst.models import ModelSpec

from oracles import smape_ref


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
        fc, extras = forecast_matrix(
            tensor, ModelSpec("ridge", feeding="df_one_by_one", label="d"), split)
        assert "diagonal_smape" in extras and extras["diagonal_smape"].shape == (4,)


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
