"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

The full-dataset criterion is conditional: it runs only when the companion
CSV is available (HIERFCST_DATASET env var or ./data/preorders.csv).
"""

import os
import time

import numpy as np
import pytest

from hierfcst import dataset as ds
from hierfcst import tda
from hierfcst.evaluate import (BacktestSplit, backtest, best_forecast_report,
                               lag1_mimicry, smape)
from hierfcst.features import extract_feature_matrix
from hierfcst.models import ModelSpec, RandomForest, RegressionTree, fit, fit_arx
from hierfcst.models import AdaBoostR2
from hierfcst.models.linear import fit_lasso, fit_poisson, fit_ridge
from hierfcst.preprocess import window_index
from hierfcst.trmf import TrmfConfig, factorize, forecast, objective

from oracles import fiedler_dense, gradient_descent, numeric_grad, pc1_dense


class timer:
    def __init__(self, budget_s):
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.time() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.budget, (
                f"runtime {self.elapsed:.1f}s exceeded {self.budget}s budget")


def _pass(name, note=""):
    print(f"[PASS] {name}{': ' + note if note else ''}")


# ---------------------------------------------------------------------------
# SMAPE unit suite
# ---------------------------------------------------------------------------

def test_smape_unit_suite():
    with timer(1.0) as t:
        assert smape([5.0, 2.0, 7.0], [5.0, 2.0, 7.0]) == pytest.approx(0.0, abs=1e-12)
        assert smape(np.zeros(6), np.arange(1.0, 7.0)) == pytest.approx(200.0, abs=1e-12)
        rng = np.random.default_rng(101)
        for _ in range(1000):
            F = rng.uniform(0, 100, size=5)
            A = rng.uniform(0, 100, size=5)
            c = rng.uniform(0.01, 100)
            v = smape(F, A)
            assert v == pytest.approx(smape(A, F), abs=1e-12)
            assert v == pytest.approx(smape(c * F, c * A), abs=1e-9)
            assert -1e-12 <= v <= 200.0 + 1e-12
        assert smape([0.0, 3.0], [0.0, 3.0]) == pytest.approx(0.0, abs=1e-12)
    _pass("smape-unit-suite", f"{t.elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Diagonal Feeding geometry
# ---------------------------------------------------------------------------

def test_diagonal_feeding_partition_and_layout():
    with timer(1.0) as t:
        for H in range(1, 8):
            W = H + 1
            x_idx, y_idx = window_index(H)
            cells = {(s, h) for s in range(W) for h in range(H)}
            assert set(x_idx) | set(y_idx) == cells
            assert not set(x_idx) & set(y_idx)
            assert len(x_idx) == len(y_idx) == H * (H + 1) // 2
            # availability: input cells are known at the anchor, targets not
            assert all(s <= h for s, h in x_idx)
            assert all(s > h for s, h in y_idx)
            assert x_idx == sorted(x_idx) and y_idx == sorted(y_idx)
        # the printed 4x3 scheme: subscripts of x and y in display order
        x_idx, y_idx = window_index(3)
        assert x_idx == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        assert y_idx == [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]
    _pass("diagonal-feeding-geometry", f"{t.elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Anticipatory-advantage experiment
# ---------------------------------------------------------------------------

def test_anticipatory_advantage_ridge_df_vs_arx():
    with timer(30.0) as t:
        tensor = ds.synthesize(2024, 50, 45, 4, "anticipatory")
        for i in range(tensor.n_items):
            corr = np.corrcoef(tensor.values[i, :, 0], tensor.values[i, :, 1])[0, 1]
            assert corr >= 0.9
        specs = [ModelSpec("ridge", {"lam": 1e-6}, feeding="df_one_by_one",
                           label="ridge df"),
                 ModelSpec("arx", {"p": 3, "exog": "none"}, label="arx no-df")]
        board = backtest(tensor, specs, BacktestSplit(37, 8))
        ridge = board.row("ridge df").mean_smape
        arx = board.row("arx no-df").mean_smape
        assert ridge <= 0.8 * arx, f"ridge {ridge:.2f} vs arx {arx:.2f}"
    _pass("anticipatory-advantage",
          f"ridge {ridge:.2f} vs arx {arx:.2f} ({1 - ridge / arx:.0%} lower), "
          f"{t.elapsed:.1f}s")


# ---------------------------------------------------------------------------
# TRMF criteria
# ---------------------------------------------------------------------------

def test_trmf_objective_monotone_rank1_density_blocks_stationarity():
    with timer(120.0) as t:
        # (a) objective monotone on 20 random instances
        rng = np.random.default_rng(55)
        for _ in range(20):
            Y = rng.normal(size=(13, 6))
            mask = rng.uniform(size=Y.shape) < rng.uniform(0.3, 0.9)
            mask[0] = True
            cfg = TrmfConfig(rank=2, ar_order=2,
                             lam_f=10 ** rng.uniform(-5, -1),
                             lam_z=10 ** rng.uniform(-5, -1),
                             lam_ar=10 ** rng.uniform(-4, -1),
                             max_sweeps=12, tol=0.0, seed=int(rng.integers(1e6)))
            hist = np.array(factorize(Y, mask, cfg).objective_history)
            assert np.all(np.diff(hist) <= 1e-9 * (np.abs(hist[:-1]) + 1e-300))

        # (b) rank-1 exact recovery
        z = rng.normal(size=(30, 1))
        f_row = rng.normal(size=(1, 12))
        Y1 = z @ f_row
        cfg1 = TrmfConfig(rank=1, ar_order=1, lam_f=1e-12, lam_z=1e-12,
                          lam_ar=0.0, max_sweeps=200, tol=1e-15)
        m1 = factorize(Y1, np.ones_like(Y1, bool), cfg1)
        assert np.sqrt(np.mean((m1.reconstruction() - Y1) ** 2)) <= 1e-6

        # (c) 25%-density synthetic: T=100, n=200, d=3, p=2
        gen = np.random.default_rng(42)
        T_all, n, d = 101, 200, 3
        phi_true = np.array([[0.6, 0.25], [1.2, -0.5], [0.3, 0.4]])
        Z = np.zeros((T_all, d))
        Z[0], Z[1] = gen.normal(size=d), gen.normal(size=d)
        for tt in range(2, T_all):
            Z[tt] = (phi_true[:, 0] * Z[tt - 1] + phi_true[:, 1] * Z[tt - 2]
                     + 0.3 * gen.normal(size=d))
        F = gen.normal(size=(d, n))
        clean = Z @ F
        Y = clean + 0.02 * clean.std() * gen.normal(size=clean.shape)
        Ytr = Y[:100]
        cells = 100 * n
        perm = gen.permutation(cells)
        n_obs = int(0.28 * cells)
        held = perm[:n_obs][:int(0.1 * n_obs)]
        fit_idx = perm[:n_obs][int(0.1 * n_obs):]
        fit_mask = np.zeros(cells, bool)
        fit_mask[fit_idx] = True
        fit_mask = fit_mask.reshape(100, n)
        held_mask = np.zeros(cells, bool)
        held_mask[held] = True
        held_mask = held_mask.reshape(100, n)
        assert fit_mask.mean() >= 0.25  # stays above the density floor
        cfg = TrmfConfig(rank=3, ar_order=2, lam_f=1e-5, lam_z=1e-5,
                         lam_ar=1e-3, max_sweeps=200, tol=1e-10, seed=1)
        model = factorize(Ytr, fit_mask, cfg)
        rmse = np.sqrt(np.mean((model.reconstruction() - Ytr)[held_mask] ** 2))
        assert rmse <= 0.1 * Y.std(), f"held-out rmse {rmse:.4f}"
        one_step = forecast(model, 1)[0]
        persistence = np.array([Ytr[:, i][fit_mask[:, i]][-1] for i in range(n)])
        s_model = smape(one_step, Y[100])
        s_pers = smape(persistence, Y[100])
        assert s_model < s_pers, f"trmf {s_model:.1f} vs persistence {s_pers:.1f}"

        # (d) block minimizers match a gradient-descent oracle
        Yb = rng.normal(size=(9, 4))
        maskb = np.ones_like(Yb, bool)
        mb = int(maskb.sum())
        Zb = rng.normal(size=(9, 2))
        Fb = rng.normal(size=(2, 4))
        phib = rng.normal(scale=0.3, size=(2, 1))
        lam_f, lam_z, lam_ar = 0.1, 0.1, 0.4

        from hierfcst.trmf import _band_map, _data_terms, _f_block, _phi_step, _z_block

        def f_obj(Fv):
            return objective(Yb, maskb, Zb, Fv.reshape(2, 4), phib,
                             lam_f, lam_z, lam_ar)

        ref_F = gradient_descent(f_obj, lambda v: numeric_grad(f_obj, v.copy()),
                                 Fb.ravel().copy(), max_iter=4000)
        np.testing.assert_allclose(_f_block(_data_terms(Yb, maskb, mb), Zb, lam_f).ravel(),
                                   ref_F, atol=1e-6)

        def z_obj(Zv):
            return objective(Yb, maskb, Zv.reshape(9, 2), Fb, phib,
                             lam_f, lam_z, lam_ar)

        ref_Z = gradient_descent(z_obj, lambda v: numeric_grad(z_obj, v.copy()),
                                 Zb.ravel().copy(), max_iter=4000)
        np.testing.assert_allclose(
            _z_block(_data_terms(Yb, maskb, mb), _band_map(9, 2, 1), Fb, phib,
                     lam_z, lam_ar).ravel(),
            ref_Z, atol=1e-6)

        def p_obj(pv):
            return objective(Yb, maskb, Zb, Fb, pv.reshape(2, 1),
                             lam_f, lam_z, lam_ar)

        ref_p = gradient_descent(p_obj, lambda v: numeric_grad(p_obj, v.copy()),
                                 phib.ravel().copy(), max_iter=4000)
        np.testing.assert_allclose(_phi_step(Zb, 1).ravel(), ref_p, atol=1e-6)

        # (e) finite-difference stationarity at convergence
        Ys = rng.normal(size=(12, 5))
        masks = np.ones_like(Ys, bool)
        cfgs = TrmfConfig(rank=2, ar_order=2, lam_f=0.05, lam_z=0.05,
                          lam_ar=0.3, max_sweeps=4000, tol=1e-15, seed=2)
        ms = factorize(Ys, masks, cfgs)
        scale = 1e-4 * (1.0 + abs(ms.objective_history[-1]))

        def joint_F(Fv):
            return objective(Ys, masks, ms.Z, Fv.reshape(ms.F.shape), ms.phi,
                             ms.lam_f, ms.lam_z, ms.lam_ar)

        def joint_Z(Zv):
            return objective(Ys, masks, Zv.reshape(ms.Z.shape), ms.F, ms.phi,
                             ms.lam_f, ms.lam_z, ms.lam_ar)

        def joint_phi(pv):
            return objective(Ys, masks, ms.Z, ms.F, pv.reshape(ms.phi.shape),
                             ms.lam_f, ms.lam_z, ms.lam_ar)

        assert np.linalg.norm(numeric_grad(joint_F, ms.F.ravel().copy())) <= scale
        assert np.linalg.norm(numeric_grad(joint_Z, ms.Z.ravel().copy())) <= scale
        assert np.linalg.norm(numeric_grad(joint_phi, ms.phi.ravel().copy())) <= scale
    _pass("trmf-suite",
          f"held-out rmse {rmse:.4f} <= {0.1 * Y.std():.4f}, one-step "
          f"{s_model:.1f} < persistence {s_pers:.1f}, {t.elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Model zoo oracles
# ---------------------------------------------------------------------------

def test_model_zoo_oracles():
    with timer(60.0) as t:
        rng = np.random.default_rng(77)

        # ridge closed form vs gradient descent
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        lam = 0.7
        payload = fit_ridge(X, y[:, None], lam)
        Xb = np.hstack([np.ones((30, 1)), X])
        D = np.eye(5) * lam
        D[0, 0] = 0.0
        ref = gradient_descent(
            lambda b: 0.5 * np.sum((Xb @ b - y) ** 2) + 0.5 * b @ D @ b,
            lambda b: Xb.T @ (Xb @ b - y) + D @ b, np.zeros(5))
        np.testing.assert_allclose(payload.coef[:, 0], ref, atol=1e-6)

        # lasso sweep monotonicity
        Xl = rng.normal(size=(25, 6))
        yl = rng.normal(size=(25, 1))
        hist = np.array(fit_lasso(Xl, yl, lam=0.05, max_sweeps=60)
                        .objective_histories[0])
        assert np.all(np.diff(hist) <= 1e-12)

        # Poisson noise-free recovery
        xp = np.arange(10.0)
        beta = fit_poisson(xp[:, None], np.exp(1.0 + 2.0 * xp)[:, None],
                           lam=0.0, max_iter=500, tol=1e-14).coef[:, 0]
        assert abs(beta[0] - 1.0) < 1e-4 and abs(beta[1] - 2.0) < 1e-4

        # single-tree / forest degenerate equivalence
        Xt = rng.normal(size=(40, 3))
        yt = rng.normal(size=40)
        forest = RandomForest(n_trees=1, max_depth=4, bootstrap=False,
                              max_features=1.0).fit(Xt, yt)
        tree = RegressionTree(max_depth=4).fit(Xt, yt)
        np.testing.assert_array_equal(forest.predict(Xt), tree.predict(Xt))

        # ARX exact recovery on noise-free AR data
        series = np.empty(40)
        series[0] = 3.0
        for i in range(1, 40):
            series[i] = 0.5 * series[i - 1] + 1.0
        model = fit_arx(series, p=1)
        pred = model.payload.one_step(series)
        assert abs(pred - (0.5 * series[-1] + 1.0)) < 1e-8

        # AdaBoost.R2 monotone non-increasing training SMAPE on a step target
        levels = np.array([1.0, 3.0, 6.0, 4.0, 2.0, 5.0])
        Xs = np.arange(30.0)[:, None]
        ys = np.repeat(levels, 5)
        boost = AdaBoostR2(rounds=12, base_depth=3).fit(Xs, ys)
        staged = [smape(boost.predict(Xs, upto=k), ys)
                  for k in range(1, len(boost.trees) + 1)]
        assert len(staged) >= 2
        assert all(b <= a + 1e-9 for a, b in zip(staged, staged[1:]))
        assert staged[-1] <= 1e-9
    _pass("model-zoo-oracles", f"{t.elapsed:.1f}s")


# ---------------------------------------------------------------------------
# TDA pipeline criteria
# ---------------------------------------------------------------------------

def two_regime_tensor(seed=0, n_per=100, T=45, H=4):
    """Regime A: anticipatory driver (diagonal ridge wins); regime B: exact
    sinusoidal AR(2) gross demand with uninformative leads (ARX wins)."""
    rng = np.random.default_rng(seed)
    values = np.zeros((2 * n_per, T, H))
    for i in range(n_per):
        base = rng.uniform(30, 150)
        driver = base * np.exp(0.5 * rng.standard_normal(T))
        fade = [1.0, 1.0, 0.8, 0.6]
        for h in range(H):
            noise = 1 + 0.03 * rng.standard_normal(T)
            values[i, :, h] = np.maximum(driver * fade[h % len(fade)] * noise, 0.0)
    for i in range(n_per, 2 * n_per):
        level = rng.uniform(50, 200)
        period = rng.uniform(6.5, 9.5)
        phase = rng.uniform(0, 2 * np.pi)
        amp = level * rng.uniform(0.3, 0.5)
        tt = np.arange(T)
        q0 = level + amp * np.sin(2 * np.pi * tt / period + phase)
        values[i, :, 0] = np.maximum(q0 * (1 + 1e-4 * rng.standard_normal(T)), 0.5)
        for h in range(1, H):
            noise = 1 + 0.3 * rng.standard_normal(T)
            values[i, :, h] = np.maximum(level * 0.3 * noise, 0.0)
    items = [f"s{i:03d}" for i in range(2 * n_per)]
    return ds.PreorderTensor(items=items, values=values,
                             observed_mask=np.ones_like(values, bool))


def test_tda_pipeline_metric_pca_fiedler_selection_determinism():
    with timer(120.0) as t:
        rng = np.random.default_rng(88)

        # Canberra metric properties on 10^4 random triples
        U = rng.uniform(0, 10, size=(10000, 3, 5))
        for u, v, w in U:
            duv = tda.canberra(u, v)
            assert 0.0 <= duv <= 5.0
            assert duv == pytest.approx(tda.canberra(v, u), abs=1e-12)
            assert duv <= tda.canberra(u, w) + tda.canberra(w, v) + 1e-12

        # PC1 vs dense eigendecomposition
        for _ in range(10):
            X = rng.normal(size=(50, 7)) @ np.diag(rng.uniform(0.5, 4, size=7))
            Xs, _ = tda.standardize_columns(X)
            v, _ = tda.first_principal_component(Xs)
            ref, _ = pc1_dense(Xs)
            assert np.arccos(np.clip(abs(v @ ref), -1, 1)) < 1e-6

        # Fiedler split of the 4-node path graph vs brute-force eigen oracle
        adj = np.zeros((4, 4))
        for a, b in [(0, 1), (1, 2), (2, 3)]:
            adj[a, b] = adj[b, a] = 1.0
        fv = tda.fiedler_vector(adj)
        np.testing.assert_allclose(fv, fiedler_dense(adj), atol=1e-8)
        assert {i for i in range(4) if fv[i] < 0} in ({0, 1}, {2, 3})

        # Two-regime selection benchmark: 200 series, 5 candidate models
        tensor = two_regime_tensor()
        specs = [
            ModelSpec("ridge", {"lam": 1e-6}, feeding="df_one_by_one",
                      label="ridge_df"),
            ModelSpec("arx", {"p": 3}, label="arx"),
            ModelSpec("rforest", {"n_trees": 20, "max_depth": 3, "seed": 1},
                      label="rforest"),
            ModelSpec("adaboost", {"rounds": 10, "base_depth": 2},
                      label="adaboost"),
            ModelSpec("kernel", {"lam": 0.1}, label="kernel"),
        ]
        split = BacktestSplit(37, 8)
        board = backtest(tensor, specs, split)
        labels = [board.best_model[item] for item in tensor.items]
        series = [tensor.gross_series(i)[:37] for i in range(tensor.n_items)]
        feats = extract_feature_matrix(series)

        def run_pipeline():
            graph = tda.mapper(feats, n_intervals=10, overlap=0.3)
            tda.fiedler_partition(graph, min_cluster_size=10)  # 5% of 200
            sel = tda.label_and_route(graph, feats, labels, k=5)
            routed = [sel.route_features(feats[i]) for i in range(len(labels))]
            return graph, sel, routed

        graph, sel, routed = run_pipeline()
        err = np.mean([routed[i] != labels[i] for i in range(len(labels))])
        assert err <= 0.10, f"selection error {err:.3f}"
        shares = sel.cluster_shares()
        assert sum(shares.values()) == pytest.approx(100.0, abs=1e-9)

        # end-to-end determinism: byte-identical artifacts on a second run
        graph2, _, routed2 = run_pipeline()
        assert graph.to_json() == graph2.to_json()
        assert graph.to_dot() == graph2.to_dot()
        assert routed == routed2
    _pass("tda-pipeline",
          f"selection error {err:.1%}, {t.elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Dataset-conditional full backtest
# ---------------------------------------------------------------------------

def _companion_dataset_path():
    env = os.environ.get("HIERFCST_DATASET")
    if env and os.path.exists(env):
        return env
    default = os.path.join(os.path.dirname(__file__), "..", "data",
                           "preorders.csv")
    return default if os.path.exists(default) else None


def test_companion_dataset_backtest_directional():
    path = _companion_dataset_path()
    if path is None:
        pytest.skip("companion dataset not present (set HIERFCST_DATASET or "
                    "place data/preorders.csv); dataset-conditional criterion "
                    "skipped")
    with timer(30 * 60) as t:
        tensor = ds.load_csv(path)
        assert tensor.n_items == 2562 and tensor.n_periods == 45, \
            "companion dataset reference shape"
        split = BacktestSplit(37, 8)
        specs = [
            ModelSpec("adaboost", {"rounds": 15, "base_depth": 3},
                      feeding="df_one_by_one", label="adaboost df"),
            ModelSpec("arx", {"p": 3, "exog": "preorders"},
                      label="ARX (ARIMAX surrogate)"),
            ModelSpec("ridge", {"lam": 1.0}, feeding="df_one_by_one",
                      label="ridge df"),
            ModelSpec("ridge", {"lam": 1.0}, label="ridge no-df"),
        ]
        board = backtest(tensor, specs, split)
        ada = board.row("adaboost df").mean_smape
        arx = board.row("ARX (ARIMAX surrogate)").mean_smape
        rdf = board.row("ridge df").mean_smape
        rnd = board.row("ridge no-df").mean_smape
        assert ada < arx, f"adaboost {ada:.3f} vs arx {arx:.3f}"
        assert rdf < rnd, f"ridge df {rdf:.3f} vs no-df {rnd:.3f}"
    _pass("companion-dataset-backtest",
          f"adaboost {ada:.2f} < arx {arx:.2f}; ridge df {rdf:.2f} < "
          f"no-df {rnd:.2f}; {t.elapsed:.0f}s")


# ---------------------------------------------------------------------------
# Lag-1 mimicry diagnostic
# ---------------------------------------------------------------------------

def test_lag1_mimicry_diagnostic():
    with timer(5.0) as t:
        rng = np.random.default_rng(99)

        # constructed shifted forecast: flagged
        actual = rng.uniform(1, 10, size=9)
        flag, _, _ = lag1_mimicry(actual[:-1], actual[1:], actual[0])
        assert flag

        # perfect forecast: not flagged
        flag, _, _ = lag1_mimicry(actual, actual, 5.0)
        assert not flag

        # random-walk ARX fit: flagged through the report path
        T = 45
        walk = np.abs(20.0 + np.cumsum(rng.normal(size=T)))
        values = walk[None, :, None] * np.ones((1, T, 2))
        tensor = ds.PreorderTensor(items=["rw"], values=values,
                                   observed_mask=np.ones_like(values, bool))
        board = backtest(tensor, [ModelSpec("arx", {"p": 1}, label="arx")],
                         BacktestSplit(37, 8))
        report = best_forecast_report(board, "rw")
        assert report.mimicry_flag
    _pass("lag1-mimicry", f"{t.elapsed:.1f}s")
