import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from hierfcst.errors import (DomainError, HierfcstError, IllConditionedError,
                             OutOfScopeError)
from hierfcst.evaluate import smape
from hierfcst.models import (AdaBoostR2, ModelSpec, RandomForest,
                             RegressionTree, default_hyperparams, fit,
                             fit_adaboost_r2, fit_arx, predict)
from hierfcst.models.arx import fit_arx_payload, lag_matrix
from hierfcst.models.linear import (_cho_solve, _refined_solve, fit_kernel_ridge,
                                    fit_lasso, fit_poisson, fit_ridge, median_bandwidth,
                                    pairwise_sq_dists, rbf_kernel)
from hierfcst.preprocess import TargetTransform

from oracles import gradient_descent, newton_poisson, poisson_fits


class TestModelSpec:
    def test_out_of_scope_families_rejected(self):
        for family in ("bsts", "bsts_classifier", "nn", "svr", "arima", "arimax"):
            with pytest.raises(OutOfScopeError) as err:
                ModelSpec(family=family)
            assert "out of scope" in str(err.value)

    def test_unknown_family(self):
        with pytest.raises(HierfcstError):
            ModelSpec(family="prophet")

    def test_hyperparam_validation(self):
        with pytest.raises(HierfcstError):
            ModelSpec("ridge", {"lam": -1.0})
        with pytest.raises(HierfcstError):
            ModelSpec("arx", {"p": 0})
        with pytest.raises(HierfcstError):
            ModelSpec("rforest", {"n_trees": 0})
        with pytest.raises(HierfcstError):
            ModelSpec("kernel", {"bandwidth": -2.0})
        with pytest.raises(HierfcstError):
            ModelSpec("ridge", {"nonsense": 1})

    def test_defaults_merged_and_recorded(self):
        spec = ModelSpec("lasso", {"lam": 0.5})
        assert spec.hyperparams["lam"] == 0.5
        assert spec.hyperparams["max_sweeps"] == default_hyperparams("lasso")["max_sweeps"]
        cfg = spec.resolved_config()
        assert cfg["hp.lam"] == 0.5 and cfg["family"] == "lasso"

    def test_arx_surrogate_label(self):
        spec = ModelSpec("arx", {"exog": "preorders"})
        assert spec.name == "ARX (ARIMAX surrogate)"


class TestRidge:
    def test_two_point_ols(self):
        model = fit(ModelSpec("ridge", {"lam": 0.0}, clip_negative=False),
                    np.array([[0.0], [1.0]]), np.array([[1.0], [3.0]]))
        coef = model.payload.coef
        assert abs(coef[0, 0] - 1.0) < 1e-12  # intercept
        assert abs(coef[1, 0] - 2.0) < 1e-12  # slope

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(3)
        for lam in (0.0, 0.3, 2.0):
            X = rng.normal(size=(40, 4))
            y = rng.normal(size=40)
            payload = fit_ridge(X, y[:, None], lam)
            Xb = np.hstack([np.ones((40, 1)), X])
            D = np.eye(5) * lam
            D[0, 0] = 0.0

            def f(b):
                r = Xb @ b - y
                return 0.5 * r @ r + 0.5 * b @ D @ b

            def g(b):
                return Xb.T @ (Xb @ b - y) + D @ b

            ref = gradient_descent(f, g, np.zeros(5))
            np.testing.assert_allclose(payload.coef[:, 0], ref, atol=1e-6)

    def test_singular_unpenalized_raises(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # duplicate columns
        with pytest.raises(IllConditionedError) as err:
            fit_ridge(X, np.array([[1.0], [2.0], [3.0]]), 0.0)
        assert "lam" in str(err.value)

    def test_penalty_fixes_singularity(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        payload = fit_ridge(X, np.array([[1.0], [2.0], [3.0]]), 0.1)
        assert np.all(np.isfinite(payload.coef))


class TestLasso:
    def test_full_shrinkage_leaves_mean(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        y = rng.normal(loc=5.0, size=(30, 1))
        payload = fit_lasso(X, y, lam=1e6)
        np.testing.assert_array_equal(payload.coefs, 0.0)
        assert abs(payload.intercepts[0] - y.mean()) < 1e-9

    def test_objective_non_increasing_per_sweep(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            X = rng.normal(size=(25, 6))
            y = rng.normal(size=(25, 1))
            payload = fit_lasso(X, y, lam=0.05, max_sweeps=50)
            hist = np.array(payload.objective_histories[0])
            assert np.all(np.diff(hist) <= 1e-12)

    def test_recovers_sparse_signal(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(200, 8))
        w = np.zeros(8)
        w[2], w[5] = 3.0, -2.0
        y = X @ w + 1.5
        payload = fit_lasso(X, y[:, None], lam=1e-4, max_sweeps=2000, tol=1e-12)
        np.testing.assert_allclose(payload.coefs[:, 0], w, atol=1e-2)


class TestPoisson:
    def test_noise_free_recovery(self):
        x = np.arange(10.0)
        y = np.exp(1.0 + 2.0 * x)
        payload = fit_poisson(x[:, None], y[:, None], lam=0.0, max_iter=500,
                              tol=1e-14)
        beta = payload.coef[:, 0]
        assert abs(beta[0] - 1.0) < 1e-4
        assert abs(beta[1] - 2.0) < 1e-4
        Xb = np.hstack([np.ones((10, 1)), x[:, None]])
        ref = newton_poisson(Xb, y)
        np.testing.assert_allclose(beta, ref, atol=1e-6)

    def test_loglik_non_decreasing(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 3))
        y = rng.poisson(np.exp(0.3 + X @ np.array([0.5, -0.2, 0.1]))).astype(float)
        payload = fit_poisson(X, y[:, None], lam=0.0)
        hist = np.array(payload.ll_histories[0])
        assert np.all(np.diff(hist) >= -1e-9 * (1 + np.abs(hist[:-1])))

    def test_fractional_targets_accepted(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 2))
        y = rng.uniform(0.0, 1.0, size=(40, 1))  # min-max style targets
        payload = fit_poisson(X, y, lam=1e-6)
        assert np.all(np.isfinite(payload.coef))

    def test_negative_targets_rejected(self):
        with pytest.raises(DomainError):
            fit_poisson(np.ones((3, 1)), np.array([[1.0], [-0.5], [2.0]]))


class TestKernelRidge:
    def test_interpolates_at_zero_penalty(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(25, 3))
        Y = rng.normal(size=(25, 2))
        model = fit(ModelSpec("kernel", {"lam": 0.0}, clip_negative=False), X, Y)
        np.testing.assert_allclose(model.predict(X), Y, atol=1e-6)

    def test_explicit_bandwidth(self):
        X = np.array([[0.0], [1.0], [2.0]])
        model = fit(ModelSpec("kernel", {"lam": 1e-8, "bandwidth": 0.7},
                              clip_negative=False), X, np.array([[1.0], [2.0], [3.0]]))
        assert model.payload.bandwidth == 0.7

    def test_one_row_takes_the_unit_bandwidth(self):
        # One row has no pairwise distance to take the median of.
        spec = ModelSpec("kernel", clip_negative=False)
        assert fit(spec, [[2.0, 3.0]], [[5.0]]).payload.bandwidth == 1.0
        stacked = fit(spec, np.ones((3, 1, 2)), np.ones((3, 1, 1)))
        np.testing.assert_array_equal(stacked.payload.bandwidth, [1.0, 1.0, 1.0])


class TestTrees:
    def test_stump_predicts_mean(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        forest = RandomForest(n_trees=1, max_depth=0, bootstrap=False).fit(X, y)
        np.testing.assert_allclose(forest.predict(X), y.mean(), atol=1e-12)

    def test_forest_reduces_to_plain_tree(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        forest = RandomForest(n_trees=1, max_depth=4, bootstrap=False,
                              max_features=1.0).fit(X, y)
        tree = RegressionTree(max_depth=4).fit(X, y)
        np.testing.assert_array_equal(forest.predict(X), tree.predict(X))

    def test_tree_fits_step_function(self):
        X = np.arange(20.0)[:, None]
        y = (X[:, 0] >= 10).astype(float)
        tree = RegressionTree(max_depth=2).fit(X, y)
        np.testing.assert_allclose(tree.predict(X), y, atol=1e-12)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        perm = rng.permutation(50)
        t1 = RegressionTree(max_depth=5).fit(X, y)
        t2 = RegressionTree(max_depth=5).fit(X[perm], y[perm])
        grid = rng.normal(size=(20, 4))
        np.testing.assert_allclose(t1.predict(grid), t2.predict(grid), atol=1e-12)


class TestAdaBoostR2:
    def test_one_round_equals_single_tree(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        boost = AdaBoostR2(rounds=1, base_depth=3).fit(X, y)
        tree = RegressionTree(max_depth=3).fit(X, y)
        np.testing.assert_array_equal(boost.predict(X), tree.predict(X))

    def test_constant_targets_no_error(self):
        X = np.arange(12.0)[:, None]
        boost = AdaBoostR2(rounds=5, base_depth=2).fit(X, np.full(12, 3.3))
        np.testing.assert_allclose(boost.predict(X), 3.3, atol=1e-12)

    def test_seed_determinism(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        a = fit_adaboost_r2(X, y[:, None], rounds=8, base_depth=2, seed=4)
        b = fit_adaboost_r2(X, y[:, None], rounds=8, base_depth=2, seed=4)
        np.testing.assert_array_equal(a.predict(X, clip=False),
                                      b.predict(X, clip=False))

    def test_training_smape_non_increasing_on_step_target(self):
        levels = np.array([1.0, 3.0, 6.0, 4.0, 2.0, 5.0])
        X = np.arange(30.0)[:, None]
        y = np.repeat(levels, 5)
        boost = AdaBoostR2(rounds=12, base_depth=3).fit(X, y)
        staged = [smape(boost.predict(X, upto=k), y)
                  for k in range(1, len(boost.trees) + 1)]
        assert len(staged) >= 3  # boosting genuinely iterates here
        assert all(b <= a + 1e-9 for a, b in zip(staged, staged[1:]))
        assert staged[-1] <= 1e-9  # noiseless target eventually nailed


class TestArx:
    def test_constant_series_forecast(self):
        model = fit_arx(np.full(20, 7.0), p=2)
        fc = model.payload.forecast(np.full(20, 7.0), steps=5)
        np.testing.assert_allclose(fc, 7.0, atol=1e-8)

    def test_exact_ar1_recovery(self):
        y = np.empty(30)
        y[0] = 4.0
        for t in range(1, 30):
            y[t] = 0.5 * y[t - 1]
        model = fit_arx(y, p=1)
        one_step = model.payload.one_step(y)
        assert abs(one_step - 0.5 * y[-1]) < 1e-8

    def test_lag_mimic_on_identity_relation(self):
        # y_t = y_{t-1} exactly: the fit reproduces the last value.
        y = np.full(25, 3.25)
        model = fit_arx(y, p=1)
        assert abs(model.payload.one_step(y) - y[-1]) < 1e-8

    def test_ar2_monte_carlo_recovery(self):
        # A single AR fit has coefficient standard error ~1/sqrt(T); average
        # the estimates over replicates to pin them within 1e-2.
        rng = np.random.default_rng(12)
        a1, a2 = 0.6, -0.3  # roots inside the unit disk
        estimates = []
        for _ in range(40):
            y = np.zeros(1000)
            y[0], y[1] = rng.normal(size=2)
            for t in range(2, 1000):
                y[t] = a1 * y[t - 1] + a2 * y[t - 2] + 0.1 * rng.standard_normal()
            estimates.append(fit_arx(y, p=2).payload.phi)
        mean_phi = np.mean(estimates, axis=0)
        assert abs(mean_phi[0] - a1) < 1e-2
        assert abs(mean_phi[1] - a2) < 1e-2

    def test_exogenous_regressors(self):
        rng = np.random.default_rng(13)
        ex = rng.normal(size=(60, 1))
        y = np.zeros(60)
        for t in range(1, 60):
            y[t] = 0.4 * y[t - 1] + 2.0 * ex[t, 0]
        model = fit_arx(y, exog=ex, p=1)
        assert abs(model.payload.phi[0] - 0.4) < 1e-8
        assert abs(model.payload.beta[0] - 2.0) < 1e-8

    def test_too_short_series(self):
        with pytest.raises(HierfcstError):
            fit_arx(np.ones(3), p=2)


class TestFitPredictSurface:
    def test_dimension_mismatch(self):
        model = fit(ModelSpec("ridge"), np.ones((4, 2)), np.ones((4, 1)))
        with pytest.raises(HierfcstError):
            model.predict(np.ones((3, 5)))

    def test_row_mismatch_and_empties(self):
        with pytest.raises(HierfcstError):
            fit(ModelSpec("ridge"), np.ones((4, 2)), np.ones((3, 1)))
        with pytest.raises(HierfcstError):
            fit(ModelSpec("ridge"), np.ones((0, 2)), np.ones((0, 1)))

    def test_nonfinite_rejected(self):
        X = np.ones((4, 2))
        X[0, 0] = np.nan
        with pytest.raises(DomainError):
            fit(ModelSpec("ridge"), X, np.ones((4, 1)))

    def test_negative_predictions_clipped(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        Y = np.array([[3.0], [2.0], [1.0], [0.0]])  # heading negative
        model = fit(ModelSpec("ridge", {"lam": 0.0}), X, Y)
        clipped = model.predict(np.array([[10.0]]))
        assert clipped[0, 0] == 0.0
        raw = model.predict(np.array([[10.0]]), clip=False)
        assert raw[0, 0] < 0.0

    def test_inverse_transform_applied(self):
        tf = TargetTransform.fit("log1p", np.array([0.0, 10.0]))
        X = np.array([[0.0], [1.0]])
        Y_raw = np.array([[3.0], [9.0]])
        model = fit(ModelSpec("ridge", {"lam": 0.0}), X, tf.forward(Y_raw),
                    transform=tf)
        np.testing.assert_allclose(model.predict(X), Y_raw, rtol=1e-9)

    def test_multi_output_per_column_independent(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(30, 3))
        Y = rng.normal(size=(30, 2))
        both = fit(ModelSpec("ridge", {"lam": 0.5}, clip_negative=False), X, Y)
        left = fit(ModelSpec("ridge", {"lam": 0.5}, clip_negative=False), X, Y[:, :1])
        np.testing.assert_allclose(both.predict(X)[:, 0], left.predict(X)[:, 0],
                                   atol=1e-12)

    def test_row_permutation_invariance_deterministic_families(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(40, 3))
        Y = np.abs(rng.normal(size=(40, 1)))
        grid = rng.normal(size=(10, 3))
        perm = rng.permutation(40)
        for family, hp in [("ridge", {"lam": 0.1}), ("lasso", {"lam": 0.01}),
                           ("poisson", {"lam": 1e-6}), ("kernel", {"lam": 0.1})]:
            a = fit(ModelSpec(family, hp, clip_negative=False), X, Y)
            b = fit(ModelSpec(family, hp, clip_negative=False), X[perm], Y[perm])
            np.testing.assert_allclose(a.predict(grid), b.predict(grid), atol=1e-8,
                                       err_msg=family)

    def test_row_permutation_invariance_trees_fixed_resample(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(40, 3))
        Y = rng.normal(size=(40, 1))
        grid = rng.normal(size=(10, 3))
        perm = rng.permutation(40)
        for spec in (ModelSpec("rforest", {"n_trees": 3, "bootstrap": False},
                               clip_negative=False),
                     ModelSpec("adaboost", {"rounds": 5, "base_depth": 2},
                               clip_negative=False)):
            a = fit(spec, X, Y)
            b = fit(spec, X[perm], Y[perm])
            np.testing.assert_allclose(a.predict(grid), b.predict(grid),
                                       atol=1e-12, err_msg=spec.family)

    def test_series_families_reject_matrix_fit(self):
        with pytest.raises(HierfcstError):
            fit(ModelSpec("arx"), np.ones((5, 2)), np.ones((5, 1)))
        with pytest.raises(HierfcstError):
            fit(ModelSpec("trmf"), np.ones((5, 2)), np.ones((5, 1)))

    def test_predict_module_function(self):
        model = fit(ModelSpec("ridge"), np.ones((4, 2)), np.ones((4, 1)))
        np.testing.assert_array_equal(predict(model, np.ones((2, 2))),
                                      model.predict(np.ones((2, 2))))

    def test_ensemble_family_fits(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(30, 2))
        Y = np.abs(rng.normal(size=(30, 1)))
        model = fit(ModelSpec("ensemble", {"n_bags": 2, "boost_rounds": 5}), X, Y)
        assert model.predict(X).shape == (30, 1)


class TestPoissonConverged:
    def _problem(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 3))
        Y = rng.poisson(np.exp(0.3 + X @ np.array([0.5, -0.2, 0.1])))
        return X, np.column_stack([Y, Y + 1]).astype(float)

    def test_capped_fit_is_not_converged(self):
        X, Y = self._problem()
        payload = fit_poisson(X, Y, lam=0.0, max_iter=1)
        assert [len(h) - 1 for h in payload.ll_histories] == [1, 1]
        assert payload.converged == [False, False]

    def test_fit_stopped_by_tol_is_converged(self):
        X, Y = self._problem()
        hp = default_hyperparams("poisson")
        payload = fit(ModelSpec("poisson"), X, Y).payload
        assert all(len(h) - 1 < hp["max_iter"] for h in payload.ll_histories)
        assert payload.converged == [True, True]


def _bits(values):
    return np.ascontiguousarray(values, dtype=float).tobytes()


def assert_poisson_matches_one_fit_at_a_time(X, Y, lam, max_iter):
    """fit_poisson's lockstep fits of a stack X (items, n, k), Y (items, n, m)
    give each (item, target) fit alone, bit for bit: coefficients,
    log-likelihood histories, converged and lstsq fallbacks; so does the
    fit of each item on its own."""
    payload = fit_poisson(X, Y, lam, max_iter)
    m = Y.shape[-1]
    for i in range(len(X)):
        coef, histories, converged, fallbacks = poisson_fits(X[i], Y[i], lam, max_iter)
        alone = fit_poisson(X[i], Y[i], lam, max_iter)
        fits = slice(i * m, (i + 1) * m)
        for coefs, lls in ((payload.coef[i], payload.ll_histories[fits]),
                           (alone.coef, alone.ll_histories)):
            assert _bits(coefs) == _bits(coef)
            assert [_bits(h) for h in lls] == [_bits(h) for h in histories]
        assert payload.converged[fits] == alone.converged == converged
        assert payload.lstsq_fallbacks[fits] == alone.lstsq_fallbacks == fallbacks
    assert payload.failures == {}
    return payload


def _poisson_stack(seed):
    """A stack of Poisson problems with fractional targets; on about half of
    the draws one all-zero target, and one item with a zero column, whose
    IRLS system is singular at lam = 0; lam 0 or positive, iteration caps
    from 1."""
    rng = np.random.default_rng(seed)
    items, n, k, m = (int(v) for v in rng.integers([1, 2, 1, 1], [6, 25, 6, 4]))
    X = rng.normal(size=(items, n, k))
    Y = rng.poisson(2.0, size=(items, n, m)) * rng.uniform(0.5, 1.5, size=(items, n, m))
    if rng.random() < 0.5:
        Y[rng.integers(items), :, rng.integers(m)] = 0.0
    if rng.random() < 0.5:
        X[rng.integers(items), :, rng.integers(k)] = 0.0
    return X, Y, float(rng.choice([0.0, 1e-6, 1.0])), int(rng.choice([1, 2, 200]))


class TestPoissonLockstep:
    """Every (item, target) IRLS fit runs in lockstep; each must keep the
    bits of the one-fit-at-a-time solver in tests/oracles.py."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1).map(_poisson_stack))
    def test_bit_for_bit(self, problem):
        assert_poisson_matches_one_fit_at_a_time(*problem)

    def test_all_zero_target(self):
        X, Y, _, _ = _poisson_stack(3)
        Y[1, :, 0] = 0.0
        payload = assert_poisson_matches_one_fit_at_a_time(X, Y, 0.0, 200)
        assert payload.converged[Y.shape[-1]]
        assert payload.predict_raw(X)[1, :, 0].max() < 1e-6

    @pytest.mark.parametrize("lam", [0.0, 1e-6])
    def test_singular_system_counts_its_lstsq_fallbacks(self, lam):
        # A zero column makes item 1's IRLS system singular at lam = 0: the
        # stacked solve raises, each fit is solved alone, and only item 1's
        # fits fall back to least squares, each once per iteration.
        X, Y, _, _ = _poisson_stack(5)
        X[1, :, 0] = 0.0
        payload = assert_poisson_matches_one_fit_at_a_time(X, Y, lam, 200)
        m = Y.shape[-1]
        iterations = [len(h) - 1 for h in payload.ll_histories]
        expect = [iterations[f] if lam == 0.0 and f // m == 1 else 0
                  for f in range(len(X) * m)]
        assert payload.lstsq_fallbacks == expect
        assert sum(expect) > 0 or lam > 0.0

    def test_failed_solve_fails_its_item_alone(self, monkeypatch):
        # A least-squares solve that raises fails the item of its fit; the
        # stack's other items are fitted as alone.
        X, Y, _, _ = _poisson_stack(5)
        X[1, :, 0] = 0.0

        def lstsq(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        payload = fit_poisson(X, Y, 0.0)
        assert list(payload.failures) == [1]
        assert str(payload.failures[1]) == "SVD did not converge in Linear Least Squares"
        assert np.isnan(payload.coef[1]).all()
        for i in (0, 2):
            assert _bits(payload.coef[i]) == _bits(fit_poisson(X[i], Y[i], 0.0).coef)
        with pytest.raises(np.linalg.LinAlgError):
            fit_poisson(X[1], Y[1], 0.0)

    def test_negative_target_rejects_the_stack(self):
        X, Y, _, _ = _poisson_stack(5)
        Y[2, 3, 0] = -0.5
        with pytest.raises(DomainError):
            fit_poisson(X, Y)


def normal_equations(X, Y, lam):
    """Ridge's normal equations X'X + lam*D, X'Y with an unpenalized bias."""
    Xb = np.concatenate([np.ones(X.shape[:-1] + (1,)), X], axis=-1)
    penalty = np.eye(Xb.shape[-1]) * lam
    penalty[0, 0] = 0.0
    Xt = np.swapaxes(Xb, -1, -2)
    return Xt @ Xb + penalty, Xt @ Y


class TestLapackHandles:
    """Ridge and ARX solve through LAPACK handles: the bits of the scipy and
    numpy calls they replace, and the same items failing with the same
    errors."""

    @pytest.mark.parametrize("lam", [0.0, 1e-3, 1.0])
    def test_cho_solve_matches_scipy_item_by_item(self, lam):
        rng = np.random.default_rng(11)
        A, B = normal_equations(rng.gamma(0.5, 20, size=(30, 33, 10)),
                                rng.gamma(0.5, 20, size=(30, 33, 10)), lam)
        for k in range(len(A)):
            got = _cho_solve(A[k], B[k])
            want = cho_solve(cho_factor(A[k], check_finite=False), B[k], check_finite=False)
            assert got.tobytes() == want.tobytes()
            assert got.flags.f_contiguous == want.flags.f_contiguous

    def test_cho_solve_raises_linalg_error_on_singular_item(self):
        A, B = normal_equations(np.zeros((1, 6, 2)), np.ones((1, 6, 1)), 0.0)
        with pytest.raises(np.linalg.LinAlgError):
            _cho_solve(A[0], B[0])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_singular_and_overflowing_items_fail_alone(self, lam):
        rng = np.random.default_rng(12)
        X = rng.gamma(0.5, 20, size=(5, 33, 10))
        Y = rng.gamma(0.5, 20, size=(5, 33, 10))
        X[1, :, 4] = 0.0                 # singular normal equations at lam = 0
        X[3] = 1e200                     # X'X overflows
        payload = fit_ridge(X, Y, lam)
        singular = {1} if lam == 0.0 else set()
        assert set(payload.failures) == singular | {3}
        for k in range(len(X)):
            if k in payload.failures:
                assert np.isnan(payload.coef[k]).all()
                cls = IllConditionedError if k in singular else DomainError
                with pytest.raises(cls) as err:
                    fit_ridge(X[k], Y[k], lam)
                assert type(payload.failures[k]) is cls
                assert str(payload.failures[k]) == str(err.value)
            else:
                A, B = normal_equations(X[k], Y[k], lam)
                want = cho_solve(cho_factor(A, check_finite=False), B, check_finite=False)
                assert payload.coef[k].tobytes() == want.tobytes()
                assert fit_ridge(X[k], Y[k], lam).coef.tobytes() == want.tobytes()

    @pytest.mark.parametrize("with_exog", [False, True])
    def test_arx_matches_lstsq_item_by_item(self, with_exog, capfd):
        rng = np.random.default_rng(13)
        p, T = 2, 37
        series = rng.gamma(0.5, 20, size=(6, T))
        exog = rng.gamma(0.5, 20, size=(6, T, 3)) if with_exog else None
        series[1] = 7.5                          # constant: an exact fit
        if with_exog:
            exog[1] = 2.0
            exog[2, 1:, 0] = series[2, :-1]      # an exog column equal to lag 1
        series[4, 10] = np.nan                   # a NaN in design rows and a target
        series[5, -1] = np.nan                   # a NaN target only
        payload = fit_arx_payload(series, exog, p)
        assert list(payload.failures) == [4, 5]
        for i in range(len(series)):
            X, y = lag_matrix(series[i], p, None if exog is None else exog[i])
            Xb = np.column_stack([np.ones(len(X)), X])
            coef = np.concatenate([[payload.intercept[i]], payload.phi[i], payload.beta[i]])
            if i in payload.failures:
                assert type(payload.failures[i]) is DomainError
                assert np.isnan(coef).all()
                with pytest.raises(DomainError, match=str(payload.failures[i])):
                    fit_arx_payload(series[i], None if exog is None else exog[i], p)
            else:
                assert coef.tobytes() == np.linalg.lstsq(Xb, y, rcond=None)[0].tobytes()
        # Non-finite items fail before LAPACK, whose error handler would
        # print "** On entry to DLASCL ..." to standard output.
        assert "DLASCL" not in "".join(capfd.readouterr())


def old_median_bandwidth(X):
    """median_bandwidth as a separate pass over its own distance matrix."""
    if X.shape[-2] < 2:
        return 1.0 if X.ndim == 2 else np.ones(X.shape[0])
    upper = np.triu_indices(X.shape[-2], k=1)
    dists = np.sqrt(pairwise_sq_dists(X, X)[..., upper[0], upper[1]])
    count = np.count_nonzero(dists > 0, axis=-1)
    ranked = np.sort(np.where(dists > 0, dists, np.inf), axis=-1)
    lo = np.take_along_axis(ranked, np.maximum(count - 1, 0)[..., None] // 2, -1)[..., 0]
    hi = np.take_along_axis(ranked, (count // 2)[..., None], -1)[..., 0]
    median = np.where(count > 0, np.where(count % 2 == 1, lo, (lo + hi) / 2), 1.0)
    return float(median) if X.ndim == 2 else median


class TestKernelFitOneDistanceMatrix:
    """fit_kernel_ridge builds K + lam*I from one distance matrix, in place,
    with the bits of the two-pass formula."""

    @staticmethod
    def two_pass(X, Y, lam):
        bw = old_median_bandwidth(X)
        K = rbf_kernel(X, X, bw) + lam * np.eye(X.shape[-2])
        return bw, _refined_solve(K, Y)

    @pytest.mark.parametrize("lam", [1e-3, 1.0])
    @pytest.mark.parametrize("shape", [(6, 33, 10), (200, 10)])
    def test_stacked_and_pooled_fits_bit_for_bit(self, lam, shape):
        rng = np.random.default_rng(14)
        X = rng.gamma(0.5, 20, size=shape)
        X[..., 3:6, :] = X[..., 2:3, :]          # zero distances the median skips
        if X.ndim == 3:
            X[4] = 0.0                           # no pair apart: unit bandwidth
        Y = rng.gamma(0.5, 20, size=shape[:-1] + (4,))
        bw, alpha = self.two_pass(X, Y, lam)
        payload = fit_kernel_ridge(X, Y, lam)
        assert np.asarray(payload.bandwidth).tobytes() == np.asarray(bw).tobytes()
        assert payload.alpha.tobytes() == alpha.tobytes()
        np.testing.assert_array_equal(median_bandwidth(X), bw)

    def test_pooled_fit_peak_memory(self):
        # 990 rows: the pooled df_all_items design of 30 items.
        n = 990
        rng = np.random.default_rng(15)
        X = rng.gamma(0.5, 20, size=(n, 10))
        Y = rng.gamma(0.5, 20, size=(n, 10))
        fit_kernel_ridge(X, Y, 1e-3)
        tracemalloc.start()
        try:
            fit_kernel_ridge(X, Y, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Two n x n matrices live at once; a kernel built beside its distance
        # matrix, then added to lam * I, held three.
        assert peak < 2.5 * n * n * 8
