from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierfcst.dataset import synthesize
from hierfcst.errors import DensityError, DomainError, HierfcstError, IllConditionedError
from hierfcst.models import default_hyperparams
from hierfcst.trmf import (FactorModel, TrmfConfig, ar_residuals, factorize,
                           forecast, forecast_factors, is_stationary, objective,
                           rolling_refit)
from hierfcst.trmf import _band_map, _data_terms, _f_block, _phi_step, _z_block

from oracles import (f_step_columns, factorize_reference, gradient_descent, numeric_grad,
                     z_step_dense)


def random_instance(rng, T=14, n=6, density=0.6):
    Y = rng.normal(size=(T, n))
    mask = rng.uniform(size=(T, n)) < density
    mask[0] = True  # keep every column observed somewhere
    return Y, mask


def make_model(Z, F, phi, mask, lams=(0.1, 0.1, 0.5)):
    return FactorModel(Z=Z, F=F, phi=phi, lam_f=lams[0], lam_z=lams[1],
                       lam_ar=lams[2], mask=mask)


class TestFactorize:
    def test_rank1_exact_recovery(self):
        rng = np.random.default_rng(0)
        Y = rng.normal(size=(30, 1)) @ rng.normal(size=(1, 12))
        cfg = TrmfConfig(rank=1, ar_order=1, lam_f=1e-12, lam_z=1e-12,
                         lam_ar=0.0, max_sweeps=200, tol=1e-15)
        m = factorize(Y, np.ones_like(Y, bool), cfg)
        rmse = np.sqrt(np.mean((m.reconstruction() - Y) ** 2))
        assert rmse <= 1e-6

    def test_objective_monotone_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            Y, mask = random_instance(rng)
            cfg = TrmfConfig(rank=2, ar_order=2,
                             lam_f=10 ** rng.uniform(-5, -1),
                             lam_z=10 ** rng.uniform(-5, -1),
                             lam_ar=10 ** rng.uniform(-4, -1),
                             max_sweeps=15, tol=0.0, seed=int(rng.integers(1e6)))
            m = factorize(Y, mask, cfg)
            hist = np.array(m.objective_history)
            rel_increase = np.diff(hist) / (np.abs(hist[:-1]) + 1e-300)
            assert np.all(rel_increase <= 1e-9)

    def test_dominating_ridge_drives_z_to_zero(self):
        rng = np.random.default_rng(2)
        Y = rng.normal(size=(12, 5))
        cfg = TrmfConfig(rank=2, ar_order=1, lam_f=1e-3, lam_z=1e9,
                         lam_ar=0.0, max_sweeps=10, tol=0.0)
        m = factorize(Y, np.ones_like(Y, bool), cfg)
        assert np.abs(m.Z).max() < 1e-6
        assert np.abs(m.reconstruction()).max() < 1e-6

    def test_density_floor(self):
        rng = np.random.default_rng(3)
        Y = rng.normal(size=(20, 10))
        mask = np.zeros_like(Y, bool)
        mask[:4] = True  # 20% observed
        with pytest.raises(DensityError):
            factorize(Y, mask, TrmfConfig(rank=1, ar_order=1))
        cfg = TrmfConfig(rank=1, ar_order=1, allow_low_density=True, max_sweeps=3)
        with pytest.warns(RuntimeWarning):
            factorize(Y, mask, cfg)

    def test_nonfinite_observed_rejected(self):
        Y = np.ones((6, 3))
        Y[0, 0] = np.inf
        with pytest.raises(DomainError):
            factorize(Y, np.ones_like(Y, bool), TrmfConfig(rank=1, ar_order=1))

    def test_nan_entries_treated_unobserved(self):
        rng = np.random.default_rng(4)
        Y = rng.normal(size=(10, 4))
        Y[2, 1] = np.nan
        m = factorize(Y, cfg=TrmfConfig(rank=1, ar_order=1, max_sweeps=3,
                                        allow_low_density=True))
        assert not m.mask[2, 1]

    def test_too_few_periods(self):
        with pytest.raises(HierfcstError):
            factorize(np.ones((2, 3)), cfg=TrmfConfig(rank=1, ar_order=2))

    def test_lam_f_zero_with_fewer_observed_items_than_rank_rejected(self):
        # Without the check, two correct sweeps of this problem that differ
        # only in rounding end with loadings a factor 2e4 apart.
        rng = np.random.default_rng(0)
        Y = rng.normal(size=(14, 2))
        mask = np.ones_like(Y, bool)
        mask[:, 1] = False
        cfg = TrmfConfig(rank=4, ar_order=3, lam_f=0.0, max_sweeps=9)
        with pytest.raises(HierfcstError, match="rank = 4 observed items, got 1"):
            factorize(Y, mask, cfg)
        m = factorize(Y, mask, TrmfConfig(rank=1, ar_order=3, lam_f=0.0, max_sweeps=3))
        assert np.all(np.isfinite(m.F))

    def test_unobserved_periods_are_recorded(self):
        # The catalog perfbench's --smoke runs: no item observes lead 0 of
        # periods 11 and 12.  The fit accepts them and records them.
        tensor = synthesize(1, 8, 45, 4, "sparse-spiky")
        Y, mask = tensor.values[:, :, 0].T, tensor.observed_mask[:, :, 0].T
        m = factorize(Y, mask, TrmfConfig(max_sweeps=2))
        assert m.unobserved_periods == [11, 12]
        assert factorize(Y, np.ones_like(mask), TrmfConfig(max_sweeps=2)).unobserved_periods == []

    def test_parameter_count(self):
        rng = np.random.default_rng(5)
        Y, mask = random_instance(rng, T=16, n=7)
        cfg = TrmfConfig(rank=3, ar_order=2, max_sweeps=2)
        m = factorize(Y, mask, cfg)
        assert m.parameter_count() == 16 * 3 + 3 * 7 + 3 * 2


class TestBlockOracles:
    """Each alternating step must exactly minimize its own subproblem.

    The oracle is generic gradient descent; the per-block gradients are
    rederived here from the objective formula and double-checked against
    central finite differences before the descent runs.
    """

    def setup_method(self):
        rng = np.random.default_rng(7)
        self.Y, self.mask = random_instance(rng, T=10, n=5)
        self.m = int(self.mask.sum())
        self.Z = rng.normal(size=(10, 2))
        self.F = rng.normal(size=(2, 5))
        self.phi = rng.normal(scale=0.4, size=(2, 2))
        self.lams = dict(lam_f=0.2, lam_z=0.15, lam_ar=0.8)

    def _objective(self, Z, F, phi):
        return objective(self.Y, self.mask, Z, F, phi, **self.lams)

    def _masked_resid(self, Z, F):
        return np.where(self.mask, Z @ F - self.Y, 0.0)

    def _ar_terms(self, Z, phi):
        p = phi.shape[1]
        T = Z.shape[0]
        e = np.zeros((T, Z.shape[1]))
        for t in range(p, T):
            e[t] = Z[t] - sum(phi[:, i - 1] * Z[t - i] for i in range(1, p + 1))
        return e

    def _check_grad(self, f, g, x0):
        np.testing.assert_allclose(g(x0), numeric_grad(f, x0.copy()),
                                   rtol=1e-5, atol=1e-7)

    def test_f_step_matches_gradient_descent(self):
        F_new = _f_block(_data_terms(self.Y, self.mask, self.m), self.Z, self.lams["lam_f"])

        def f(Fv):
            return self._objective(self.Z, Fv.reshape(2, 5), self.phi)

        def g(Fv):
            F = Fv.reshape(2, 5)
            grad = self.Z.T @ self._masked_resid(self.Z, F) / self.m
            return (grad + self.lams["lam_f"] * F).ravel()

        x0 = self.F.ravel().copy()
        self._check_grad(f, g, x0)
        ref = gradient_descent(f, g, x0)
        np.testing.assert_allclose(F_new.ravel(), ref, atol=1e-6)

    def test_z_step_matches_gradient_descent(self):
        Z_new = _z_block(_data_terms(self.Y, self.mask, self.m), _band_map(10, 2, 2),
                         self.F, self.phi, self.lams["lam_z"], self.lams["lam_ar"])
        p = self.phi.shape[1]

        def f(Zv):
            return self._objective(Zv.reshape(10, 2), self.F, self.phi)

        def g(Zv):
            Z = Zv.reshape(10, 2)
            grad = self._masked_resid(Z, self.F) @ self.F.T / self.m
            grad = grad + self.lams["lam_z"] * Z
            e = self._ar_terms(Z, self.phi)
            ar = e.copy()
            for i in range(1, p + 1):
                ar[:-i] -= self.phi[:, i - 1] * e[i:]
            return (grad + self.lams["lam_ar"] * ar).ravel()

        x0 = self.Z.ravel().copy()
        self._check_grad(f, g, x0)
        ref = gradient_descent(f, g, x0)
        np.testing.assert_allclose(Z_new.ravel(), ref, atol=1e-6)

    def test_phi_step_matches_gradient_descent(self):
        phi_new = _phi_step(self.Z, 2)

        def f(pv):
            return self._objective(self.Z, self.F, pv.reshape(2, 2))

        def g(pv):
            phi = pv.reshape(2, 2)
            e = self._ar_terms(self.Z, phi)
            grad = np.zeros_like(phi)
            for i in range(1, 3):
                grad[:, i - 1] = -np.sum(e[2:] * self.Z[2 - i:-i], axis=0)
            return (self.lams["lam_ar"] * grad).ravel()

        x0 = self.phi.ravel().copy()
        self._check_grad(f, g, x0)
        ref = gradient_descent(f, g, x0)
        np.testing.assert_allclose(phi_new.ravel(), ref, atol=1e-6)


class TestStackedBlocks:
    """The stacked loading solve and the banded factor assembly against a
    per-column loop and a dense solve, over random sizes and masks."""

    def test_f_step_matches_per_column_solves(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            T, n, d = (int(v) for v in rng.integers([3, 1, 1], [20, 12, 4]))
            Y, mask = random_instance(rng, T=T, n=n, density=rng.uniform(0.2, 1))
            Z = rng.normal(size=(T, d))
            lam_f = float(rng.choice([1e-4, 0.5]))
            m = int(mask.sum())
            np.testing.assert_allclose(_f_block(_data_terms(Y, mask, m), Z, lam_f),
                                       f_step_columns(Y, mask, Z, lam_f, m),
                                       rtol=1e-10, atol=1e-12)

    def test_f_step_lam_f_zero_unobserved_and_short_columns(self):
        # Rank 3: column 0 is never observed and column 1 only in two
        # periods, so its system is singular and least squares answers it.
        rng = np.random.default_rng(21)
        Y = rng.normal(size=(8, 4))
        Z = rng.normal(size=(8, 3))
        Z[:2] = [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]
        mask = np.ones((8, 4), bool)
        mask[:, 0] = False
        mask[2:, 1] = False
        m = int(mask.sum())
        F = _f_block(_data_terms(Y, mask, m), Z, 0.0)
        np.testing.assert_array_equal(F[:, 0], 0.0)
        np.testing.assert_allclose(F[:, 1], [Y[0, 1], Y[1, 1] / 2, 0.0],
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(F, f_step_columns(Y, mask, Z, 0.0, m),
                                   rtol=1e-10, atol=1e-12)

    def test_f_step_unobserved_item_leaves_the_others_bits(self):
        # At lam_f = 0 item 2, never observed, has a singular system: it
        # takes lstsq's answer, 0, and every other item keeps the bits it
        # has in the stack without item 2.
        rng = np.random.default_rng(22)
        Y, Z = rng.normal(size=(10, 5)), rng.normal(size=(10, 3))
        mask = np.ones((10, 5), bool)
        mask[:, 2] = False
        m = int(mask.sum())
        F = _f_block(_data_terms(Y, mask, m), Z, 0.0)
        keep = [0, 1, 3, 4]
        without = _f_block(_data_terms(Y[:, keep], mask[:, keep], m), Z, 0.0)
        assert F[:, keep].tobytes() == without.tobytes()
        np.testing.assert_array_equal(F[:, 2], 0.0)

    def test_z_step_matches_dense_normal_equations(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            d, p = (int(v) for v in rng.integers(1, 4, size=2))
            T, n = int(rng.integers(p + 1, 16)), int(rng.integers(1, 8))
            Y, mask = random_instance(rng, T=T, n=n, density=rng.uniform(0.2, 1))
            mask[rng.integers(T)] = False  # a period with no observation
            F = rng.normal(size=(d, n))
            phi = rng.normal(scale=0.5, size=(d, p))
            lam_z = float(rng.choice([1e-3, 0.5]))
            lam_ar = float(rng.choice([0.0, 0.3]))
            m = max(int(mask.sum()), 1)
            np.testing.assert_allclose(_z_block(_data_terms(Y, mask, m), _band_map(T, d, p),
                                                F, phi, lam_z, lam_ar),
                                       z_step_dense(Y, mask, F, phi, lam_z, lam_ar, m),
                                       rtol=1e-8, atol=1e-10)


class TestStationarity:
    def test_finite_difference_gradient_small_at_convergence(self):
        rng = np.random.default_rng(8)
        Y, mask = random_instance(rng, T=12, n=5)
        cfg = TrmfConfig(rank=2, ar_order=2, lam_f=0.05, lam_z=0.05,
                         lam_ar=0.3, max_sweeps=4000, tol=1e-15, seed=2)
        m = factorize(Y, mask, cfg)
        obj = m.objective_history[-1]
        scale = 1e-4 * (1.0 + abs(obj))

        def f_F(Fv):
            return objective(Y, mask, m.Z, Fv.reshape(m.F.shape), m.phi,
                             m.lam_f, m.lam_z, m.lam_ar)

        def f_Z(Zv):
            return objective(Y, mask, Zv.reshape(m.Z.shape), m.F, m.phi,
                             m.lam_f, m.lam_z, m.lam_ar)

        def f_phi(pv):
            return objective(Y, mask, m.Z, m.F, pv.reshape(m.phi.shape),
                             m.lam_f, m.lam_z, m.lam_ar)

        assert np.linalg.norm(numeric_grad(f_F, m.F.ravel().copy())) <= scale
        assert np.linalg.norm(numeric_grad(f_Z, m.Z.ravel().copy())) <= scale
        assert np.linalg.norm(numeric_grad(f_phi, m.phi.ravel().copy())) <= scale


class TestForecast:
    def test_ar1_geometric_decay(self):
        m = make_model(Z=np.array([[1.0]]), F=np.array([[2.0]]),
                       phi=np.array([[0.5]]), mask=np.ones((1, 1), bool))
        fc = forecast(m, 3)
        np.testing.assert_allclose(fc.ravel(), [1.0, 0.5, 0.25])

    def test_one_step_equals_recursion_base_case(self):
        rng = np.random.default_rng(9)
        Z = rng.normal(size=(8, 3))
        F = rng.normal(size=(3, 4))
        phi = rng.normal(scale=0.3, size=(3, 2))
        m = make_model(Z, F, phi, np.ones((8, 4), bool))
        expected = (phi[:, 0] * Z[-1] + phi[:, 1] * Z[-2]) @ F
        np.testing.assert_allclose(forecast(m, 1)[0], expected, atol=1e-12)

    def test_stationary_phi_levels_to_zero(self):
        rng = np.random.default_rng(10)
        Z = rng.normal(size=(10, 2))
        F = rng.normal(size=(2, 3))
        phi = np.array([[1.2, -0.5], [0.5, 0.3]])  # roots inside unit disk
        assert is_stationary(phi[0]) and is_stationary(phi[1])
        m = make_model(Z, F, phi, np.ones((10, 3), bool))
        fc = forecast(m, 400)
        assert np.abs(fc[-1]).max() < 1e-8
        assert np.abs(fc[:5]).max() > 1e-3  # oscillations vanish, not start at 0

    def test_explosive_phi_warns(self):
        m = make_model(Z=np.array([[1.0], [1.1]]), F=np.array([[1.0]]),
                       phi=np.array([[1.05]]), mask=np.ones((2, 1), bool))
        with pytest.warns(RuntimeWarning):
            forecast(m, 3)

    def test_bad_horizon(self):
        m = make_model(Z=np.array([[1.0]]), F=np.array([[1.0]]),
                       phi=np.array([[0.5]]), mask=np.ones((1, 1), bool))
        with pytest.raises(HierfcstError):
            forecast(m, 0)


class TestRollingRefit:
    def test_constant_stream(self):
        Y0 = np.full((12, 4), 5.0)
        stream = [np.full(4, 5.0) for _ in range(4)]
        cfg = TrmfConfig(rank=1, ar_order=1, lam_f=1e-10, lam_z=1e-10,
                         lam_ar=1e-6, max_sweeps=80, tol=1e-13, seed=3)
        fcs = rolling_refit(Y0, stream, cfg)
        assert len(fcs) == 4
        for fc in fcs:
            np.testing.assert_allclose(fc, 5.0, atol=1e-3)

    def test_empty_stream(self):
        Y0 = np.full((8, 3), 2.0)
        cfg = TrmfConfig(rank=1, ar_order=1, max_sweeps=5)
        assert rolling_refit(Y0, [], cfg) == []

    def test_warm_start_matches_cold_objective(self):
        rng = np.random.default_rng(11)
        z = np.zeros((20, 1))
        for t in range(1, 20):
            z[t] = 0.7 * z[t - 1] + rng.normal()
        Y = z @ rng.normal(size=(1, 6)) + 0.001 * rng.normal(size=(20, 6))
        cfg = TrmfConfig(rank=1, ar_order=1, lam_f=1e-4, lam_z=1e-4,
                         lam_ar=1e-3, max_sweeps=3000, tol=0.0, seed=4)
        cold = factorize(Y, cfg=cfg)
        warm_init = (cold.Z + 0.01 * rng.normal(size=cold.Z.shape), cold.F,
                     cold.phi)
        warm = factorize(Y, cfg=cfg, init=warm_init)
        a, b = cold.objective_history[-1], warm.objective_history[-1]
        assert abs(a - b) <= 1e-6 * (1 + abs(a))


def test_config_defaults_are_the_model_defaults():
    cfg = TrmfConfig()
    ini = default_hyperparams("trmf")
    assert set(ini) <= {f.name for f in fields(cfg)}
    for key, value in ini.items():
        assert getattr(cfg, key) == value, key


class TestObjectiveHelpers:
    def test_ar_residuals_shape_and_values(self):
        Z = np.arange(10.0).reshape(5, 2)  # both columns step by 2
        phi = np.array([[0.5], [1.0]])
        res = ar_residuals(Z, phi)
        assert res.shape == (4, 2)
        np.testing.assert_allclose(res[:, 1], 2.0)  # unit-phi differences
        np.testing.assert_allclose(res[:, 0], Z[1:, 0] - 0.5 * Z[:-1, 0])

    def test_objective_finite_and_decomposable(self):
        rng = np.random.default_rng(12)
        Y, mask = random_instance(rng, T=8, n=4)
        Z = rng.normal(size=(8, 2))
        F = rng.normal(size=(2, 4))
        phi = np.zeros((2, 1))
        base = objective(Y, mask, Z, F, phi, 0.0, 0.0, 0.0)
        ridged = objective(Y, mask, Z, F, phi, 1.0, 0.0, 0.0)
        assert ridged == pytest.approx(base + 0.5 * np.sum(F ** 2))


class TestConvergedFlag:
    def test_capped_fit_is_not_converged(self):
        rng = np.random.default_rng(5)
        Y, mask = random_instance(rng)
        cfg = TrmfConfig(rank=2, ar_order=1, max_sweeps=3, tol=0.0)
        m = factorize(Y, mask, cfg)
        assert len(m.objective_history) - 1 == 3
        assert m.converged is False

    def test_fit_stopped_by_tol_is_converged(self):
        rng = np.random.default_rng(6)
        Y = rng.normal(size=(20, 1)) @ rng.normal(size=(1, 8))
        cfg = TrmfConfig(rank=1, ar_order=1, max_sweeps=500, tol=1e-6)
        m = factorize(Y, np.ones_like(Y, bool), cfg)
        assert len(m.objective_history) - 1 < 500
        assert m.converged is True


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_sweep_that_goes_non_finite_raises_ill_conditioned():
    rng = np.random.default_rng(0)
    Y = rng.uniform(0, 10, size=(45, 4))
    Y[:, 2] = 10.0 ** rng.uniform(290, 308, size=45)
    with pytest.raises(IllConditionedError, match="not finite"):
        factorize(Y)


@st.composite
def sweep_cases(draw):
    """Y, mask, config and warm start for comparing factorize with the
    reference sweep: ranks 1-4 and AR orders 1-3, with cases for no AR
    term, lam_f = 0 with a column never observed, masks near the density
    floor, warm starts and an all-zero Y (whose zero factors make every
    phi system singular, so phi is lstsq's minimum-norm 0).

    Every factor has at least 2p + 4 AR windows, as normal equations lose
    twice the digits lstsq loses to a lag matrix's condition.  At lam_f = 0
    more periods and columns than the rank are observed, and a sparse mask
    observes every period once: with fewer, the problem is degenerate (at
    lam_f = 0 the loadings grow as the factors shrink; factor rows that are
    exactly zero are a fixed point that rounding decides to leave or not),
    and two correct sweeps part by more than rounding."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    case = draw(st.sampled_from(["plain", "no_ar", "lam_f_zero", "sparse", "warm", "zero"]))
    d, p = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    lam_f_zero = case == "lam_f_zero"
    T = draw(st.integers(max(3 * p + 4, d + 3 if lam_f_zero else 0), 24))
    n = draw(st.integers(d + 2 if lam_f_zero else 2, 10))
    Y = rng.normal(scale=3.0, size=(T, n))
    mask = rng.uniform(size=(T, n)) < rng.uniform(0.5, 1.0)
    lam_f, lam_z, lam_ar = 10.0 ** rng.uniform(-3, 0, size=3)
    init = None
    if case == "no_ar":
        lam_ar = 0.0
    elif lam_f_zero:
        lam_f = 0.0
        mask[:] = True
        mask[:, 0] = False
    elif case == "sparse":
        mask = rng.uniform(size=(T, n)) < rng.uniform(0.2, 0.3)
        mask[np.arange(T), rng.integers(n, size=T)] = True
    elif case == "warm":
        init = (rng.normal(size=(T, d)), rng.normal(size=(d, n)),
                rng.normal(scale=0.3, size=(d, p)))
    elif case == "zero":
        Y[:] = 0.0
    # tol = -1 never stops early, so both runs take every sweep.
    cfg = TrmfConfig(rank=d, ar_order=p, lam_f=lam_f, lam_z=lam_z, lam_ar=lam_ar,
                     max_sweeps=draw(st.integers(1, 12)), tol=-1.0,
                     seed=draw(st.integers(0, 1000)), allow_low_density=True)
    return Y, mask, cfg, init


def assert_close(actual, expected, scale, what):
    """Within 1e-8 of scale everywhere."""
    assert np.max(np.abs(actual - expected), initial=0.0) <= 1e-8 * scale, what


class TestSweepMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(sweep_cases())
    @pytest.mark.filterwarnings("ignore:observed density:RuntimeWarning",
                                "ignore:non-stationary:RuntimeWarning")
    def test_factorize_matches_reference_sweep(self, case):
        Y, mask, cfg, init = case
        model = factorize(Y, mask, cfg, init=init)
        ref = factorize_reference(Y, mask, cfg, init=init)
        np.testing.assert_allclose(model.objective_history, ref.objective_history,
                                   rtol=1e-9, atol=0.0)
        for name in ("Z", "F"):
            expected = getattr(ref, name)
            assert_close(getattr(model, name), expected, np.abs(expected).max(), name)
        # AR coefficients are ratios, so their scale is at least 1, and a
        # forecast's is at least the fit's: a phi or a forecast made from
        # factor entries that are rounding noise is itself noise.
        assert_close(model.phi, ref.phi, max(1.0, np.abs(ref.phi).max()), "phi")
        expected = forecast(ref, 3)
        assert_close(forecast(model, 3), expected,
                     max(np.abs(expected).max(), np.abs(ref.reconstruction()).max()),
                     "forecast")

    def test_all_zero_data_gives_zero_phi(self):
        Y = np.zeros((10, 3))
        cfg = TrmfConfig(rank=2, ar_order=2, lam_f=0.1, lam_z=0.1, lam_ar=0.1,
                         max_sweeps=3, tol=-1.0)
        m = factorize(Y, np.ones_like(Y, bool), cfg)
        np.testing.assert_array_equal(m.phi, 0.0)
        np.testing.assert_array_equal(m.Z, 0.0)


class TestJitter:
    def setup_method(self):
        rng = np.random.default_rng(30)
        self.Y = rng.normal(size=(8, 5))
        self.mask = np.ones((8, 5), bool)
        self.mask[3] = False  # no observation in period 3: its block is 0
        self.m = int(self.mask.sum())
        self.F = rng.normal(size=(2, 5))
        self.phi = np.zeros((2, 1))
        self.data = _data_terms(self.Y, self.mask, self.m)
        self.band = _band_map(8, 2, 1)

    def test_singular_system_is_solved_with_jitter(self):
        with pytest.warns(RuntimeWarning, match="factor system near-singular"):
            Z = _z_block(self.data, self.band, self.F, self.phi, 0.0, 0.0)
        np.testing.assert_array_equal(Z[3], 0.0)
        # Without lam_z and lam_ar each other period is its own least squares.
        for t in (0, 1, 2, 4, 5, 6, 7):
            z_t = np.linalg.solve(self.F @ self.F.T, self.F @ self.Y[t])
            np.testing.assert_allclose(Z[t], z_t, rtol=1e-6)

    def test_system_jitter_cannot_fix_raises(self):
        # lam_z < 0 (which TrmfConfig rejects) makes the system indefinite.
        with pytest.warns(RuntimeWarning, match="factor system near-singular"), \
                pytest.raises(IllConditionedError, match="set lam_z > 0"):
            _z_block(self.data, self.band, self.F, self.phi, -1.0, 0.0)


class TestRollingRefitForecasts:
    def test_forecasts_are_one_step_forecasts_of_each_refit(self):
        rng = np.random.default_rng(31)
        Y = rng.normal(size=(16, 5))
        cfg = TrmfConfig(rank=2, ar_order=2, max_sweeps=20)
        got = rolling_refit(Y[:12], list(Y[12:]), cfg)
        model = factorize(Y[:12], cfg=cfg)
        for k, t in enumerate(range(12, 16)):
            assert bits(got[k]) == bits(forecast(model, 1)[0])
            Z0 = np.vstack([model.Z, forecast_factors(model, 1)])
            model = factorize(Y[:t + 1], cfg=cfg, init=(Z0, model.F, model.phi))

    def test_non_stationary_fit_warns_once_per_row(self):
        Y = 1.2 ** np.arange(14.0)[:, None] * np.array([1.0, 2.0, 3.0])
        cfg = TrmfConfig(rank=1, ar_order=1, lam_f=1e-6, lam_z=1e-6, lam_ar=1e-3,
                         max_sweeps=50)
        with pytest.warns(RuntimeWarning, match="non-stationary") as caught:
            rolling_refit(Y[:11], list(Y[11:]), cfg)
        assert sum("non-stationary" in str(w.message) for w in caught) == 3


def bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()
