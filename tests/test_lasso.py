"""The active-set lasso against its optimality conditions and against
tightly converged coordinate descent."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hierfcst.models import ModelSpec, fit
from hierfcst.models.linear import fit_lasso

from oracles import lasso_cd, lasso_fits, lasso_kkt_breach, lasso_objective


def _max_corr(X, y):
    """max_j |Xc_j' yc| / n: the smallest lam at which w = 0 is optimal."""
    Xc = X - X.mean(axis=0)
    return float(np.abs(Xc.T @ (y - y.mean())).max() / len(y))


def _rounding(X, y, w, b):
    """Rounding error of the KKT breach at (w, b): the breach sums terms as
    large as |y|, |b| and |X||w|, so it cannot be resolved below about eps
    times them (near-interpolating fits on few rows have large w and b)."""
    terms = np.abs(y).max() + abs(b) + (np.abs(X) @ np.abs(w)).max()
    return len(y) * np.finfo(float).eps * max(1.0, np.abs(X).max()) * terms


def _tight_oracle(X, y, lam):
    """Coordinate descent run until its KKT breach is below 1e-10 * lam (plus
    the rounding error of the breach), or for 20000 sweeps where it crawls:
    on two rows every centred column is collinear with every other."""
    for sweeps in (1000, 20000):
        w, b, _ = lasso_cd(X, y, lam, sweeps, 1e-15)
        if lasso_kkt_breach(X, y, w, b, lam) <= 1e-10 * lam + _rounding(X, y, w, b):
            break
    return w, b


def _problem(seed):
    """A small problem: half of them with n <= k + 1 rows (fewer centred rows
    than features), columns duplicated, scaled, constant or all zero, and
    lam from 1e-4 to above max|c|."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 8))
    n = int(rng.integers(2, k + 2) if rng.random() < 0.5 else rng.integers(2, 13))
    X = rng.normal(size=(n, k)) * rng.uniform(0.2, 3.0, size=k)
    for j in range(1, k):
        kind = rng.choice(["plain", "plain", "duplicate", "scaled", "constant", "zero"])
        src = rng.integers(0, j)
        if kind == "duplicate":
            X[:, j] = X[:, src]
        elif kind == "scaled":
            X[:, j] = rng.choice([-2.5, -1.0, 0.5, 3.0]) * X[:, src]
        elif kind == "constant":
            X[:, j] = rng.uniform(-3.0, 3.0)
        elif kind == "zero":
            X[:, j] = 0.0
    y = rng.normal(size=n) + X @ (rng.normal(size=k) * (rng.random(k) < 0.5))
    top = max(_max_corr(X, y), 1e-4)
    lam = float(np.exp(rng.uniform(np.log(1e-4), np.log(2 * top))))
    return X, y, lam


lasso_problems = st.integers(0, 2 ** 32 - 1).map(_problem)


def _assert_optimal(X, y, lam):
    payload = fit_lasso(X, y[:, None], lam, tol=1e-10)
    assert payload.converged == [True]
    w, b = payload.coefs[:, 0], payload.intercepts[0]
    assert lasso_kkt_breach(X, y, w, b, lam) <= 1e-9 * lam + 4 * _rounding(X, y, w, b)
    return payload


class TestActiveSetLasso:
    @settings(max_examples=150, deadline=None)
    @given(lasso_problems)
    def test_kkt_holds(self, problem):
        _assert_optimal(*problem)

    def test_kkt_holds_on_a_fixed_sweep(self):
        # Singular active blocks, sign flips and lam = 0 each touch about 1%
        # of these problems; a fixed sweep meets every case on every run.
        for seed in range(2000):
            X, y, lam = _problem(seed)
            _assert_optimal(X, y, 0.0 if seed % 4 == 0 else lam)

    @settings(max_examples=40, deadline=None)
    @given(lasso_problems)
    def test_objective_no_higher_than_tight_coordinate_descent(self, problem):
        X, y, lam = problem
        w_ref, b_ref = _tight_oracle(X, y, lam)
        payload = fit_lasso(X, y[:, None], lam, tol=1e-10)
        ref = lasso_objective(X, y, w_ref, b_ref, lam)
        got = lasso_objective(X, y, payload.coefs[:, 0], payload.intercepts[0], lam)
        assert got <= ref + 1e-12 * (1 + abs(ref))

    @settings(max_examples=60, deadline=None)
    @given(lasso_problems, st.floats(1.0, 10.0))
    def test_lam_above_max_correlation_gives_zero(self, problem, factor):
        X, y, _ = problem
        lam = factor * _max_corr(X, y)
        payload = fit_lasso(X, y[:, None], lam)
        np.testing.assert_array_equal(payload.coefs, 0.0)
        assert payload.intercepts[0] == y.mean()
        assert payload.converged == [True]

    @settings(max_examples=60, deadline=None)
    @given(lasso_problems)
    def test_lam_zero_terminates(self, problem):
        X, y, _ = problem
        # With no penalty the fit is least squares: no column correlates
        # with the residual.
        payload = _assert_optimal(X, y, 0.0)
        hist = np.array(payload.objective_histories[0])
        assert np.all(np.diff(hist) <= 1e-12)

    def test_lam_zero_wide_problem(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(8, 12))
        y = rng.normal(size=(8, 1))
        payload = fit_lasso(X, y, 0.0)
        assert payload.converged == [True]
        np.testing.assert_allclose(payload.predict_raw(X), y, atol=1e-10)

    def test_zero_variance_columns_never_enter(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(15, 4))
        X[:, 1] = 2.0
        X[:, 3] = 0.0
        y = rng.normal(size=(15, 1)) + 5.0 * X[:, [1]]
        payload = fit_lasso(X, y, 1e-3)
        assert payload.coefs[1, 0] == 0.0 and payload.coefs[3, 0] == 0.0

    def test_targets_are_independent(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 5))
        Y = rng.normal(size=(20, 3))
        joint = fit_lasso(X, Y, 0.05)
        for c in range(3):
            alone = fit_lasso(X, Y[:, [c]], 0.05)
            np.testing.assert_array_equal(joint.coefs[:, c], alone.coefs[:, 0])
            assert joint.intercepts[c] == alone.intercepts[0]
            assert joint.objective_histories[c] == alone.objective_histories[0]
        assert joint.converged == [True, True, True]


class TestStepCap:
    def _problem(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 5))
        y = X @ np.array([2.0, -1.5, 1.0, 0.0, 0.5]) + 0.1 * rng.normal(size=30)
        return X, y, 0.01

    def test_capped_fit_is_not_converged(self):
        X, y, lam = self._problem()
        assert len(fit_lasso(X, y[:, None], lam).objective_histories[0]) - 1 >= 2
        payload = fit_lasso(X, y[:, None], lam, max_sweeps=1)
        assert len(payload.objective_histories[0]) - 1 == 1
        assert payload.converged == [False]
        breach = lasso_kkt_breach(X, y, payload.coefs[:, 0], payload.intercepts[0], lam)
        assert breach > 1e-8 * lam

    def test_fit_stopped_by_tol_is_converged(self):
        X, y, lam = self._problem()
        payload = fit_lasso(X, y[:, None], lam, max_sweeps=500, tol=1e-8)
        assert len(payload.objective_histories[0]) - 1 < 500
        assert payload.converged == [True]
        breach = lasso_kkt_breach(X, y, payload.coefs[:, 0], payload.intercepts[0], lam)
        assert breach <= 1e-8 * lam

    def test_model_fit_carries_the_flag(self):
        X, y, _ = self._problem()
        fitted = fit(ModelSpec("lasso", {"lam": 0.01, "max_sweeps": 1}), X, y)
        assert fitted.payload.converged == [False]


def _bits(values):
    return np.ascontiguousarray(values, dtype=float).tobytes()


def assert_matches_one_fit_at_a_time(X, Y, lam, max_sweeps):
    """fit_lasso's lockstep fits give each column's fit alone, bit for bit:
    coefficients, intercepts, objective histories and converged."""
    payload = fit_lasso(X, Y, lam, max_sweeps, tol=1e-10)
    intercepts, coefs, histories, converged = lasso_fits(X, Y, lam, max_sweeps, 1e-10)
    assert _bits(payload.coefs) == _bits(coefs)
    assert _bits(payload.intercepts) == _bits(intercepts)
    assert [_bits(h) for h in payload.objective_histories] == [_bits(h) for h in histories]
    assert payload.converged == converged
    return payload


def _lockstep_problem(seed):
    """_problem's X and lam, lam = 0 on a quarter of the draws, with four
    targets that step differently: the problem's y, a constant (w = 0 at
    once), a scaled y and noise; the step cap from 1 upward."""
    X, y, lam = _problem(seed)
    rng = np.random.default_rng([seed, 1])
    Y = np.column_stack([y, np.full(len(y), 2.5), -3.0 * y, rng.normal(size=len(y))])
    lam = 0.0 if rng.random() < 0.25 else lam
    return X, Y, lam, int(rng.choice([1, 2, 3, 500]))


class TestLockstepMatchesOneFitAtATime:
    """The columns' fits step in lockstep, grouped by active-set size; each
    must keep the bits of the one-fit-at-a-time solver in
    tests/oracles.py."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1).map(_lockstep_problem))
    def test_bit_for_bit(self, problem):
        assert_matches_one_fit_at_a_time(*problem)

    def test_bit_for_bit_on_a_fixed_sweep(self):
        # Zero-variance columns, lam = 0, step caps and singular active
        # blocks, met on every run.
        for seed in range(400):
            assert_matches_one_fit_at_a_time(*_lockstep_problem(seed))

    def test_one_column_capped_while_the_others_converge(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(30, 8))
        X[:, 5] = 4.0                    # zero variance
        Y = np.column_stack([np.full(30, 1.5), X @ rng.normal(size=8), X[:, 0]])
        for lam in (0.0, 1e-4):
            payload = assert_matches_one_fit_at_a_time(X, Y, lam, 3)
            assert payload.converged == [True, False, True]
            assert [len(h) - 1 for h in payload.objective_histories][:2] == [0, 3]
            assert payload.coefs[5].tolist() == [0.0, 0.0, 0.0]
