"""Least-squares autoregression with optional exogenous regressors.

This is the declared surrogate for the ARIMAX/ARIMA baselines: AR(p) plus
exogenous terms fitted by ordinary least squares, no differencing and no
moving-average component.  Multi-step forecasts roll the recursion forward
on their own predictions.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

from ..errors import DomainError, HierfcstError

# LAPACK's gelsd, the routine np.linalg.lstsq calls, resolved once; a call
# through the handle skips lstsq's per-call set-up and gives its bits.
_gelsd, _gelsd_lwork = get_lapack_funcs(("gelsd", "gelsd_lwork"), dtype=np.float64)


class ArxPayload:
    """intercept (items,) + phi (items, p: AR coefficients, lag 1 first) +
    beta (items, k: exog), with NaN coefficients for the items listed in
    ``failures`` (item position -> error).
    """

    def __init__(self, intercept, phi, beta, failures):
        self.intercept = intercept
        self.phi = phi
        self.beta = beta
        self.failures = failures

    @property
    def p(self):
        return self.phi.shape[-1]

    def predict_raw(self, X):
        """(items, rows, 1) predictions of rows [y_{t-1}, ..., y_{t-p},
        exog_t...]: X (items, rows, p + k), one set of rows per item, or
        for a stack of one X (..., rows, p + k).  The AR terms are summed
        lag by lag and the exog terms by one dot product per row, so every
        row gets the same bits whether it is predicted alone or in a
        stack."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        ar = 0.0
        for j in range(self.p):
            term = self.phi[..., None, j] * X[..., j]
            ar = term if j == 0 else ar + term
        value = self.intercept[..., None] + ar
        if self.beta.shape[-1]:
            value = value + (X[..., None, self.p:] @ self.beta[..., None, :, None])[..., 0, 0]
        return value[..., None]

    def one_step(self, history, exog_row=None):
        history = np.asarray(history, dtype=float)
        if history.shape[0] < self.p:
            raise HierfcstError(f"need at least {self.p} history values")
        row = history[::-1][:self.p]
        if self.beta.size:
            if exog_row is None:
                raise HierfcstError("model was fitted with exogenous inputs")
            row = np.concatenate([row, np.asarray(exog_row, dtype=float)])
        return self.predict_raw(row).item()

    def forecast(self, history, steps, exog_future=None):
        """Multi-step forecast feeding predictions back in as history."""
        if self.beta.size and (exog_future is None or len(exog_future) < steps):
            raise HierfcstError("exog_future must cover every forecast step")
        buf = list(np.asarray(history, dtype=float))
        out = []
        for s in range(steps):
            row = None if not self.beta.size else exog_future[s]
            value = self.one_step(np.asarray(buf), row)
            out.append(value)
            buf.append(value)
        return np.array(out)


def lag_matrix(series, p, exog=None):
    """Design rows [y_{t-1}..y_{t-p}, exog_t] and targets y_t for t >= p,
    by one index gather.  A stack of series (items, T), with exog
    (items, T, k), gives one design per item."""
    series = np.asarray(series, dtype=float)
    t = np.arange(p, series.shape[-1])
    X = series[..., t[:, None] - np.arange(1, p + 1)]
    if exog is not None:
        X = np.concatenate([X, np.asarray(exog, dtype=float)[..., t, :]], axis=-1)
    return X, series[..., p:]


def fit_arx_payload(series, exog=None, p: int = 1) -> ArxPayload:
    """Fit a stack of series (items, T), with exog (items, T, k), from one
    gathered design solved by one LAPACK least-squares call per item.  An
    item with non-finite data (DomainError) or a failed solve (LinAlgError)
    is listed in the payload's ``failures``; the other items are fitted."""
    series = np.asarray(series, dtype=float)
    k = 0 if exog is None else np.shape(exog)[-1]
    if exog is not None and np.shape(exog)[-2] != series.shape[-1]:
        raise HierfcstError("exog must have one row per series value")
    if series.shape[-1] <= p + k + 1:
        raise HierfcstError(
            f"series of length {series.shape[-1]} too short for p={p} "
            f"with {k} exogenous columns")
    X, y = lag_matrix(series, p, exog)
    Xb = np.concatenate([np.ones(X.shape[:-1] + (1,)), X], axis=-1)
    # gelsd item by item: a stacked SVD gives the same minimum-norm answers
    # only to about 1e-14, which moves exact-fit SMAPE ties (a constant item
    # scores 0 or 2e-14) and so best models.  The calls take lstsq's rcond
    # and workspace.  An item with non-finite rows or targets fails before
    # any call, and one whose SVD does not converge with lstsq's LinAlgError.
    n_rows, n_cols = Xb.shape[-2:]
    rcond = np.finfo(float).eps * max(n_rows, n_cols)
    lwork, iwork, _ = _gelsd_lwork(n_rows, n_cols, 1, rcond)
    finite = np.isfinite(Xb).all(axis=(1, 2)) & np.isfinite(y).all(axis=1)
    # gelsd takes and returns max(rows, cols) right-hand-side rows.
    rhs = np.zeros((Xb.shape[0], max(n_rows, n_cols), 1))
    rhs[:, :n_rows, 0] = y
    coef = np.full((Xb.shape[0], n_cols), np.nan)
    failures = {}
    for i in range(Xb.shape[0]):
        if not finite[i]:
            failures[i] = DomainError("ARX design rows or targets are not all finite")
            continue
        x, _, _, info = _gelsd(Xb[i], rhs[i], int(lwork), iwork, rcond)
        if info != 0:
            failures[i] = np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
            continue
        coef[i] = x[:n_cols, 0]
    return ArxPayload(coef[:, 0], coef[:, 1:1 + p], coef[:, 1 + p:], failures)
