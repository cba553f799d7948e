"""Closed-form and iterative linear-family regressors (numpy only).

All fitters take X without a bias column and add one internally; the
intercept is never penalized.  Multi-output targets are handled as
independent per-column problems.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ..errors import DomainError, HierfcstError, IllConditionedError


def _with_bias(X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.hstack([np.ones((X.shape[0], 1)), X])


class RidgePayload:
    """coef has shape (1 + n_features, n_targets), bias first."""

    def __init__(self, coef):
        self.coef = coef

    def predict_raw(self, X):
        return _with_bias(X) @ self.coef


def fit_ridge(X, Y, lam: float) -> RidgePayload:
    """Exact ridge solution of (X'X + lam*D) b = X'Y with unpenalized bias."""
    Xb = _with_bias(X)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    A = Xb.T @ Xb
    penalty = np.eye(Xb.shape[1]) * lam
    penalty[0, 0] = 0.0
    A = A + penalty
    B = Xb.T @ Y
    try:
        factor = cho_factor(A)
    except np.linalg.LinAlgError:
        raise IllConditionedError(
            "singular normal equations; increase the ridge penalty lam above 0"
        ) from None
    return RidgePayload(cho_solve(factor, B))


class LassoPayload:
    def __init__(self, intercepts, coefs, objective_histories, converged):
        self.intercepts = np.asarray(intercepts)
        self.coefs = np.asarray(coefs)  # (n_features, n_targets)
        self.objective_histories = objective_histories
        self.converged = converged      # per target: KKT met before the step cap

    def predict_raw(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return X @ self.coefs + self.intercepts


_EPS = np.finfo(float).eps


def _active_set(Xc, yc, G, lam, max_steps, tol):
    """Exact lasso on centred data: minimise 0.5*mean((yc - Xc w)^2) +
    lam*||w||_1, i.e. 0.5 w'Gw - c'w + lam*||w||_1 with G = Xc'Xc/n and
    c = Xc'yc/n, by the active-set method of Osborne, Presnell & Turlach
    (2000), from w = 0.

    Each step moves w once.  From an optimum on the active set it adds the
    free coordinate that breaks the KKT conditions most, with the sign of
    its gradient, and moves to the optimum on the enlarged set; when a sign
    would flip on the way it stops at the first zero crossing and drops
    that coordinate, and the next step re-solves without adding.  On a
    singular active block it follows a null vector h with s'h < 0, along
    which the objective falls, to a crossing.  Returns w, the objective
    after every step, and whether the KKT conditions held within tol*lam
    (plus a rounding floor) before max_steps steps.
    """
    n, k = Xc.shape
    c = Xc.T @ yc / n
    w = np.zeros(k)
    signs = np.zeros(k)
    free = np.diag(G) > 0             # zero-variance columns never enter
    active = []

    def objective():
        return 0.5 * np.mean((yc - Xc @ w) ** 2) + lam * np.sum(np.abs(w))

    history = [objective()]
    if k == 0:
        return w, history, True
    settled = True                    # w is optimal on the active set
    while True:
        if settled:
            g = c - G @ w
            # g is known only to about eps times the terms it sums; without
            # this floor a fit at lam = 0 chases rounding until the cap.
            floor = 16 * k * _EPS * max(np.abs(c).max(), (np.abs(G) @ np.abs(w)).max())
            thr = tol * lam + floor
            breach = np.where(free, np.abs(g) - lam, -np.inf)
            j = int(np.argmax(breach))
            if breach[j] <= thr:
                return w, history, True
        if len(history) > max_steps:
            return w, history, False
        if settled:
            active.append(j)
            free[j] = False
            signs[j] = np.sign(g[j])
        A = np.array(active)
        sA, wA, GA = signs[A], w[A], G[np.ix_(A, A)]
        vals, V = np.linalg.eigh(GA)
        null = vals <= 100 * len(A) * _EPS * vals[-1]   # rounding-level eigenvalues
        # lam*h is the part of the gradient no move on the block can cancel;
        # when it is below the KKT tolerance the block is solved in its range.
        h = -V[:, null] @ (V[:, null].T @ sA)
        if lam * np.abs(h).max(initial=0.0) > thr:
            d, reach = h, np.inf
        else:
            Vr = V[:, ~null]
            d, reach = Vr @ (Vr.T @ (c[A] - lam * sA - GA @ wA) / vals[~null]), 1.0
        shrink = sA * d < 0
        cross = np.full(len(A), np.inf)
        cross[shrink] = -wA[shrink] / d[shrink]
        i = int(np.argmin(cross))
        if cross[i] < reach:
            w[A] = wA + cross[i] * d
            w[A[i]] = 0.0
            free[A[i]] = True
            del active[i]
            settled = not active
        else:
            w[A] = wA + d
            settled = True
        history.append(objective())


def fit_lasso(X, Y, lam: float, max_sweeps: int = 500, tol: float = 1e-8) -> LassoPayload:
    """Exact lasso, objective 0.5*mean(r^2) + lam*||w||_1, unpenalized bias.

    An active-set (homotopy) solver on the centred Gram matrix, one per
    target column; the intercept is mean(y) - mean(X) @ w.  ``max_sweeps``
    caps the active-set steps (each step adds or drops a coordinate, or
    re-solves after a drop) and ``tol`` is the KKT tolerance relative to
    ``lam``.  ``objective_histories`` holds the objective after every step
    (non-increasing); ``converged[c]`` is False when target c hit the step
    cap before meeting the KKT conditions.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    x_mean = X.mean(axis=0)
    Xc = X - x_mean
    G = Xc.T @ Xc / X.shape[0]
    coefs, intercepts, histories, converged = [], [], [], []
    for y in Y.T:
        w, hist, ok = _active_set(Xc, y - y.mean(), G, lam, max_sweeps, tol)
        coefs.append(w)
        intercepts.append(y.mean() - x_mean @ w)
        histories.append(hist)
        converged.append(ok)
    return LassoPayload(np.array(intercepts), np.array(coefs).T, histories, converged)


class PoissonPayload:
    def __init__(self, coef, ll_histories, converged):
        self.coef = np.asarray(coef)  # (1 + n_features, n_targets)
        self.ll_histories = ll_histories
        self.converged = converged    # per target: stopped on tol before max_iter

    def predict_raw(self, X):
        eta = _with_bias(X) @ self.coef
        return np.exp(eta)


def _poisson_ll(Xb, y, beta):
    eta = np.clip(Xb @ beta, -500, 500)
    return float(y @ eta - np.sum(np.exp(eta)))


def _poisson_single(Xb, y, lam, max_iter, tol):
    """IRLS with step halving; works for fractional y >= 0 (quasi deviance)."""
    k = Xb.shape[1]
    beta = np.zeros(k)
    beta[0] = np.log(np.mean(y) + 1e-8)
    penalty = np.eye(k) * lam
    penalty[0, 0] = 0.0
    ll = _poisson_ll(Xb, y, beta) - 0.5 * lam * beta[1:] @ beta[1:]
    history = [ll]
    converged = False
    for _ in range(max_iter):
        eta = np.clip(Xb @ beta, -500, 500)
        mu = np.exp(eta)
        z = eta + (y - mu) / np.maximum(mu, 1e-12)
        A = Xb.T @ (mu[:, None] * Xb) + penalty
        b = Xb.T @ (mu * z)
        try:
            proposal = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            proposal = np.linalg.lstsq(A, b, rcond=None)[0]
        # Step halving keeps the penalized log-likelihood non-decreasing.
        step = 1.0
        direction = proposal - beta
        for _ in range(60):
            candidate = beta + step * direction
            cand_ll = (_poisson_ll(Xb, y, candidate)
                       - 0.5 * lam * candidate[1:] @ candidate[1:])
            if cand_ll >= ll - 1e-12:
                break
            step *= 0.5
        beta = beta + step * direction
        new_ll = _poisson_ll(Xb, y, beta) - 0.5 * lam * beta[1:] @ beta[1:]
        history.append(new_ll)
        if abs(new_ll - ll) < tol * (1 + abs(ll)):
            converged = True
            break
        ll = new_ll
    return beta, history, converged


def fit_poisson(X, Y, lam: float = 0.0, max_iter: int = 200,
                tol: float = 1e-10) -> PoissonPayload:
    """Log-link Poisson regression by iteratively reweighted least squares.

    ``converged[c]`` is False when target c ran all ``max_iter`` iterations
    without the log-likelihood settling within ``tol``.
    """
    Xb = _with_bias(X)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if np.any(Y < 0):
        raise DomainError("Poisson regression requires non-negative targets")
    coefs, histories, converged = [], [], []
    for c in range(Y.shape[1]):
        beta, hist, ok = _poisson_single(Xb, Y[:, c], lam, max_iter, tol)
        coefs.append(beta)
        histories.append(hist)
        converged.append(ok)
    return PoissonPayload(np.array(coefs).T, histories, converged)


class KernelRidgePayload:
    def __init__(self, X_train, alpha, bandwidth):
        self.X_train = X_train
        self.alpha = alpha          # (n_train, n_targets)
        self.bandwidth = bandwidth

    def predict_raw(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        K = rbf_kernel(X, self.X_train, self.bandwidth)
        return K @ self.alpha


def pairwise_sq_dists(A, B):
    aa = np.sum(A ** 2, axis=1)[:, None]
    bb = np.sum(B ** 2, axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * A @ B.T, 0.0)


def rbf_kernel(A, B, bandwidth):
    return np.exp(-pairwise_sq_dists(A, B) / (2.0 * bandwidth ** 2))


def median_bandwidth(X) -> float:
    """Median nonzero pairwise distance; 1.0 for degenerate point clouds."""
    d2 = pairwise_sq_dists(X, X)
    dists = np.sqrt(d2[np.triu_indices_from(d2, k=1)])
    dists = dists[dists > 0]
    if dists.size == 0:
        return 1.0
    return float(np.median(dists))


def fit_kernel_ridge(X, Y, lam: float, bandwidth="median") -> KernelRidgePayload:
    """RBF kernel ridge: alpha = (K + lam*I)^-1 Y."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    bw = median_bandwidth(X) if bandwidth == "median" else float(bandwidth)
    if bw <= 0:
        raise HierfcstError(f"kernel bandwidth must be > 0, got {bw}")
    K = rbf_kernel(X, X, bw) + lam * np.eye(X.shape[0])
    try:
        alpha = np.linalg.solve(K, Y)
        # One round of iterative refinement; K is near-singular when lam -> 0.
        alpha += np.linalg.solve(K, Y - K @ alpha)
    except np.linalg.LinAlgError:
        alpha = np.linalg.lstsq(K, Y, rcond=None)[0]
    return KernelRidgePayload(X, alpha, bw)
