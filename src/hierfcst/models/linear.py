"""Closed-form and iterative linear-family regressors (numpy, and LAPACK
through scipy).

All fitters take X without a bias column and add one internally; the
intercept is never penalized.  Multi-output targets are handled as
independent per-column problems.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

from ..errors import DomainError, HierfcstError, IllConditionedError

# LAPACK handles resolved once: a per-item call skips scipy's argument
# checks and batch loop, and makes the same call with the same bits.
_potrf, _potrs = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def _with_bias(X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.concatenate([np.ones(X.shape[:-1] + (1,)), X], axis=-1)


class RidgePayload:
    """coef has shape (1 + n_features, n_targets), bias first; a stack of
    item fits has a leading item axis, with NaN coefficients for the items
    listed in ``failures`` (item position -> error)."""

    def __init__(self, coef, failures=None):
        self.coef = coef
        self.failures = failures or {}

    def predict_raw(self, X):
        return _with_bias(X) @ self.coef


def solve_items(solve, out, *stacks):
    """out[k] = solve(*(s[k] for s in stacks)) for every item k of a stack,
    by one stacked call.  Only when that call raises LinAlgError is each
    item solved alone, so the error lands on its own item; a failed item
    keeps its entries of ``out``.  Returns {item position: LinAlgError}.
    """
    try:
        out[...] = solve(*stacks)
        return {}
    except np.linalg.LinAlgError:
        pass
    failures = {}
    for k in range(len(out)):
        try:
            out[k] = solve(*(s[k] for s in stacks))
        except np.linalg.LinAlgError as exc:
            failures[k] = exc
    return failures


def _cho_solve(A, B):
    """cho_solve(cho_factor(A), B) of one item: the potrf and potrs calls
    scipy makes, through the handles.  Raises LinAlgError when A is not
    positive definite."""
    c, info = _potrf(A, lower=False, overwrite_a=False, clean=False)
    if info == 0:
        x, info = _potrs(c, B, lower=False, overwrite_b=False)
    if info != 0:
        raise np.linalg.LinAlgError(f"Cholesky solve failed: LAPACK info {info}")
    return x


def fit_ridge(X, Y, lam: float) -> RidgePayload:
    """Exact ridge solution of (X'X + lam*D) b = X'Y with unpenalized bias.

    X (n, k) and Y (n, m) fit one model, which raises the DomainError or
    IllConditionedError of non-finite (overflowing) or singular normal
    equations.  A stack X (items, n, k), Y (items, n, m) fits one model per
    item by one Cholesky solve per item, a pair of LAPACK calls; an item
    that fails is recorded in the payload's ``failures`` and the other
    items are fitted.
    """
    Xb = _with_bias(X)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    stacked = Xb.ndim == 3
    if not stacked:
        Xb, Y = Xb[None], Y[None]
    Xt = np.swapaxes(Xb, -1, -2)
    penalty = np.eye(Xb.shape[-1]) * lam
    penalty[0, 0] = 0.0
    A = Xt @ Xb + penalty
    B = Xt @ Y
    finite = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(B).all(axis=(1, 2))
    # Each item's coefficients in Fortran order, as potrs returns them for
    # one fit: predictions then take the same BLAS path, bit for bit.
    coef = np.empty((B.shape[0], B.shape[2], B.shape[1])).transpose(0, 2, 1)
    failures = {}
    for k in np.flatnonzero(finite).tolist():
        try:
            coef[k] = _cho_solve(A[k], B[k])
        except np.linalg.LinAlgError:
            failures[k] = IllConditionedError(
                "singular normal equations; increase the ridge penalty lam above 0")
    for k in np.flatnonzero(~finite).tolist():
        failures[k] = DomainError("non-finite normal equations: the item's X'X "
                                  "overflows; rescale it or use the log1p transform")
    coef[list(failures)] = np.nan
    if stacked:
        return RidgePayload(coef, failures)
    if failures:
        raise failures[0]
    return RidgePayload(coef[0])


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
    """alpha (n_train, n_targets) and a float bandwidth; a stack of item
    fits has a leading item axis on X_train and alpha and one bandwidth
    per item."""

    def __init__(self, X_train, alpha, bandwidth):
        self.X_train = X_train
        self.alpha = alpha          # (n_train, n_targets)
        self.bandwidth = bandwidth
        self.failures = {}          # a singular K falls back to least squares

    def predict_raw(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        K = rbf_kernel(X, self.X_train, self.bandwidth)
        return K @ self.alpha


def pairwise_sq_dists(A, B):
    aa = np.sum(A ** 2, axis=-1)[..., :, None]
    bb = np.sum(B ** 2, axis=-1)[..., None, :]
    # (2.0 * A) @ B^T, a general product, as written: numpy sends A @ A.T
    # to a symmetric product (syrk), whose last bits differ from it, and
    # so would every kernel leaderboard.
    return np.maximum(aa + bb - 2.0 * A @ np.swapaxes(B, -1, -2), 0.0)


def _rbf_in_place(sq, bandwidth):
    """exp(-sq / (2 bandwidth^2)) of squared distances, in sq's memory."""
    bandwidth = np.asarray(bandwidth, dtype=float)[..., None, None]
    # float_power squares by C pow, as a Python float's ** 2 does, where
    # numpy's ** 2 multiplies; the two differ in the last bit now and then.
    np.negative(sq, out=sq)
    np.divide(sq, 2.0 * np.float_power(bandwidth, 2), out=sq)
    return np.exp(sq, out=sq)


def rbf_kernel(A, B, bandwidth):
    return _rbf_in_place(pairwise_sq_dists(A, B), bandwidth)


def _median_distance(sq):
    """Median nonzero distance over the pairs above the diagonal of square
    squared distances sq (n, n), or one per item of a stack (items, n, n);
    1.0 where no pair is apart."""
    n = sq.shape[-1]
    if n < 2:                           # no pair to take the median of
        return 1.0 if sq.ndim == 2 else np.ones(sq.shape[0])
    # Row by row: an index of the upper triangle would take twice its size.
    dists = np.concatenate([sq[..., i, i + 1:] for i in range(n - 1)], axis=-1)
    np.sqrt(dists, out=dists)
    apart = dists > 0
    count = np.count_nonzero(apart, axis=-1)
    # Zero distances sort last; the median is taken over the first count.
    dists[~apart] = np.inf
    dists.sort(axis=-1)
    lo = np.take_along_axis(dists, np.maximum(count - 1, 0)[..., None] // 2, -1)[..., 0]
    hi = np.take_along_axis(dists, (count // 2)[..., None], -1)[..., 0]
    median = np.where(count % 2 == 1, lo, (lo + hi) / 2)
    median = np.where(count > 0, median, 1.0)
    return float(median) if sq.ndim == 2 else median


def median_bandwidth(X):
    """Median nonzero pairwise distance; 1.0 for degenerate point clouds.
    A stack X (items, n, k) gives one bandwidth per item."""
    X = np.asarray(X, dtype=float)
    return _median_distance(pairwise_sq_dists(X, X))


def _refined_solve(K, Y):
    alpha = np.linalg.solve(K, Y)
    # One round of iterative refinement; K is near-singular when lam -> 0.
    return alpha + np.linalg.solve(K, Y - K @ alpha)


def fit_kernel_ridge(X, Y, lam: float, bandwidth="median") -> KernelRidgePayload:
    """RBF kernel ridge: alpha = (K + lam*I)^-1 Y, by least squares when K
    is singular.  A stack X (items, n, k), Y (items, n, m) fits one model
    per item by stacked solves, with a median bandwidth per item.  One
    pairwise distance matrix per fit serves both the bandwidth and K."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if bandwidth != "median":
        bw = float(bandwidth)
        if bw <= 0:
            raise HierfcstError(f"kernel bandwidth must be > 0, got {bw}")
    # One distance matrix gives the median bandwidth and, overwritten in
    # place, K + lam*I.
    sq = pairwise_sq_dists(X, X)
    if bandwidth == "median":
        bw = _median_distance(sq)
    K = _rbf_in_place(sq, bw)
    diag = np.arange(X.shape[-2])
    K[..., diag, diag] += lam
    alpha = np.empty(Y.shape)
    Ks, Ys, out = (K, Y, alpha) if K.ndim == 3 else (K[None], Y[None], alpha[None])
    for k in solve_items(_refined_solve, out, Ks, Ys):
        out[k] = np.linalg.lstsq(Ks[k], Ys[k], rcond=None)[0]
    return KernelRidgePayload(X, alpha, bw)
