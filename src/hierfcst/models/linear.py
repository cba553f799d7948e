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


def _gemv(A, x):
    """A @ x[f] for every row f of x (fits, k), A one matrix or a stack of
    one per fit: one BLAS matrix-vector product per fit, each with the bits
    of that product alone."""
    return np.matmul(A, x[..., None])[..., 0]


def _dots(a, b):
    """a[f] @ b[f] for every row f of a and b (fits, n): one BLAS dot per
    fit, with each row's stride."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _fortran_stack(V):
    """Each matrix of the stack V in Fortran order, the layout V[:, mask]
    gives one matrix: products with it then take the BLAS path, and the
    bits, of that one matrix."""
    return np.swapaxes(np.swapaxes(V, 1, 2).copy(), 1, 2)


def fit_lasso(X, Y, lam: float, max_sweeps: int = 500, tol: float = 1e-8) -> LassoPayload:
    """Exact lasso, objective 0.5*mean(r^2) + lam*||w||_1, unpenalized bias.

    Each target column y is an exact lasso on the centred data: minimise
    0.5 w'Gw - c'w + lam*||w||_1 with G = Xc'Xc/n and c = Xc'yc/n, by the
    active-set method of Osborne, Presnell & Turlach (2000), from w = 0;
    the intercept is mean(y) - mean(X) @ w.  Each step moves w once.  From
    an optimum on the active set it adds the free coordinate that breaks
    the KKT conditions most, with the sign of its gradient, and moves to
    the optimum on the enlarged set; when a sign would flip on the way it
    stops at the first zero crossing and drops that coordinate, and the
    next step re-solves without adding.  On a singular active block it
    follows a null vector h with s'h < 0, along which the objective falls,
    to a crossing.

    The columns' fits step in lockstep on the shared Xc and G: per step one
    KKT check over the fits at an optimum and one batched eigh per
    active-set size, each fit with the bits it has alone.  ``max_sweeps``
    caps the steps and ``tol`` is the KKT tolerance relative to ``lam``
    (plus a rounding floor).  ``objective_histories`` holds the objective
    after every step (non-increasing); ``converged[c]`` is False when
    target c hit the step cap before meeting the KKT conditions.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n, k = X.shape
    x_mean = X.mean(axis=0)
    Xc = X - x_mean
    G = Xc.T @ Xc / n
    # A column's mean over a contiguous copy is summed pairwise, as the
    # column alone is; a reduction down Y's rows would add sequentially.
    Yt = np.ascontiguousarray(Y.T)
    y_mean = Yt.mean(axis=1)
    Yc = Yt - y_mean[:, None]
    c = _gemv(Xc.T, Yc) / n
    m = len(Yc)
    W = np.zeros((m, k))              # one fit's w per row

    def objective(fits):
        w = W[fits]
        return (0.5 * np.mean((Yc[fits] - _gemv(Xc, w)) ** 2, axis=1)
                + lam * np.sum(np.abs(w), axis=1))

    histories = [[value] for value in objective(np.arange(m))]
    converged = np.full(m, k == 0)
    live = np.full(m, k > 0)              # fits still stepping
    signs = np.zeros((m, k))
    free = np.repeat(np.diag(G)[None] > 0, m, axis=0)   # zero-variance columns never enter
    order = np.zeros((m, k), dtype=int)   # the active set, in order of entry
    size = np.zeros(m, dtype=int)
    settled = np.ones(m, dtype=bool)      # w is optimal on the active set
    thr = np.zeros(m)
    c_top, abs_G = np.abs(c).max(axis=1, initial=0.0), np.abs(G)
    steps = 0
    while live.any():
        check = np.flatnonzero(live & settled)
        w = W[check]
        g = c[check] - _gemv(G, w)
        # g is known only to about eps times the terms it sums; without this
        # floor a fit at lam = 0 chases rounding until the cap.
        floor = 16 * k * _EPS * np.maximum(c_top[check],
                                           _gemv(abs_G, np.abs(w)).max(axis=1, initial=0.0))
        thr[check] = tol * lam + floor
        breach = np.where(free[check], np.abs(g) - lam, -np.inf)
        j = np.argmax(breach, axis=1)
        grow = breach[np.arange(len(check)), j] > thr[check]
        converged[check[~grow]] = True
        live[check[~grow]] = False
        if steps >= max_sweeps:
            break
        fits, j = check[grow], j[grow]
        order[fits, size[fits]] = j
        size[fits] += 1
        free[fits, j] = False
        signs[fits, j] = np.sign(g[grow, j])
        stepping = np.flatnonzero(live)
        sizes = size[stepping]
        for s in np.unique(sizes).tolist():
            fits = stepping[sizes == s]
            A = order[fits, :s]
            rows = fits[:, None]
            sA, wA, GA = signs[rows, A], W[rows, A], G[A[:, :, None], A[:, None, :]]
            vals, V = np.linalg.eigh(GA)
            null = vals <= 100 * s * _EPS * vals[:, -1:]   # rounding-level eigenvalues
            r = c[rows, A] - lam * sA - _gemv(GA, wA)
            d, reach = np.empty_like(wA), np.ones(len(fits))
            full = ~null.any(axis=1)
            Vf = _fortran_stack(V[full])
            d[full] = _gemv(Vf, _gemv(np.swapaxes(Vf, 1, 2), r[full]) / vals[full])
            for b in np.flatnonzero(~full).tolist():
                # lam*h is the part of the gradient no move on the block can
                # cancel; when it is below the KKT tolerance the block is
                # solved in its range.
                h = -V[b][:, null[b]] @ (V[b][:, null[b]].T @ sA[b])
                if lam * np.abs(h).max(initial=0.0) > thr[fits[b]]:
                    d[b], reach[b] = h, np.inf
                else:
                    Vr = V[b][:, ~null[b]]
                    d[b] = Vr @ (Vr.T @ r[b] / vals[b][~null[b]])
            shrink = sA * d < 0
            cross = np.divide(-wA, d, out=np.full(d.shape, np.inf), where=shrink)
            i = np.argmin(cross, axis=1)
            first = cross[np.arange(len(fits)), i]
            # A sign would flip: stop at the first zero crossing and drop
            # that coordinate.
            hit = first < reach
            W[rows, A] = wA + np.where(hit, first, 1.0)[:, None] * d
            settled[fits] = ~hit | (s == 1)
            if hit.any():
                fits, A = fits[hit], A[hit]
                at = A[np.arange(len(fits)), i[hit]]
                W[fits, at] = 0.0
                free[fits, at] = True
                order[fits, :s - 1] = A[A != at[:, None]].reshape(len(fits), s - 1)
                size[fits] = s - 1
        for f, value in zip(stepping.tolist(), objective(stepping)):
            histories[f].append(value)
        steps += 1
    intercepts = y_mean - _dots(np.broadcast_to(x_mean, W.shape), W)
    return LassoPayload(intercepts, W.T, histories, converged.tolist())


class PoissonPayload:
    """coef has shape (1 + n_features, n_targets), bias first; a stack of
    item fits has a leading item axis, with NaN coefficients for the items
    listed in ``failures`` (item position -> error).  ``ll_histories``,
    ``converged`` and ``lstsq_fallbacks`` hold one entry per fit,
    item-major: item i's target c at i * n_targets + c."""

    def __init__(self, coef, ll_histories, converged, lstsq_fallbacks, failures=None):
        self.coef = coef
        self.ll_histories = ll_histories
        self.converged = converged      # per fit: stopped on tol before max_iter
        # Per fit: the iterations whose IRLS system was singular, solved by
        # least squares.
        self.lstsq_fallbacks = lstsq_fallbacks
        self.failures = failures or {}

    def predict_raw(self, X):
        eta = _with_bias(X) @ self.coef
        return np.exp(eta)


def _poisson_lls(Xb, y, B, lam):
    """Penalized log-likelihood of every fit f at coefficients B[f], on rows
    Xb[f] and targets y[f]."""
    eta = np.clip(_gemv(Xb, B), -500, 500)
    ll = _dots(y, eta) - np.sum(np.exp(eta), axis=1)
    return ll - _dots(0.5 * lam * B[:, 1:], B[:, 1:])


def _solve_system(A, b):
    return np.linalg.solve(A, b[..., None])[..., 0]


def fit_poisson(X, Y, lam: float = 0.0, max_iter: int = 200,
                tol: float = 1e-10) -> PoissonPayload:
    """Log-link Poisson regression by iteratively reweighted least squares
    (McCullagh & Nelder 1989) with step halving, which keeps the penalized
    log-likelihood non-decreasing; fractional y >= 0 is accepted (quasi
    deviance).

    Every (item, target) fit runs in lockstep: one batched Gram product and
    one stacked solve per iteration, the halving masked over the fits still
    halving.  Only when the stacked solve raises is each fit solved alone;
    a singular system is solved by least squares and counted in
    ``lstsq_fallbacks``.  X (n, k), Y (n, m) fit one model and raise the
    error of a failed fit; a stack X (items, n, k), Y (items, n, m) fits
    one model per item and lists an item whose fit fails in ``failures``.
    ``converged`` is False for a fit that ran all ``max_iter`` iterations
    without the log-likelihood settling within ``tol``.
    """
    Xb = _with_bias(X)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if np.any(Y < 0):
        raise DomainError("Poisson regression requires non-negative targets")
    stacked = Xb.ndim == 3
    if not stacked:
        Xb, Y = Xb[None], Y[None]
    items, n, k = Xb.shape
    m = Y.shape[-1]
    item = np.repeat(np.arange(items), m)
    # Each fit's targets, a contiguous row for the starting mean (summed
    # pairwise, as a lone column is; a reduction along a strided axis adds
    # sequentially) and a strided view for y @ eta: a target column Y[:, c]
    # that is strided takes BLAS's strided ddot, whose bits differ from the
    # unit-stride one.
    ys = np.ascontiguousarray(np.swapaxes(Y, 1, 2)).reshape(items * m, n)
    strided = np.zeros((items * m, n, 1 if Y.strides[-2] == Y.itemsize else 2))
    strided[:, :, 0] = ys

    def lls(fits, B):
        return _poisson_lls(Xb[item[fits]], strided[fits][:, :, 0], B, lam)

    penalty = np.eye(k) * lam
    penalty[0, 0] = 0.0
    B = np.zeros((items * m, k))
    B[:, 0] = np.log(ys.mean(axis=1) + 1e-8)
    ll = lls(np.arange(items * m), B)
    histories = [[value] for value in ll]
    converged = np.zeros(items * m, dtype=bool)
    fallbacks = np.zeros(items * m, dtype=int)
    errors = {}                           # fit -> the LinAlgError of its lstsq
    live = np.arange(items * m)
    for _ in range(max_iter):
        if not len(live):
            break
        Xl, y, beta = Xb[item[live]], strided[live][:, :, 0], B[live]
        eta = np.clip(_gemv(Xl, beta), -500, 500)
        mu = np.exp(eta)
        z = eta + (y - mu) / np.maximum(mu, 1e-12)
        Xt = np.swapaxes(Xl, 1, 2)
        A = Xt @ (mu[:, :, None] * Xl) + penalty
        b = _gemv(Xt, mu * z)
        proposal = np.empty_like(beta)
        solved = np.ones(len(live), dtype=bool)
        for r in solve_items(_solve_system, proposal, A, b):
            fallbacks[live[r]] += 1
            try:
                proposal[r] = np.linalg.lstsq(A[r], b[r], rcond=None)[0]
            except np.linalg.LinAlgError as exc:
                errors[live[r]] = exc
                solved[r] = False
        live, beta, proposal = live[solved], beta[solved], proposal[solved]
        # Step halving keeps the penalized log-likelihood non-decreasing.
        step = np.ones(len(live))
        direction = proposal - beta
        halving = np.arange(len(live))
        for _ in range(60):
            candidate = beta[halving] + step[halving, None] * direction[halving]
            short = ~(lls(live[halving], candidate) >= ll[live[halving]] - 1e-12)
            halving = halving[short]
            if not len(halving):
                break
            step[halving] *= 0.5
        B[live] = beta + step[:, None] * direction
        new_ll = lls(live, B[live])
        for f, value in zip(live.tolist(), new_ll):
            histories[f].append(value)
        settled = np.abs(new_ll - ll[live]) < tol * (1 + np.abs(ll[live]))
        converged[live[settled]] = True
        ll[live] = new_ll
        live = live[~settled]
    failures = {}
    for f in sorted(errors):
        failures.setdefault(int(item[f]), errors[f])
    coef = B.reshape(items, m, k).transpose(0, 2, 1)
    coef[list(failures)] = np.nan
    payload = PoissonPayload(coef if stacked else coef[0], histories,
                             converged.tolist(), fallbacks.tolist(), failures)
    if not stacked and failures:
        raise failures[0]
    return payload


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
