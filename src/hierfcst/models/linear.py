"""Closed-form and iterative linear-family regressors (numpy, and LAPACK
through scipy).

All fitters take X without a bias column and add one internally; the
intercept is never penalized.  Multi-output targets are handled as
independent per-column problems.  Ridge, Poisson and kernel ridge fit
only stacks of items, X (items, n, k) and Y (items, n, m), one model per
item (a single fit is a stack of one), and list a failed item in the
payload's ``failures`` (item position -> error).  A stack of one
predicts any X (..., rows, k), its coefficients broadcast.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from ..errors import DomainError, HierfcstError, IllConditionedError

# LAPACK and BLAS handles resolved once: a per-item call skips scipy's
# argument checks and batch loop, and makes the same call with the same bits.
_potrf, _potrs = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)
_symm = get_blas_funcs("symm", dtype=np.float64)


def _with_bias(X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.concatenate([np.ones(X.shape[:-1] + (1,)), X], axis=-1)


class RidgePayload:
    """coef has shape (items, 1 + n_features, n_targets), bias first, with
    NaN coefficients for the items listed in ``failures``."""

    def __init__(self, coef, failures):
        self.coef = coef
        self.failures = failures

    def predict_raw(self, X):
        return _with_bias(X) @ self.coef


def solve_stack(A, b):
    """x[k] with A[k] x[k] = b[k] for every system k of a stack A (s, n, n),
    b (s, n), by one stacked solve.  Only when that raises is each system
    solved alone, and a singular one takes lstsq's minimum-norm answer.
    Returns (x, {k: None, or lstsq's LinAlgError, for each system k that
    went to lstsq}); a system whose lstsq fails has a NaN answer."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0], {}
    except np.linalg.LinAlgError:
        pass
    x = np.full(b.shape, np.nan)
    singular = {}
    for k in range(len(A)):
        try:
            x[k] = np.linalg.solve(A[k], b[k, :, None])[:, 0]
        except np.linalg.LinAlgError:
            singular[k] = None
            try:
                x[k] = np.linalg.lstsq(A[k], b[k], rcond=None)[0]
            except np.linalg.LinAlgError as exc:
                singular[k] = exc
    return x, singular


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
    """Exact ridge solution of (X'X + lam*D) b = X'Y with unpenalized bias,
    one per item of the stack X (items, n, k), Y (items, n, m), by one
    Cholesky solve per item, a pair of LAPACK calls.  An item whose normal
    equations are non-finite (overflowing) or singular is listed in
    ``failures`` with a DomainError or IllConditionedError.
    """
    Xb = _with_bias(X)
    Y = np.asarray(Y, dtype=float)
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
    return RidgePayload(coef, failures)


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
    """coef has shape (items, 1 + n_features, n_targets), bias first, with
    NaN coefficients for the items listed in ``failures``.  ``ll_histories``,
    ``converged`` and ``lstsq_fallbacks`` hold one entry per fit,
    item-major: item i's target c at i * n_targets + c."""

    def __init__(self, coef, ll_histories, converged, lstsq_fallbacks, failures):
        self.coef = coef
        self.ll_histories = ll_histories
        self.converged = converged      # per fit: stopped on tol before max_iter
        # Per fit: the iterations whose IRLS system was singular, solved by
        # least squares.
        self.lstsq_fallbacks = lstsq_fallbacks
        self.failures = failures

    def predict_raw(self, X):
        eta = _with_bias(X) @ self.coef
        return np.exp(eta)


def _poisson_lls(Xb, y, B, lam):
    """Penalized log-likelihood of every fit f at coefficients B[f], on rows
    Xb[f] and targets y[f]."""
    eta = np.clip(_gemv(Xb, B), -500, 500)
    ll = _dots(y, eta) - np.sum(np.exp(eta), axis=1)
    return ll - _dots(0.5 * lam * B[:, 1:], B[:, 1:])


def fit_poisson(X, Y, lam: float = 0.0, max_iter: int = 200,
                tol: float = 1e-10) -> PoissonPayload:
    """Log-link Poisson regression by iteratively reweighted least squares
    (McCullagh & Nelder 1989) with step halving, which keeps the penalized
    log-likelihood non-decreasing; fractional y >= 0 is accepted (quasi
    deviance).

    One model per item of the stack X (items, n, k), Y (items, n, m).
    Every (item, target) fit runs in lockstep: one batched Gram product and
    one stacked solve per iteration, the halving masked over the fits still
    halving.  Only when the stacked solve raises is each fit solved alone;
    a singular system is solved by least squares and counted in
    ``lstsq_fallbacks``, and an item whose least squares fails is listed in
    ``failures``.  Negative targets raise for the whole stack.
    ``converged`` is False for a fit that ran all ``max_iter`` iterations
    without the log-likelihood settling within ``tol``.
    """
    Xb = _with_bias(X)
    Y = np.asarray(Y, dtype=float)
    if np.any(Y < 0):
        raise DomainError("Poisson regression requires non-negative targets")
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
        proposal, singular = solve_stack(A, b)
        solved = np.ones(len(live), dtype=bool)
        for r, exc in singular.items():
            fallbacks[live[r]] += 1
            if exc is not None:
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
    return PoissonPayload(coef, histories, converged.tolist(), fallbacks.tolist(), failures)


class KernelRidgePayload:
    """X_train (items, n_train, k), alpha (items, n_train, n_targets) and
    the bandwidth: one per item (median) or one float for all.
    ``lstsq_fallbacks`` holds one entry per item: 1 when its K + lam*I was
    not positive definite and was solved by least squares, else 0.  A fit
    raises as a whole, so its ``failures`` stay empty."""

    def __init__(self, X_train, alpha, bandwidth, lstsq_fallbacks):
        self.X_train = X_train
        self.alpha = alpha
        self.bandwidth = bandwidth
        self.lstsq_fallbacks = lstsq_fallbacks
        self.failures = {}

    def predict_raw(self, X):
        K = rbf_kernel(X, self.X_train, self.bandwidth)
        return K @ self.alpha


def pairwise_sq_dists(A, B):
    aa = np.sum(A ** 2, axis=-1)[..., :, None]
    bb = np.sum(B ** 2, axis=-1)[..., None, :]
    # The predict path: (2.0 * A) @ B^T, a general product, as written, so
    # predictions keep their bits.  A fit's own distances are _self_sq_dists.
    return np.maximum(aa + bb - 2.0 * A @ np.swapaxes(B, -1, -2), 0.0)


def _self_sq_dists(X):
    """Squared distances between the rows of each item of a stack X (items,
    n, k): (aa_i + aa_j) - 2 G_ij over the Gram matrix G = X X', written
    into G's memory an eighth of the rows at a time.  numpy forms each
    item's X X' by a symmetric product (syrk), so the result is exactly
    symmetric.  A value within the formula's rounding error bound of 0,
    2 (k + 1) eps (aa_i + aa_j), is 0: equal rows are exactly 0 apart,
    where rounding would leave them a spurious distance."""
    aa = np.sum(X ** 2, axis=-1)
    sq = X @ np.swapaxes(X, 1, 2)
    floor = 2 * (X.shape[2] + 1) * _EPS
    step = -(-X.shape[1] // 8)
    for r in range(0, X.shape[1], step):
        rows = sq[:, r:r + step]
        scale = aa[:, r:r + step, None] + aa[:, None, :]
        rows *= -2.0
        rows += scale
        scale *= floor
        rows[rows <= scale] = 0.0
    return sq


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
    """Median nonzero distance over the pairs above the diagonal of each
    item's squared distances in a stack sq (items, n, n); 1.0 for an item
    with no pair apart."""
    n = sq.shape[-1]
    if n < 2:                           # no pair to take the median of
        return np.ones(len(sq))
    # Row by row: an index of the upper triangle would take twice its size.
    upper = np.concatenate([sq[:, i, i + 1:] for i in range(n - 1)], axis=-1)
    count = np.count_nonzero(upper > 0, axis=-1)
    # Zero distances sort last; the median is taken over the first count.
    upper[upper == 0] = np.inf
    upper.sort(axis=-1)
    # Order statistics of the squares: sqrt is monotone.
    lo = np.sqrt(np.take_along_axis(upper, np.maximum(count - 1, 0)[:, None] // 2, -1)[:, 0])
    hi = np.sqrt(np.take_along_axis(upper, (count // 2)[:, None], -1)[:, 0])
    median = np.where(count % 2 == 1, lo, (lo + hi) / 2)
    return np.where(count > 0, median, 1.0)


def median_bandwidth(X):
    """Median nonzero pairwise distance; 1.0 for degenerate point clouds.
    A stack X (items, n, k) gives one bandwidth per item."""
    X = np.asarray(X, dtype=float)
    median = _median_distance(_self_sq_dists(X if X.ndim == 3 else X[None]))
    return median if X.ndim == 3 else float(median[0])


def _kernel_solve(K, Y):
    """(alpha, 0) with K alpha = Y for one item's K + lam*I (n, n), exactly
    symmetric and in C order, by one Cholesky factor and one round of
    iterative refinement.  The factor is written over K's lower triangle
    (the upper triangle of the Fortran-ordered K.T); the refinement's
    residual Y - K x reads K from the upper triangle, which the factor
    leaves as it was, and the diagonal saved before.  When K is not
    positive definite it is restored and solved by least squares: (alpha,
    1)."""
    A = K.T
    diag = K.diagonal().copy()
    factor, info = _potrf(A, lower=False, overwrite_a=True, clean=False)
    if info > 0:
        for i in range(1, len(K)):
            K[i, :i] = K[:i, i]
        np.fill_diagonal(K, diag)
        return np.linalg.lstsq(K, Y, rcond=None)[0], 1
    x, _ = _potrs(factor, Y, lower=False)
    pivots = K.diagonal().copy()
    np.fill_diagonal(K, diag)
    residual = Y - _symm(1.0, A, x, lower=True)
    np.fill_diagonal(K, pivots)
    return x + _potrs(factor, residual, lower=False)[0], 0


# Bytes of the (..., n, n) kernel stack one fit may build: 1 GiB, a single
# matrix of up to 11,585 rows.  A fit past it fails before it allocates.
KERNEL_MAX_BYTES = 2 ** 30


def fit_kernel_ridge(X, Y, lam: float, bandwidth="median") -> KernelRidgePayload:
    """RBF kernel ridge: alpha = (K + lam*I)^-1 Y, one per item of the stack
    X (items, n, k), Y (items, n, m), with a median bandwidth per item.
    Each item's n x n buffer holds its squared
    distances, which give the median bandwidth, then K + lam*I in place,
    then its Cholesky factor beside it (``_kernel_solve``).  An item whose
    K + lam*I is not positive definite, such as one whose rows are all
    equal at lam = 0, is solved by least squares and counted in the
    payload's ``lstsq_fallbacks``."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = X.shape[1]
    if (nbytes := X[..., 0].size * n * X.itemsize) > KERNEL_MAX_BYTES:
        raise HierfcstError(
            f"kernel ridge on {n} rows needs {nbytes} bytes of kernel matrices, over "
            f"the budget of {KERNEL_MAX_BYTES}; fit it per item (df_one_by_one)")
    K = _self_sq_dists(X)
    bw = _median_distance(K) if bandwidth == "median" else float(bandwidth)
    K = _rbf_in_place(K, bw)
    diag = np.arange(n)
    K[:, diag, diag] += lam
    alpha = np.empty(Y.shape)
    fallbacks = [0] * len(K)
    for k in range(len(K)):
        alpha[k], fallbacks[k] = _kernel_solve(K[k], Y[k])
    return KernelRidgePayload(X, alpha, bw, fallbacks)
