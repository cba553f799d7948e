"""Independent reference implementations used to cross-check the library.

These deliberately use different algorithms from the code under test:
generic gradient descent with backtracking instead of closed forms, dense
eigendecompositions with the plain largest-magnitude sign rule, Newton
steps instead of IRLS, lasso by cyclic coordinate descent on the raw
columns instead of active-set steps on the centred Gram matrix, central
finite differences for gradients, per-cell, per-column or dense
assemblies where the library gathers, stacks or bands, TRMF sweeps with
an einsum, scipy's solveh_banded and per-factor lstsq where the library
scatters into a band it hands to LAPACK and solves stacks, regression
trees grown node by node, depth first, with a per-candidate split loop
where the library grows every tree of a fit level by level, a backtest
run item by item (own transform, features, fit, lstsq and SMAPE per item)
where the library stacks items, a CSV read row by row where the library
parses by column, series features one series at a time where the library
takes a stack, a Mapper over the dense Canberra matrix summed column
by column where the library computes each preimage's block on its own,
single linkage by Prim's tree and a union-find where the library calls
scipy's linkage and fcluster, graph components by depth-first search
where the library calls scipy's connected_components, Mapper edges,
series counts, partition votes and majority labels from sets and
Counters where the library multiplies one membership matrix, kernel
ridge by scipy's cho_factor and cho_solve on a whole K, its bandwidth by
np.median of an index-gathered triangle, where the library factors K in
the buffer that held its distances, and the active-set lasso and Poisson
IRLS one target of one item at a time where the library steps every fit
in lockstep.
"""

import csv
from collections import Counter

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solveh_banded
from scipy.linalg.blas import dsymm

from hierfcst import trmf
from hierfcst.dataset import CSV_HEADER, DEFAULT_MAX_LEAD, PreorderTensor
from hierfcst.errors import (DomainError, DuplicateKeyError, HierfcstError,
                             IllConditionedError, ParseError)
from hierfcst.evaluate import ITEM_ERRORS, NODF_LAGS
from hierfcst.models import fit
from hierfcst.preprocess import window_index
from hierfcst.tda import HISTOGRAM_BINS, MapperGraph, MapperNode, pca_lens


def gradient_descent(f, grad, x0, max_iter=20000, tol=1e-12):
    """Minimize a smooth function with backtracking-line-search descent."""
    x = np.asarray(x0, dtype=float).copy()
    fx = f(x)
    step = 1.0
    for _ in range(max_iter):
        g = grad(x)
        gnorm = np.linalg.norm(g)
        if gnorm < tol:
            break
        step = min(step * 2.0, 1e6)
        while step > 1e-20:
            cand = x - step * g
            fc = f(cand)
            if fc <= fx - 0.5 * step * gnorm ** 2:
                break
            step *= 0.5
        else:
            break
        x, fx = x - step * g, fc
    return x


def numeric_grad(f, x, eps=1e-6):
    """Central-difference gradient of f at x (flattened)."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty_like(flat)
    for i in range(flat.size):
        save = flat[i]
        flat[i] = save + eps
        fp = f(x)
        flat[i] = save - eps
        fm = f(x)
        flat[i] = save
        out[i] = (fp - fm) / (2 * eps)
    return out.reshape(x.shape)


def pc1_dense(X):
    """First principal component of column-standardized X via eigh."""
    C = X.T @ X / (X.shape[0] - 1)
    vals, vecs = np.linalg.eigh(C)
    v = vecs[:, -1]
    pivot = int(np.argmax(np.abs(v)))
    if v[pivot] < 0:
        v = -v
    return v, float(vals[-1] / np.trace(C))


def fiedler_dense(adjacency):
    """Second-smallest Laplacian eigenvector via dense eigendecomposition."""
    A = np.asarray(adjacency, dtype=float)
    L = np.diag(A.sum(axis=1)) - A
    vals, vecs = np.linalg.eigh(L)
    v = vecs[:, 1]
    pivot = int(np.argmax(np.abs(v)))
    if v[pivot] < 0:
        v = -v
    return v


def newton_poisson(X, y, iters=200):
    """Poisson GLM (log link, bias first column included in X) by Newton."""
    beta = np.zeros(X.shape[1])
    beta[0] = np.log(np.mean(y) + 1e-8)
    for _ in range(iters):
        eta = X @ beta
        mu = np.exp(eta)
        g = X.T @ (y - mu)
        Hmat = X.T @ (mu[:, None] * X)
        step = np.linalg.solve(Hmat + 1e-12 * np.eye(X.shape[1]), g)
        beta = beta + step
        if np.linalg.norm(step) < 1e-13:
            break
    return beta


def lasso_objective(X, y, w, b, lam):
    """0.5 * mean(r^2) + lam * ||w||_1 with r = y - b - Xw."""
    resid = y - b - X @ w
    return 0.5 * np.mean(resid ** 2) + lam * np.sum(np.abs(w))


def lasso_kkt_breach(X, y, w, b, lam):
    """Largest breach of the lasso optimality conditions (bias unpenalized):
    mean(r) = 0, X_j'r/n = lam * sign(w_j) where w_j != 0 and
    |X_j'r/n| <= lam where w_j = 0."""
    r = y - b - X @ w
    g = X.T @ r / len(r)
    breach = np.where(w != 0, np.abs(g - lam * np.sign(w)),
                      np.maximum(np.abs(g) - lam, 0.0))
    return max(float(breach.max(initial=0.0)), abs(float(r.mean())))


def lasso_cd(X, y, lam, max_sweeps, tol):
    """Cyclic coordinate-descent lasso on the raw columns, one soft-threshold
    update per coordinate and an intercept update per sweep; stops when no
    coordinate moves by tol or after max_sweeps.  The residual is recomputed
    at the start of every sweep, so long runs do not drift.  Returns w, b
    and the objective after every sweep."""
    n, k = X.shape
    col_sq = np.sum(X ** 2, axis=0) / n
    w = np.zeros(k)
    b = float(np.mean(y))
    history = [lasso_objective(X, y, w, b, lam)]
    for _ in range(max_sweeps):
        resid = y - b - X @ w
        max_delta = 0.0
        for j in range(k):
            if col_sq[j] == 0.0:
                continue
            old = w[j]
            if old != 0.0:
                resid += old * X[:, j]
            rho = (X[:, j] @ resid) / n
            w[j] = np.sign(rho) * max(abs(rho) - lam, 0.0) / col_sq[j]
            if w[j] != 0.0:
                resid -= w[j] * X[:, j]
            max_delta = max(max_delta, abs(w[j] - old))
        b_old = b
        b = b_old + float(np.mean(resid))
        history.append(lasso_objective(X, y, w, b, lam))
        if max_delta < tol and abs(b - b_old) < tol:
            break
    return w, b, history


# The one-fit-at-a-time lasso and Poisson solvers that the lockstep fits
# of hierfcst.models.linear replaced: each must reproduce them bit for bit.

_EPS = np.finfo(float).eps


def active_set_lasso(Xc, yc, G, lam, max_steps, tol):
    """Exact lasso on centred data: minimise 0.5*mean((yc - Xc w)^2) +
    lam*||w||_1, i.e. 0.5 w'Gw - c'w + lam*||w||_1 with G = Xc'Xc/n and
    c = Xc'yc/n, by the active-set method of Osborne, Presnell & Turlach
    (2000), from w = 0, one fit at a time.  Returns w, the objective after
    every step, and whether the KKT conditions held within tol*lam (plus a
    rounding floor) before max_steps steps."""
    n, k = Xc.shape
    c = Xc.T @ yc / n
    w = np.zeros(k)
    signs = np.zeros(k)
    free = np.diag(G) > 0
    active = []

    def objective():
        return 0.5 * np.mean((yc - Xc @ w) ** 2) + lam * np.sum(np.abs(w))

    history = [objective()]
    if k == 0:
        return w, history, True
    settled = True
    while True:
        if settled:
            g = c - G @ w
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
        null = vals <= 100 * len(A) * _EPS * vals[-1]
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


def lasso_fits(X, Y, lam, max_sweeps=500, tol=1e-8):
    """(intercepts, coefs, objective histories, converged) of one
    active_set_lasso per target column."""
    x_mean = X.mean(axis=0)
    Xc = X - x_mean
    G = Xc.T @ Xc / X.shape[0]
    coefs, intercepts, histories, converged = [], [], [], []
    for y in Y.T:
        w, hist, ok = active_set_lasso(Xc, y - y.mean(), G, lam, max_sweeps, tol)
        coefs.append(w)
        intercepts.append(y.mean() - x_mean @ w)
        histories.append(hist)
        converged.append(ok)
    return np.array(intercepts), np.array(coefs).T, histories, converged


def _poisson_ll(Xb, y, beta):
    eta = np.clip(Xb @ beta, -500, 500)
    return float(y @ eta - np.sum(np.exp(eta)))


def poisson_irls(Xb, y, lam, max_iter, tol):
    """IRLS with step halving for one target, least squares where the
    system is singular.  Returns beta, the penalized log-likelihood after
    every iteration, converged and the number of least-squares solves."""
    k = Xb.shape[1]
    beta = np.zeros(k)
    beta[0] = np.log(np.mean(y) + 1e-8)
    penalty = np.eye(k) * lam
    penalty[0, 0] = 0.0
    ll = _poisson_ll(Xb, y, beta) - 0.5 * lam * beta[1:] @ beta[1:]
    history = [ll]
    converged = False
    fallbacks = 0
    for _ in range(max_iter):
        eta = np.clip(Xb @ beta, -500, 500)
        mu = np.exp(eta)
        z = eta + (y - mu) / np.maximum(mu, 1e-12)
        A = Xb.T @ (mu[:, None] * Xb) + penalty
        b = Xb.T @ (mu * z)
        try:
            proposal = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            fallbacks += 1
            proposal = np.linalg.lstsq(A, b, rcond=None)[0]
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
    return beta, history, converged, fallbacks


def poisson_fits(X, Y, lam=0.0, max_iter=200, tol=1e-10):
    """(coef, log-likelihood histories, converged, lstsq fallbacks) of one
    poisson_irls per target column of one item."""
    Xb = np.concatenate([np.ones((X.shape[0], 1)), X], axis=1)
    fits = [poisson_irls(Xb, Y[:, c], lam, max_iter, tol) for c in range(Y.shape[1])]
    coef, histories, converged, fallbacks = zip(*fits) if fits else ((), (), (), ())
    return np.array(coef).T, list(histories), list(converged), list(fallbacks)


def smape_ref(forecast, actual):
    """Direct formula evaluation, independent of the library helper."""
    F = np.asarray(forecast, float)
    A = np.asarray(actual, float)
    total = 0.0
    for f, a in zip(F, A):
        den = abs(f) + abs(a)
        if den > 0:
            total += abs(f - a) / den
    return 200.0 * total / len(F)


def window_cells(values, item, anchor, index):
    """One diagonal-feeding window read cell by cell: values[item, anchor + s, h]
    for each (s, h) of index, in index order."""
    return np.array([values[item, anchor + s, h] for (s, h) in index])


def training_rows(values, items, anchors, index, transforms):
    """Supervised rows stacked one (item, anchor) frame at a time, item-major,
    each mapped through its item's transform."""
    return np.array([transforms[i].forward(window_cells(values, i, a, index))
                     for i in items for a in anchors])


def f_step_columns(Y, mask, Z, lam_f, m):
    """TRMF loading update one item column at a time: the ridge normal
    equations of the column's observed rows, least squares when they are
    singular, and zero for a column with no observed row."""
    d, n = Z.shape[1], Y.shape[1]
    F = np.zeros((d, n))
    for i in range(n):
        rows = mask[:, i]
        if not rows.any():
            continue
        Zi = Z[rows]
        G = Zi.T @ Zi / m + lam_f * np.eye(d)
        b = Zi.T @ Y[rows, i] / m
        try:
            F[:, i] = np.linalg.solve(G, b)
        except np.linalg.LinAlgError:
            F[:, i] = np.linalg.lstsq(G, b, rcond=None)[0]
    return F


def z_step_dense(Y, mask, F, phi, lam_z, lam_ar, m):
    """TRMF factor update as one dense solve of the normal equations of the
    objective in Z, unknowns stacked period-major (index t*d + j)."""
    T, d = Y.shape[0], F.shape[0]
    p = phi.shape[1]
    A = lam_z * np.eye(T * d)
    rhs = np.zeros(T * d)
    for t in range(T):
        Ft = F[:, mask[t]]
        block = slice(t * d, (t + 1) * d)
        A[block, block] += Ft @ Ft.T / m
        rhs[block] = Ft @ Y[t, mask[t]] / m
    for j in range(d):
        D = np.zeros((T - p, T))  # AR(p) residual operator of factor j
        for s in range(p, T):
            D[s - p, s] = 1.0
            D[s - p, s - p:s] = -phi[j, ::-1]
        idx = np.arange(T) * d + j
        A[np.ix_(idx, idx)] += lam_ar * D.T @ D
    return np.linalg.solve(A, rhs).reshape(T, d)


def _trmf_objective_reference(Y, mask, Z, F, phi, lam_f, lam_z, lam_ar):
    m = int(mask.sum())
    resid = (Y - Z @ F)[mask]
    value = 0.5 * float(resid @ resid) / m
    value += 0.5 * lam_f * float(np.sum(F ** 2))
    value += 0.5 * lam_z * float(np.sum(Z ** 2))
    if lam_ar > 0:
        value += 0.5 * lam_ar * float(np.sum(trmf.ar_residuals(Z, phi) ** 2))
    return value


def _f_step_einsum(Y, mask, Z, lam_f, m):
    d = Z.shape[1]
    W = mask.astype(float)
    G = np.einsum("ti,tjk->ijk", W, Z[:, :, None] * Z[:, None, :]) / m
    G += lam_f * np.eye(d)
    b = (W * Y).T @ Z / m
    try:
        F = np.linalg.solve(G, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        pinv = np.linalg.pinv(G, rcond=d * np.finfo(float).eps)
        F = (pinv @ b[:, :, None])[:, :, 0]
    return F.T


def _z_step_banded(Y, mask, F, phi, lam_z, lam_ar, m):
    T, d, p = Y.shape[0], F.shape[0], phi.shape[1]
    u = p * d
    ab = np.zeros((u + 1, T * d))
    W = mask.astype(float)
    G = np.einsum("ti,jki->tjk", W, F[:, None, :] * F[None, :, :]) / m
    rhs = ((W * Y) @ F.T / m).ravel()
    rows, cols = np.triu_indices(d)
    ab[(u + rows - cols)[:, None], cols[:, None] + d * np.arange(T)] = G[:, rows, cols].T
    ab[u] += lam_z
    if lam_ar > 0:
        c = np.hstack([np.ones((d, 1)), -phi])
        for k in range(p + 1):
            band = np.zeros((T - k, d))
            for l in range(k, p + 1):
                band[max(0, p - l):T - l] += c[:, l] * c[:, l - k]
            ab[u - k * d, k * d:] += lam_ar * band.ravel()
    return solveh_banded(ab, rhs, lower=False).reshape(T, d)


def _phi_step_lstsq(Z, p):
    T, d = Z.shape
    phi = np.zeros((d, p))
    for j in range(d):
        design = np.column_stack([Z[p - i:T - i, j] for i in range(1, p + 1)])
        phi[j] = np.linalg.lstsq(design, Z[p:, j], rcond=None)[0]
    return phi


def factorize_reference(Y, mask, cfg, init=None):
    """TRMF alternating minimization block by block: the loadings by an
    einsum over the mask and one stacked solve, the factors by scipy's
    solveh_banded on a band filled lag by lag, the AR coefficients by one
    lstsq per factor, and the full objective after every sweep.  Y holds
    no NaN; the stopping rule and the random start are factorize's."""
    T, n = Y.shape
    d, p = cfg.rank, cfg.ar_order
    m = int(mask.sum())
    if init is not None:
        Z, F, phi = (np.array(a, dtype=float) for a in init)
    else:
        rng = np.random.default_rng(cfg.seed)
        scale = 0.5 / np.sqrt(d)
        Z = rng.uniform(-scale, scale, size=(T, d))
        F = rng.uniform(-scale, scale, size=(d, n))
        phi = np.zeros((d, p))
    lams = (cfg.lam_f, cfg.lam_z, cfg.lam_ar)
    history = [_trmf_objective_reference(Y, mask, Z, F, phi, *lams)]
    converged = False
    for _ in range(cfg.max_sweeps):
        F = _f_step_einsum(Y, mask, Z, cfg.lam_f, m)
        Z = _z_step_banded(Y, mask, F, phi, cfg.lam_z, cfg.lam_ar, m)
        phi = _phi_step_lstsq(Z, p)
        history.append(_trmf_objective_reference(Y, mask, Z, F, phi, *lams))
        if history[-2] - history[-1] < cfg.tol * (abs(history[-2]) + 1e-12):
            converged = True
            break
    return trmf.FactorModel(Z=Z, F=F, phi=phi, lam_f=cfg.lam_f, lam_z=cfg.lam_z,
                            lam_ar=cfg.lam_ar, mask=mask, objective_history=history,
                            converged=converged)


class RecursiveTree:
    """Regression tree grown recursively, one node at a time: for each
    feature in order, sort the node's rows stably, accumulate weights and
    weighted targets, and keep a candidate when its variance reduction beats
    the best so far by more than 1e-12.  Nodes are plain attribute records
    (``feature`` None at a leaf)."""

    def __init__(self, max_depth=6, min_leaf=2, max_features=None, rng=None):
        self.max_depth, self.min_leaf = max_depth, min_leaf
        self.max_features, self.rng = max_features, rng

    def fit(self, X, y, sample_weight=None):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        w = np.ones_like(y) if sample_weight is None else np.asarray(sample_weight, float)
        self.root = self._grow(X, y, w, 0)
        return self

    def _leaf(self, y, w):
        return _RefNode(value=float(np.average(y, weights=w)))

    def _features(self, k):
        if self.max_features is None or self.max_features >= 1.0:
            return range(k)
        m = max(1, int(round(self.max_features * k)))
        return sorted(self.rng.choice(k, size=m, replace=False).tolist())

    def _grow(self, X, y, w, depth):
        n = y.shape[0]
        if depth >= self.max_depth or n < 2 * self.min_leaf or np.ptp(y) == 0.0:
            return self._leaf(y, w)
        best_gain, best = 0.0, None
        w_total = w.sum()
        mean_total = np.average(y, weights=w)
        sse_total = float(np.sum(w * (y - mean_total) ** 2))
        for j in self._features(X.shape[1]):
            order = np.argsort(X[:, j], kind="stable")
            xs, ys, ws = X[order, j], y[order], w[order]
            cw, cwy, cwy2 = np.cumsum(ws), np.cumsum(ws * ys), np.cumsum(ws * ys ** 2)
            for i in range(self.min_leaf - 1, n - self.min_leaf):
                if xs[i] == xs[i + 1]:
                    continue
                wl, wr = cw[i], w_total - cw[i]
                if wl <= 0 or wr <= 0:
                    continue
                sl = cwy2[i] - cwy[i] ** 2 / wl
                sr = (cwy2[-1] - cwy2[i]) - (cwy[-1] - cwy[i]) ** 2 / wr
                gain = sse_total - sl - sr
                if gain > best_gain + 1e-12:
                    best_gain, best = gain, (j, 0.5 * (xs[i] + xs[i + 1]))
        if best is None:
            return self._leaf(y, w)
        node = _RefNode()
        node.feature, node.threshold = best
        go_left = X[:, node.feature] <= node.threshold
        node.left = self._grow(X[go_left], y[go_left], w[go_left], depth + 1)
        node.right = self._grow(X[~go_left], y[~go_left], w[~go_left], depth + 1)
        return node

    def predict(self, X):
        out = []
        for row in np.atleast_2d(np.asarray(X, dtype=float)):
            node = self.root
            while node.feature is not None:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out.append(node.value)
        return np.array(out)


class _RefNode:
    def __init__(self, value=None):
        self.feature = self.threshold = self.left = self.right = None
        self.value = value


def sequential_pick(gains):
    """The split rule's choice among candidate gains in scan order: a
    candidate is taken when it beats the best so far (starting at 0) by
    more than 1e-12; -1 when none is."""
    best, pick = 0.0, -1
    for j, gain in enumerate(gains):
        if gain > best + 1e-12:
            best, pick = gain, j
    return pick


def forest_reference(X, y, n_trees, max_depth, min_leaf, bootstrap, seed):
    """Predict function of a bootstrap forest fitted tree by tree."""
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    trees = []
    for _ in range(n_trees):
        tree_rng = np.random.default_rng(rng.integers(0, 2 ** 63))
        idx = tree_rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(RecursiveTree(max_depth, min_leaf).fit(X[idx], y[idx]))
    return lambda Xq: np.mean([t.predict(Xq) for t in trees], axis=0)


def adaboost_reference(X, y, rounds, base_depth, tree_class=None):
    """AdaBoost.R2 (linear loss) fitted round by round, one tree at a time
    with scalar bookkeeping: the trees and their log weights.  The trees are
    RecursiveTree unless ``tree_class`` says otherwise."""
    tree_class = tree_class or RecursiveTree
    n = X.shape[0]
    w = np.ones(n)
    trees, log_weights = [], []
    for _ in range(rounds):
        tree = tree_class(max_depth=base_depth).fit(X, y, sample_weight=w)
        err = np.abs(tree.predict(X) - y)
        if err.max() <= 0.0:
            return trees + [tree], log_weights + [np.log(1e12)]
        loss = err / err.max()
        avg_loss = float(w @ loss) / float(w.sum())
        if avg_loss >= 0.5:
            return (trees, log_weights) if trees else ([tree], [1.0])
        beta = avg_loss / (1.0 - avg_loss)
        trees.append(tree)
        log_weights.append(np.log(1.0 / beta))
        w = w * beta ** (1.0 - loss)
        w = w * (n / w.sum())
    return trees, log_weights


def weighted_median_reference(values, weights):
    """Per column of ``values`` (models, rows): the smallest value whose
    cumulative weight reaches half the total, by a loop over columns."""
    out = []
    for col in np.asarray(values).T:
        order = np.argsort(col, kind="stable")
        cum = np.cumsum(np.asarray(weights)[order])
        out.append(col[order][np.argmax(cum >= 0.5 * np.sum(weights))])
    return np.array(out)


def boost_reference(X, y, rounds, learning_rate, max_depth):
    """Predict function of squared-loss gradient boosting on every row of
    X, y."""
    init = float(np.mean(y))
    pred = np.full_like(y, init)
    trees = []
    for _ in range(rounds):
        resid = y - pred
        if np.max(np.abs(resid)) < 1e-15:
            break
        tree = RecursiveTree(max_depth=max_depth).fit(X, resid)
        pred = pred + learning_rate * tree.predict(X)
        trees.append(tree)

    def predict(Xq):
        out = np.full(np.atleast_2d(Xq).shape[0], init)
        for tree in trees:
            out = out + learning_rate * tree.predict(Xq)
        return out
    return predict


def bagged_boost_reference(X, y, n_bags, rounds, learning_rate, max_depth, seed):
    """Predict function of bagged squared-loss gradient boosting, each bag
    boosted on its own."""
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    bags = []
    for _ in range(n_bags):
        idx = rng.integers(0, n, size=n)
        bags.append(boost_reference(X[idx], y[idx], rounds, learning_rate, max_depth))
    return lambda Xq: np.mean([bag(Xq) for bag in bags], axis=0)


# ---------------------------------------------------------------------------
# The per-item backtest that the stacked DF, ARX and TRMF paths replaced
# ---------------------------------------------------------------------------

class ItemTransform:
    """Identity, log1p or min-max map of one item with float bounds, fitted
    on the given values."""

    def __init__(self, kind, values):
        values = np.asarray(values, dtype=float)
        self.kind = kind
        self.vmin, self.vmax = float(values.min()), float(values.max())

    def forward(self, v):
        v = np.asarray(v, dtype=float)
        if self.kind == "log1p":
            return np.log1p(v)
        if self.kind == "minmax":
            span = self.vmax - self.vmin
            return np.zeros_like(v) if span == 0.0 else (v - self.vmin) / span
        return v.copy()

    def inverse(self, v):
        v = np.asarray(v, dtype=float)
        if self.kind == "log1p":
            return np.expm1(v)
        if self.kind == "minmax":
            span = self.vmax - self.vmin
            return np.full_like(v, self.vmin) if span == 0.0 else v * span + self.vmin
        return v.copy()


def smape_item(forecast, actual):
    """SMAPE of one series, raising like the library on non-finite input."""
    F = np.asarray(forecast, dtype=float).ravel()
    A = np.asarray(actual, dtype=float).ravel()
    if not (np.all(np.isfinite(F)) and np.all(np.isfinite(A))):
        raise HierfcstError("smape requires finite inputs")
    den = np.abs(A) + np.abs(F)
    num = np.abs(F - A)
    terms = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return float(200.0 * np.mean(terms))


def ridge_item(X, Y, lam):
    """Predict function of one ridge fit: its own Cholesky normal equations."""
    Xb = np.hstack([np.ones((X.shape[0], 1)), X])
    penalty = np.eye(Xb.shape[1]) * lam
    penalty[0, 0] = 0.0
    try:
        factor = cho_factor(Xb.T @ Xb + penalty)
    except np.linalg.LinAlgError:
        raise IllConditionedError(
            "singular normal equations; increase the ridge penalty lam above 0") from None
    coef = cho_solve(factor, Xb.T @ Y)
    return lambda x: np.hstack([np.ones((x.shape[0], 1)), x]) @ coef


def kernel_fit(X, Y, lam):
    """(bandwidth, alpha) of one RBF kernel ridge fit with the median
    bandwidth.  The squared distances (aa_i + aa_j) - 2 X X' are symmetric,
    and 0 within the formula's rounding error bound 2 (k + 1) eps (aa_i +
    aa_j); K + lam*I is solved by its Cholesky factor and one refinement
    step whose residual Y - K alpha is a symmetric product (BLAS symm), or
    by least squares when K + lam*I is not positive definite."""
    aa = np.sum(X ** 2, axis=1)
    scale = aa[:, None] + aa[None, :]
    d2 = scale - 2.0 * (X @ X.T)
    d2[d2 <= 2 * (X.shape[1] + 1) * np.finfo(float).eps * scale] = 0.0
    dists = np.sqrt(d2[np.triu_indices_from(d2, k=1)])
    dists = dists[dists > 0]
    bw = float(np.median(dists)) if dists.size else 1.0
    K = np.exp(-d2 / (2.0 * bw ** 2)) + lam * np.eye(X.shape[0])
    try:
        factor = cho_factor(K, check_finite=False)
    except np.linalg.LinAlgError:
        return bw, np.linalg.lstsq(K, Y, rcond=None)[0]
    alpha = cho_solve(factor, Y, check_finite=False)
    residual = Y - dsymm(1.0, K, alpha, lower=1)
    # In C order, as the library stores alpha and lstsq returns it: the
    # predict product then takes the library's BLAS path.
    return bw, np.ascontiguousarray(alpha + cho_solve(factor, residual, check_finite=False))


def kernel_item(X, Y, lam):
    """Predict function of kernel_fit's fit."""
    def sq_dists(A, B):
        aa = np.sum(A ** 2, axis=1)[:, None]
        bb = np.sum(B ** 2, axis=1)[None, :]
        return np.maximum(aa + bb - 2.0 * A @ B.T, 0.0)

    bw, alpha = kernel_fit(X, Y, lam)
    return lambda x: np.exp(-sq_dists(x, X) / (2.0 * bw ** 2)) @ alpha


def _item_model(spec, X, Y):
    if spec.family == "ridge":
        return ridge_item(X, Y, spec.hyperparams["lam"])
    if spec.family == "kernel" and spec.hyperparams["bandwidth"] == "median":
        return kernel_item(X, Y, spec.hyperparams["lam"])
    return fit(spec, X, Y).predict_transformed


def df_forecasts_reference(tensor, spec, split, W, H):
    """Diagonal-feeding forecasts item by item: per-cell training rows, one
    model per item (or one pooled model), one frame set per item.  Returns
    (forecasts, failures)."""
    values, n, T = tensor.values, tensor.n_items, tensor.n_periods
    tfs = {i: ItemTransform(spec.transform, values[i, :split.train_periods])
           for i in range(n)}
    x_index, y_index = window_index(H)
    train_anchors = range(split.train_periods - W + 1)
    shared = None
    if spec.feeding == "df_all_items":
        shared = _item_model(spec, training_rows(values, range(n), train_anchors, x_index, tfs),
                             training_rows(values, range(n), train_anchors, y_index, tfs))
    test = np.asarray(split.test_range)
    anchors = list(np.minimum(test - 1, T - W + 1))
    lead0 = [k for k, (s, h) in enumerate(y_index) if h == 0]
    picks = [lead0[tau - a - 1] for tau, a in zip(test, anchors)]
    out = np.full((n, len(test)), np.nan)
    failures = {}
    for i in range(n):
        try:
            model = shared or _item_model(
                spec, training_rows(values, [i], train_anchors, x_index, tfs),
                training_rows(values, [i], train_anchors, y_index, tfs))
            x = tfs[i].forward(np.array([window_cells(values, i, a, x_index)
                                         for a in anchors]))
            y_hat = np.maximum(tfs[i].inverse(model(x)), 0.0)
            out[i] = [y_hat[c, k] for c, k in enumerate(picks)]
        except ITEM_ERRORS as exc:
            failures[i] = f"{type(exc).__name__}: {exc}"
    return out, failures


def features_item(series):
    """Seven features of one series, one scalar at a time (the rules of
    hierfcst.features.extract_features)."""
    x = np.asarray(series, dtype=float).ravel()
    if x.shape[0] < 2:
        raise HierfcstError(f"need a series of length >= 2, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise HierfcstError("series must be finite")
    mean = float(np.mean(x))
    dev = x - mean
    m2 = float(np.mean(dev ** 2))
    zero_fraction = float(np.mean(x == 0.0))
    if m2 == 0.0:
        ratio = 1.0 if mean != 0.0 else 0.0
        return np.array([mean, 0.0, 0.0, 0.0, 0.0, zero_fraction, ratio])
    skew = float(np.mean(dev ** 3)) / m2 ** 1.5
    kurt = float(np.mean(dev ** 4)) / m2 ** 2 - 3.0
    autocorr = float(dev[:-1] @ dev[1:]) / float(dev @ dev)
    ratio = float(np.max(x)) / mean if mean != 0.0 else 0.0
    return np.array([mean, m2, skew, kurt, autocorr, zero_fraction, ratio])


def nodf_forecasts_reference(tensor, spec, split):
    """No-feeding forecasts item by item: each item's rows built one period
    at a time, its own fit, one predict per test period.  Returns
    (forecasts, failures)."""

    def row(series_tf, raw, tau):
        lags = [series_tf[tau - lag] for lag in range(1, NODF_LAGS + 1)]
        return np.concatenate([lags, features_item(raw[:tau])])

    out = np.full((tensor.n_items, split.test_periods), np.nan)
    failures = {}
    for i in range(tensor.n_items):
        raw = tensor.values[i, :, 0]
        tf = ItemTransform(spec.transform, raw[:split.train_periods])
        series_tf = tf.forward(raw)
        taus = range(NODF_LAGS, split.train_periods)
        try:
            model = fit(spec, np.array([row(series_tf, raw, tau) for tau in taus]),
                        series_tf[list(taus)][:, None])
            for col, tau in enumerate(split.test_range):
                value = tf.inverse(model.predict_transformed(row(series_tf, raw, tau)[None, :]))
                out[i, col] = max(value[0, 0], 0.0)
            if not np.all(np.isfinite(out[i])):
                raise HierfcstError("smape requires finite inputs")
        except ITEM_ERRORS as exc:
            out[i] = np.nan
            failures[i] = f"{type(exc).__name__}: {exc}"
    return out, failures


def arx_item(series, exog, p):
    """(intercept, phi, beta) of one AR(p) least-squares fit, design rows
    built one period at a time."""
    k = 0 if exog is None else exog.shape[1]
    if series.shape[0] <= p + k + 1:
        raise HierfcstError(f"series of length {series.shape[0]} too short for p={p} "
                            f"with {k} exogenous columns")
    rows = []
    for t in range(p, series.shape[0]):
        row = [series[t - lag] for lag in range(1, p + 1)]
        if exog is not None:
            row.extend(exog[t])
        rows.append([1.0] + row)
    coef = np.linalg.lstsq(np.array(rows), series[p:], rcond=None)[0]
    return coef[0], coef[1:1 + p], coef[1 + p:]


def arx_forecasts_reference(tensor, spec, split):
    """ARX forecasts item by item, one one-step prediction per test period.
    Returns (forecasts, failures)."""
    p = spec.hyperparams["p"]
    out = np.full((tensor.n_items, split.test_periods), np.nan)
    failures = {}
    for i in range(tensor.n_items):
        raw = tensor.values[i, :, 0]
        tf = ItemTransform(spec.transform, raw[:split.train_periods])
        series = tf.forward(raw)
        exog = None
        if spec.hyperparams["exog"] == "preorders" and tensor.n_leads >= 2:
            exog = tf.forward(tensor.values[i, :, 1:])
        try:
            c, phi, beta = arx_item(series[:split.train_periods],
                                    None if exog is None else exog[:split.train_periods], p)
        except ITEM_ERRORS as exc:
            failures[i] = f"{type(exc).__name__}: {exc}"
            continue
        for col, tau in enumerate(split.test_range):
            value = c + phi @ series[tau - p:tau][::-1]
            if exog is not None:
                value += beta @ exog[tau]
            out[i, col] = max(float(tf.inverse(value)), 0.0)
    return out, failures


def trmf_forecasts_reference(tensor, spec, split):
    """TRMF rolling forecasts with the gross matrix transformed item by item."""
    tfs = [ItemTransform(spec.transform, tensor.values[i, :split.train_periods])
           for i in range(tensor.n_items)]
    Y = np.column_stack([tf.forward(tensor.values[i, :, 0]) for i, tf in enumerate(tfs)])
    Y = np.where(tensor.observed_mask[:, :, 0].T, Y, np.nan)
    cfg = trmf.TrmfConfig(**spec.hyperparams, allow_low_density=True)
    rows = trmf.rolling_refit(Y[:split.train_periods],
                              [Y[tau] for tau in split.test_range], cfg)
    return np.array([[max(float(tfs[i].inverse(row[i])), 0.0) for row in rows]
                     for i in range(tensor.n_items)])


def backtest_reference(tensor, specs, split):
    """The backtest item by item: per-item forecasts, one SMAPE per (spec,
    item), a dict argmin and per-spec aggregates; an item whose forecasts
    are not all finite fails.  Returns (leaderboard CSV, failures,
    forecasts)."""
    H = min(tensor.n_leads, DEFAULT_MAX_LEAD)
    actual = {item: tensor.values[i, list(split.test_range), 0]
              for i, item in enumerate(tensor.items)}
    scores, forecasts, failures = {}, {}, []
    for spec in specs:
        try:
            if spec.family == "trmf":
                fc, failed = trmf_forecasts_reference(tensor, spec, split), {}
            elif spec.family == "arx":
                fc, failed = arx_forecasts_reference(tensor, spec, split)
            elif spec.feeding == "none":
                fc, failed = nodf_forecasts_reference(tensor, spec, split)
            else:
                fc, failed = df_forecasts_reference(tensor, spec, split, H + 1, H)
        except ITEM_ERRORS as exc:
            failed = dict.fromkeys(range(tensor.n_items), f"{type(exc).__name__}: {exc}")
        scores[spec.name] = {}
        for i, item in enumerate(tensor.items):
            if i not in failed and not np.all(np.isfinite(fc[i])):
                failed[i] = "HierfcstError: smape requires finite inputs"
            if i in failed:
                failures.append((spec.name, item, failed[i]))
                continue
            forecasts[(spec.name, item)] = fc[i]
            scores[spec.name][item] = smape_item(fc[i], actual[item])
    names = [spec.name for spec in specs]
    common = None
    for name in names:
        if scores[name]:
            common = set(scores[name]) if common is None else common & set(scores[name])
    common = [item for item in tensor.items if item in (common or set())]
    best = {}
    for item in tensor.items:
        candidates = [(scores[name][item], name) for name in names if item in scores[name]]
        if candidates:
            best[item] = min(candidates)[1]
    rows = []
    for name in names:
        vals = [scores[name][item] for item in common if item in scores[name]]
        mean = float(np.mean(vals)) if vals else float("nan")
        median = float(np.median(vals)) if vals else float("nan")
        count = sum(1 for v in best.values() if v == name)
        rows.append((np.nan_to_num(mean, nan=np.inf), name,
                     f"{name},{mean:.12g},{median:.12g},{len(vals)},{count}"))
    lines = ["spec,mean_smape,median_smape,n_items,best_count"]
    lines += [line for _key, _name, line in sorted(rows, key=lambda r: r[:2])]
    return "\n".join(lines) + "\n", failures, forecasts


# ---------------------------------------------------------------------------
# Mapper over the dense Canberra matrix
# ---------------------------------------------------------------------------

def canberra_columns(A, B=None):
    """Canberra distances between the rows of A and of B (default A), summed
    one feature column at a time, 0/0 terms contributing 0."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = A if B is None else np.atleast_2d(np.asarray(B, dtype=float))
    D = np.zeros((A.shape[0], B.shape[0]))
    for a, b in zip(A.T, B.T):
        num = np.abs(a[:, None] - b)
        den = np.abs(a)[:, None] + np.abs(b)
        D += np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return D


def mst_edges_prim(D):
    """Prim's minimum spanning tree on a dense distance matrix: (i, j,
    weight) triples, n-1 of them."""
    n = D.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = D[0].copy()
    parent = np.zeros(n, dtype=int)
    edges = []
    for _ in range(n - 1):
        cand = np.where(in_tree, np.inf, best)
        j = int(np.argmin(cand))
        edges.append((int(parent[j]), j, float(best[j])))
        in_tree[j] = True
        closer = D[j] < best
        best[closer] = D[j][closer]
        parent[closer] = j
    return edges


def first_gap_threshold_loop(heights, bins):
    """Left edge of the first empty histogram bin after a non-empty one,
    or None, found bin by bin."""
    heights = np.asarray(heights, dtype=float)
    top = heights.max()
    if top <= 0:
        return None
    counts, edges = np.histogram(heights, bins=bins, range=(0.0, top))
    seen_data = False
    for k, c in enumerate(counts):
        if c > 0:
            seen_data = True
        elif seen_data:
            return float(edges[k])
    return None


def cluster_preimage_prim(D, bins=HISTOGRAM_BINS):
    """Single-linkage components under the first-gap cut of the Prim tree's
    weights, merged by a union-find over the tree edges below the cut; a
    list of index lists ordered by their first index."""
    n = D.shape[0]
    if n == 1:
        return [[0]]
    edges = mst_edges_prim(D)
    threshold = first_gap_threshold_loop([w for *_, w in edges], bins)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j, w in edges:
        if threshold is None or w < threshold:
            parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=min)


def fiedler_partition_sets(graph, min_cluster_size):
    """node_id -> partition id of hierfcst.tda.fiedler_partition, with
    components found by depth-first search and each side's series counted
    by set unions; the graph is left as it is."""
    from hierfcst.tda import fiedler_vector
    adj = np.zeros((len(graph.nodes),) * 2)
    for a, b in graph.edges:
        adj[a, b] = adj[b, a] = 1.0
    members = [set(nd.members) for nd in graph.nodes]

    def components(sub):
        seen, comps = set(), []
        for start in range(sub.shape[0]):
            if start in seen:
                continue
            stack, comp = [start], []
            seen.add(start)
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in np.nonzero(sub[u] > 0)[0].tolist():
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    partitions = []

    def split(node_ids):
        if len(node_ids) < 2:
            partitions.append(node_ids)
            return
        sub = adj[np.ix_(node_ids, node_ids)]
        comps = components(sub)
        if len(comps) > 1:
            for comp in comps:
                split([node_ids[c] for c in comp])
            return
        f = fiedler_vector(sub)
        left = [i for i, v in zip(node_ids, f) if v < 0]
        right = [i for i, v in zip(node_ids, f) if v >= 0]
        if (not left or not right
                or len(set().union(*(members[i] for i in left))) < min_cluster_size
                or len(set().union(*(members[i] for i in right))) < min_cluster_size):
            partitions.append(node_ids)
            return
        split(left)
        split(right)

    split(list(range(len(graph.nodes))))
    return {i: pid for pid, node_ids in enumerate(sorted(partitions, key=min))
            for i in node_ids}


def majority_counter(labels):
    """The most frequent label by a Counter; ties go to the first sorted."""
    counts = Counter(labels)
    top = max(counts.values())
    return sorted(lbl for lbl, c in counts.items() if c == top)[0]


def label_and_route_counter(graph, best_labels):
    """What hierfcst.tda.label_and_route assigns, by one Counter of
    partition votes per series and one of labels per cluster and node.
    Returns (series_cluster, cluster_labels, series_labels, node labels,
    node purities); the graph is left as it is."""
    n = graph.n_series
    votes = [Counter() for _ in range(n)]
    for nd in graph.nodes:
        for s in nd.members:
            votes[s][nd.partition] += 1
    series_cluster = np.empty(n, dtype=int)
    for s in range(n):
        if not votes[s]:
            raise HierfcstError(f"series {s} belongs to no Mapper node")
        top = max(votes[s].values())
        series_cluster[s] = min(pid for pid, c in votes[s].items() if c == top)
    cluster_labels = {}
    for cid in sorted(set(series_cluster.tolist())):
        members = np.nonzero(series_cluster == cid)[0]
        cluster_labels[cid] = majority_counter([best_labels[s] for s in members])
    labels, purities = [], []
    for nd in graph.nodes:
        node_best = [best_labels[s] for s in nd.members]
        labels.append(majority_counter(node_best))
        purities.append(node_best.count(labels[-1]) / len(node_best))
    series_labels = [cluster_labels[series_cluster[s]] for s in range(n)]
    return series_cluster, cluster_labels, series_labels, labels, purities


def mapper_dense(features, lens=None, n_intervals=10, overlap=0.3,
                 histogram_bins=HISTOGRAM_BINS):
    """Mapper that builds the whole n x n Canberra matrix first and clusters
    each preimage on its block of it by the Prim tree, with edges from set
    intersections; nodes and edges as hierfcst.tda.mapper."""
    X = np.atleast_2d(np.asarray(features, dtype=float))
    n = X.shape[0]
    lens = pca_lens(X) if lens is None else np.asarray(lens, dtype=float).ravel()
    lo, hi = float(lens.min()), float(lens.max())
    span = hi - lo
    eps = 1e-9 * max(1.0, abs(lo), abs(hi))
    if span == 0.0 or n_intervals == 1:
        intervals = [(lo - eps, hi + eps)]
    else:
        length = span / ((n_intervals - 1) * (1.0 - overlap) + 1.0)
        step = length * (1.0 - overlap)
        intervals = [(lo + k * step - eps, lo + k * step + length + eps)
                     for k in range(n_intervals)]
    D_full = canberra_columns(X)
    nodes = []
    for k, (a, b) in enumerate(intervals):
        members = [i for i in range(n) if a <= lens[i] <= b]
        if not members:
            continue
        for cluster in cluster_preimage_prim(D_full[np.ix_(members, members)],
                                             histogram_bins):
            nodes.append(MapperNode(node_id=len(nodes), interval=k,
                                    members=tuple(sorted(members[c] for c in cluster))))
    edges = [(a, b) for a in range(len(nodes)) for b in range(a + 1, len(nodes))
             if set(nodes[a].members) & set(nodes[b].members)]
    return MapperGraph(nodes=nodes, edges=edges, n_series=n)


# ---------------------------------------------------------------------------
# Pre-order CSV read row by row
# ---------------------------------------------------------------------------

def load_csv_rows(path, missing_as_zero=True, max_lead=4):
    """The pre-order CSV loader that validates and stores one csv.reader row
    at a time, raising at the first bad row."""
    records = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line_number=1) from None
        if [c.strip() for c in header] != list(CSV_HEADER):
            raise ParseError(
                f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}",
                line_number=1)
        for row in reader:
            line = reader.line_num
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise ParseError(f"expected 4 fields, got {len(row)}", line_number=line)
            item = row[0].strip()
            if not item:
                raise ParseError("empty item_id", line_number=line)
            try:
                t = int(row[1])
                h = int(row[2])
                q = float(row[3])
            except ValueError as exc:
                raise ParseError(str(exc), line_number=line) from None
            if t < 0:
                raise ParseError(f"delivery_period must be >= 0, got {t}", line_number=line)
            if h < 0:
                raise ParseError(f"lead_time must be >= 0, got {h}", line_number=line)
            if not np.isfinite(q) or q < 0:
                raise DomainError(f"line {line}: quantity must be finite and >= 0, got {q}")
            if h >= max_lead:
                continue
            key = (item, t, h)
            if key in records:
                raise DuplicateKeyError(
                    f"line {line}: duplicate record for item={item!r}, "
                    f"delivery_period={t}, lead_time={h}")
            records[key] = q
    if not records:
        raise ParseError("no data rows", line_number=1)
    items = sorted({key[0] for key in records})
    T = 1 + max(key[1] for key in records)
    H = 1 + max(key[2] for key in records)
    values = np.zeros((len(items), T, H))
    mask = np.zeros((len(items), T, H), dtype=bool)
    index = {item: i for i, item in enumerate(items)}
    for (item, t, h), q in records.items():
        values[index[item], t, h] = q
        mask[index[item], t, h] = True
    if not missing_as_zero and not mask.all():
        raise HierfcstError(f"{int(mask.size - mask.sum())} grid cells have no record "
                            "and missing_as_zero is off")
    return PreorderTensor(items=items, values=values, observed_mask=mask)
