"""Independent reference implementations used to cross-check the library.

These deliberately use different algorithms from the code under test:
generic gradient descent with backtracking instead of closed forms, dense
eigendecompositions with the plain largest-magnitude sign rule, Newton
steps instead of IRLS, lasso by cyclic coordinate descent on the raw
columns instead of active-set steps on the centred Gram matrix, central
finite differences for gradients, per-cell, per-column or dense
assemblies where the library gathers, stacks or bands, and regression
trees grown node by node, depth first, with a per-candidate split loop
where the library grows every tree of a fit level by level.
"""

import numpy as np


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


def adaboost_reference(X, y, rounds, base_depth):
    """AdaBoost.R2 (linear loss) fitted round by round: the trees and their
    log weights."""
    n = X.shape[0]
    w = np.ones(n)
    trees, log_weights = [], []
    for _ in range(rounds):
        tree = RecursiveTree(max_depth=base_depth).fit(X, y, sample_weight=w)
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


def bagged_boost_reference(X, y, n_bags, rounds, learning_rate, max_depth, seed):
    """Predict function of bagged squared-loss gradient boosting, each bag
    boosted on its own."""
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    members = []
    for _ in range(n_bags):
        idx = rng.integers(0, n, size=n)
        Xb, yb = X[idx], y[idx]
        init = float(np.mean(yb))
        pred = np.full_like(yb, init)
        trees = []
        for _ in range(rounds):
            resid = yb - pred
            if np.max(np.abs(resid)) < 1e-15:
                break
            tree = RecursiveTree(max_depth=max_depth).fit(Xb, resid)
            pred = pred + learning_rate * tree.predict(Xb)
            trees.append(tree)
        members.append((init, trees))

    def predict(Xq):
        outs = []
        for init, trees in members:
            out = np.full(np.atleast_2d(Xq).shape[0], init)
            for tree in trees:
                out = out + learning_rate * tree.predict(Xq)
            outs.append(out)
        return np.mean(outs, axis=0)
    return predict
