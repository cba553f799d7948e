"""Independent reference implementations used to cross-check the library.

These deliberately use different algorithms from the code under test:
generic gradient descent with backtracking instead of closed forms, dense
eigendecompositions with the plain largest-magnitude sign rule, Newton
steps instead of IRLS, central finite differences for gradients, and
per-cell, per-column or dense assemblies where the library gathers,
stacks or bands.
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
