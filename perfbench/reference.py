"""Recomputations made apart from hierfcst, used to check its outputs.

Nothing here imports hierfcst: every quantity is rebuilt from the raw
(items x periods x leads) value cube with plain numpy, so a fault in the
package cannot hide behind the same fault in its own check.
"""

import numpy as np


def smape(forecast, actual):
    """SMAPE in [0, 200] over the last axis; a 0/0 term counts as 0."""
    F = np.asarray(forecast, dtype=float)
    A = np.asarray(actual, dtype=float)
    den = np.abs(A) + np.abs(F)
    num = np.abs(F - A)
    terms = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return 200.0 * terms.mean(axis=-1)


# ---------------------------------------------------------------------------
# Scores, leaderboard and the per-item argmin
# ---------------------------------------------------------------------------

def check_board(board, values, train, problems, csv_text=None):
    """Re-score every forecast, re-derive each item's best spec, and compare
    the leaderboard rows (and, if given, the CSV artifact) with both.

    Returns (top-row mean SMAPE, mean of the per-item best SMAPE).
    """
    gross = values[:, :, 0]
    items = list(board.history)
    index = {item: i for i, item in enumerate(items)}
    test = list(board.split.test_range)
    if board.split.train_periods != train:
        problems.append(f"split has {board.split.train_periods} train periods")
    for name, per_item in board.scores.items():
        for item, score in per_item.items():
            own = smape(board.forecasts[(name, item)], gross[index[item], test])
            if not np.isclose(own, score, rtol=1e-9, atol=1e-9):
                problems.append(f"score of {name}/{item}: {score} != {own}")
    best_scores = []
    for item in items:
        candidates = sorted((per_item[item], name)
                            for name, per_item in board.scores.items()
                            if item in per_item)
        if not candidates:
            problems.append(f"item {item} has no scored spec")
            continue
        if board.best_model.get(item) != candidates[0][1]:
            problems.append(f"best model of {item}: {board.best_model.get(item)} "
                            f"!= argmin {candidates[0][1]}")
        best_scores.append(candidates[0][0])
    scored = board.scored_items
    for row in board.rows:
        vals = [board.scores[row.spec_name][it] for it in scored]
        count = sum(1 for v in board.best_model.values() if v == row.spec_name)
        if (row.n_items != len(vals) or row.best_count != count
                or not np.isclose(row.mean_smape, np.mean(vals), rtol=1e-9)
                or not np.isclose(row.median_smape, np.median(vals), rtol=1e-9)):
            problems.append(f"leaderboard row of {row.spec_name} disagrees "
                            "with its scores")
    if [r.mean_smape for r in board.rows] != sorted(r.mean_smape for r in board.rows):
        problems.append("leaderboard rows are not sorted by mean SMAPE")
    if csv_text is not None:
        lines = csv_text.strip().splitlines()[1:]
        if len(lines) != len(board.rows):
            problems.append("leaderboard.csv row count differs from the board")
        total = 0
        for line, row in zip(lines, board.rows):
            name, mean, _median, _n, count = line.rsplit(",", 4)
            total += int(count)
            if name != row.spec_name or not np.isclose(float(mean), row.mean_smape,
                                                       rtol=1e-10):
                problems.append(f"leaderboard.csv line {line!r} differs from the board")
        if total != len(items):
            problems.append(f"best_count sums to {total}, not {len(items)}")
    return board.rows[0].mean_smape, float(np.mean(best_scores))


def naive_lag1_smape(values, split):
    """Mean SMAPE of the forecast 'next period repeats the last actual'."""
    gross = values[:, :, 0]
    test = np.array(list(split.test_range))
    return float(smape(gross[:, test - 1], gross[:, test]).mean())


def check_beats_naive(board, specs, values, problems):
    """The best diagonal-feeding spec must beat the lag-1 naive forecast."""
    df_names = {s.name for s in specs if s.feeding != "none"
                and s.family not in ("arx", "trmf")}
    best = min(r.mean_smape for r in board.rows if r.spec_name in df_names)
    naive = naive_lag1_smape(values, board.split)
    if not best < naive:
        problems.append(f"best DF spec SMAPE {best:.4g} does not beat "
                        f"lag-1 naive {naive:.4g}")


# ---------------------------------------------------------------------------
# Diagonal feeding, transforms and ridge by direct tensor indexing
# ---------------------------------------------------------------------------

def window_cells(H):
    """(s, h) of the known (s <= h) and future (s > h) cells, row-major."""
    known = [(s, h) for s in range(H + 1) for h in range(H) if s <= h]
    future = [(s, h) for s in range(H + 1) for h in range(H) if s > h]
    return np.array(known), np.array(future)


def gather(values, anchors, cells):
    """values[i, a + s, h] for every item i, anchor a and cell (s, h)."""
    anchors = np.asarray(anchors)
    return values[:, anchors[:, None] + cells[None, :, 0], cells[None, :, 1]]


class Transform:
    """Per-item identity, log1p or min-max map fitted on training periods."""

    def __init__(self, kind, train_values):
        self.kind = kind
        flat = train_values.reshape(train_values.shape[0], -1)
        self.lo = flat.min(axis=1)
        self.span = flat.max(axis=1) - self.lo

    def _shape(self, a, v):
        return a.reshape((-1,) + (1,) * (v.ndim - 1))

    def forward(self, v):
        if self.kind == "log1p":
            return np.log1p(v)
        if self.kind == "minmax":
            lo, span = self._shape(self.lo, v), self._shape(self.span, v)
            return np.divide(v - lo, span, out=np.zeros_like(v), where=span > 0)
        return v

    def inverse(self, v):
        if self.kind == "log1p":
            return np.expm1(v)
        if self.kind == "minmax":
            return v * self._shape(self.span, v) + self._shape(self.lo, v)
        return v


def training_rows(values, kind, train):
    """Transformed DF inputs/targets of every item: (n, anchors, cells)."""
    H = values.shape[2]
    known, future = window_cells(H)
    anchors = np.arange(train - H)          # windows inside the train periods
    tf = Transform(kind, values[:, :train])
    return (tf.forward(gather(values, anchors, known)),
            tf.forward(gather(values, anchors, future)), tf)


def ridge_forecasts(values, spec, split):
    """Ridge DF test forecasts from a numpy solve of the normal equations
    (X'X + lam D) b = X'Y with an unpenalized bias, per item or pooled."""
    n, T, H = values.shape
    known, future = window_cells(H)
    X, Y, tf = training_rows(values, spec.transform, split.train_periods)
    Xb = np.concatenate([np.ones(X.shape[:2] + (1,)), X], axis=2)
    penalty = spec.hyperparams["lam"] * np.eye(Xb.shape[2])
    penalty[0, 0] = 0.0
    if spec.feeding == "df_all_items":
        flat, flat_y = Xb.reshape(-1, Xb.shape[2]), Y.reshape(-1, Y.shape[2])
        coef = np.linalg.solve(flat.T @ flat + penalty, flat.T @ flat_y)
        coef = np.broadcast_to(coef, (n,) + coef.shape)
    else:
        A = np.einsum("iak,ial->ikl", Xb, Xb) + penalty
        coef = np.linalg.solve(A, np.einsum("iak,ial->ikl", Xb, Y))
    out = np.zeros((n, split.test_periods))
    for c, tau in enumerate(split.test_range):
        a = min(tau - 1, T - H)
        x = tf.forward(values[:, a + known[:, 0], known[:, 1]])
        y = np.einsum("ik,ikl->il", np.concatenate([np.ones((n, 1)), x], axis=1), coef)
        pos = next(k for k, (s, h) in enumerate(future) if s == tau - a and h == 0)
        out[:, c] = np.maximum(tf.inverse(y)[:, pos], 0.0)
    return out


def lasso_kkt_violation(X, y, w, b, lam):
    """Largest breach of the optimality conditions of
    0.5 * mean(r^2) + lam * ||w||_1 (bias unpenalized): mean(r) = 0, and
    X_j'r/n = lam * sign(w_j) where w_j != 0, |X_j'r/n| <= lam where w_j = 0."""
    r = y - b - X @ w
    g = X.T @ r / len(r)
    breach = np.where(w != 0, np.abs(g - lam * np.sign(w)),
                      np.maximum(np.abs(g) - lam, 0.0))
    return max(float(breach.max(initial=0.0)), abs(float(r.mean())))


# ---------------------------------------------------------------------------
# Series features, PCA lens and the Fiedler vector
# ---------------------------------------------------------------------------

def series_features(S):
    """The seven per-series descriptors, one row per series in S (n, t)."""
    mean = S.mean(axis=1)
    dev = S - mean[:, None]
    m2 = (dev ** 2).mean(axis=1)
    flat = m2 == 0
    safe = np.where(flat, 1.0, m2)
    skew = np.where(flat, 0.0, (dev ** 3).mean(axis=1) / safe ** 1.5)
    kurt = np.where(flat, 0.0, (dev ** 4).mean(axis=1) / safe ** 2 - 3.0)
    ac = np.where(flat, 0.0, (dev[:, :-1] * dev[:, 1:]).sum(axis=1)
                  / np.where(flat, 1.0, (dev ** 2).sum(axis=1)))
    zero = (S == 0).mean(axis=1)
    nonzero_mean = np.where(mean != 0, mean, 1.0)
    ratio = np.where(mean == 0, 0.0,
                     np.where(flat, 1.0, S.max(axis=1) / nonzero_mean))
    return np.column_stack([mean, np.where(flat, 0.0, m2), skew, kurt, ac,
                            zero, ratio])


def _sign_fixed(v):
    return -v if v[np.argmax(np.abs(v))] < 0 else v


def pca_lens(features):
    """Projection on the leading eigenvector (dense eigh) of the covariance
    of the column-standardized features."""
    sd = features.std(axis=0)
    keep = sd > 0
    X = (features[:, keep] - features[:, keep].mean(axis=0)) / sd[keep]
    _evals, evecs = np.linalg.eigh(X.T @ X / (X.shape[0] - 1))
    return X @ _sign_fixed(evecs[:, -1])


def check_fiedler(adjacency, f, tol, problems):
    """f must be a Fiedler vector of the graph: a unit vector in the
    eigenspace (dense eigh) of the Laplacian's second-smallest eigenvalue,
    signed so that its largest-magnitude entry is positive.

    Eigenvalues within 1e-4 * max(1, largest) of the second-smallest count
    as one eigenspace, so a symmetric graph's repeated eigenvalue does not
    pin one basis vector.  The sign rule is met within tol, so a vector whose
    two largest-magnitude entries tie (a path graph's ends) passes with
    either sign.
    """
    f = np.asarray(f, dtype=float)
    evals, evecs = np.linalg.eigh(np.diag(adjacency.sum(axis=1)) - adjacency)
    space = evecs[:, np.abs(evals - evals[1]) <= 1e-4 * max(1.0, evals[-1])]
    off = float(np.linalg.norm(f - space @ (space.T @ f)))
    if off > tol or abs(np.linalg.norm(f) - 1.0) > tol:
        problems.append(f"top Fiedler vector lies {off:.3g} off the eigenspace "
                        f"of the second-smallest Laplacian eigenvalue {evals[1]:.6g}")
    if f.max() < np.abs(f).max() - tol:
        problems.append("top Fiedler vector's largest-magnitude entry is negative")


def check_graph(graph, n_series, problems):
    """Mapper graph invariants: the nodes cover every series, and the edges
    are exactly the node pairs that share a series."""
    members = [set(node["members"]) for node in graph["nodes"]]
    covered = set().union(*members) if members else set()
    if covered != set(range(n_series)):
        problems.append(f"{n_series - len(covered)} series lie in no Mapper node")
    expected = {(a, b) for a in range(len(members))
                for b in range(a + 1, len(members)) if members[a] & members[b]}
    if {tuple(e) for e in graph["edges"]} != expected or \
            len(graph["edges"]) != len(expected):
        problems.append("Mapper edges differ from the node pairs sharing a series")
