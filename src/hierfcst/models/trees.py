"""Regression trees and the ensembles built on them (forest, AdaBoost.R2,
bagged gradient boosting).  Everything is written against plain numpy so
split criteria and combination rules stay inspectable.

The trees of one fit grow together, level by level (``_grow``): every tree
of a forest, every bag of a bagged boost and every target column of a
multi-output fit is split by one vectorised scan per depth.  A fit is a
stack of item fits, X (items, n, k), a single fit a stack of one: the
stack is viewed as (items·n, k) and each tree's rows are offset by its
item, so one level grows every item's trees.  Boosting rounds stay
sequential, each round one batch.  A fit keeps one node table of all its
trees (``_Nodes``), each model the ids of its trees in it, and
``predict`` walks all rows and trees at once.
"""

from __future__ import annotations

import collections
import functools
import numbers

import numpy as np

from ..errors import HierfcstError, require_at_least

# Trees grow in groups of at most this many sample slots, and the split
# scan takes nodes in chunks of at most this many (feature, slot) cells, so
# temporaries stay bounded whatever the batch size.
_BLOCK = 1 << 14


# The node table of a fit's trees, as parallel arrays: tree t is rows
# offsets[t]:offsets[t + 1], numbered level by level from its root.  feature
# is -1 at a leaf, whose left and right are its own row; children are table
# rows; value is the weighted mean of the node's samples.
_Nodes = collections.namedtuple("_Nodes", "feature threshold left right value offsets")


def _concat(tables):
    """One node table of the trees of ``tables`` in turn (none: no trees)."""
    start = np.cumsum([0] + [t.value.size for t in tables]).tolist()
    empty = (np.zeros(0, np.int64), np.zeros(0), np.zeros(0, np.int64),
             np.zeros(0, np.int64), np.zeros(0), np.zeros(1, np.int64))
    return _Nodes(*map(np.concatenate, zip(empty, *(
        (t.feature, t.threshold, t.left + s, t.right + s, t.value, t.offsets[1:] + s)
        for t, s in zip(tables, start)))))


def _walk(nodes, roots, X, rows=None):
    """(len(roots), r) predictions of the trees rooted at table rows
    ``roots``, tree t at the rows ``X[rows[t]]``, rows (len(roots), r) or
    by default every row of X: the trees walked together, one depth per
    step."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if rows is None:
        rows = np.arange(X.shape[0])[None]
    node = np.repeat(np.asarray(roots)[:, None], rows.shape[1], axis=1)
    while np.any(nodes.feature[node] >= 0):
        # A leaf points at itself, whatever its (unused) comparison says.
        node = np.where(X[rows, nodes.feature[node]] <= nodes.threshold[node],
                        nodes.left[node], nodes.right[node])
    return nodes.value[node]


class _NodeView:
    """Read-only node of a flat tree, reached from ``RegressionTree.root``."""

    __slots__ = ("_tree", "_i")

    def __init__(self, tree, i):
        self._tree, self._i = tree, int(i)

    @property
    def is_leaf(self):
        return bool(self._tree.feature[self._i] < 0)

    @property
    def feature(self):
        return None if self.is_leaf else int(self._tree.feature[self._i])

    @property
    def threshold(self):
        return None if self.is_leaf else float(self._tree.threshold[self._i])

    @property
    def left(self):
        return None if self.is_leaf else _NodeView(self._tree, self._tree.left[self._i])

    @property
    def right(self):
        return None if self.is_leaf else _NodeView(self._tree, self._tree.right[self._i])

    @property
    def value(self):
        return float(self._tree.value[self._i])


def _check_tree(max_depth, min_leaf, max_features):
    """The checks of the arguments every tree of a model grows under."""
    require_at_least("max_depth", max_depth, 0)
    require_at_least("min_leaf", min_leaf, 1)
    if max_features is not None and not (isinstance(max_features, numbers.Real)
                                         and 0 < max_features <= 1):
        raise HierfcstError(f"max_features must be in (0, 1], got {max_features}")


class RegressionTree:
    """Binary tree with weighted variance-reduction splits.

    Row-permutation invariant: split candidates are scanned in sorted value
    order per feature and ties resolve to the lowest feature index, never to
    input ordering.  min_leaf applies to the sample count on each side.

    A fitted tree is a node table of one tree, rooted at row 0 (its five
    node arrays, no offsets), as is a view of a tree of an ensemble's table.
    """

    def __init__(self, max_depth: int = 6, min_leaf: int = 2,
                 max_features: float | None = None, rng=None):
        _check_tree(max_depth, min_leaf, max_features)
        if max_features is not None and max_features < 1 and rng is None:
            raise HierfcstError("max_features < 1 needs an rng to draw feature subsets")
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self.rng = rng
        self.feature = self.threshold = self.left = self.right = self.value = None

    def _slice(self, nodes, t):
        """Hold tree t of a node table, children numbered from its root."""
        a, b = nodes.offsets[t], nodes.offsets[t + 1]
        self.feature, self.threshold, self.value = (
            c[a:b] for c in (nodes.feature, nodes.threshold, nodes.value))
        self.left, self.right = nodes.left[a:b] - a, nodes.right[a:b] - a
        return self

    @property
    def root(self):
        return None if self.feature is None else _NodeView(self, 0)

    def fit(self, X, y, sample_weight=None):
        X, Y = _as_xy(X, np.ravel(y))
        w = np.ones(X.shape[0]) if sample_weight is None else np.asarray(sample_weight, float)
        if w.shape != (X.shape[0],):
            raise HierfcstError("sample_weight needs one weight per row")
        if np.any(w < 0) or w.sum() <= 0:
            raise HierfcstError("sample weights must be non-negative with positive sum")
        mf = self.max_features
        draws = None if mf is None or mf >= 1.0 else [(mf, self.rng)]
        nodes = _grow(self.max_depth, X, np.arange(X.shape[0])[None], Y.T, w[None],
                      min_leaf=self.min_leaf, draws=draws)[1]
        return self._slice(nodes, 0)

    def predict(self, X):
        return _walk(self, [0], X)[0]


def _as_xy(X, Y):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float)
    Y = Y[:, None] if Y.ndim == 1 else Y
    if X.shape[0] != Y.shape[0] or X.shape[0] == 0:
        raise HierfcstError("X and y must share a positive row count")
    return X, Y


def _stacked(models, X, Y):
    """A stack of fits as one: ``models[i * m + c]`` fits column c of item
    i's Y, for X (items, n, k) and Y (items, n, m) of a positive row count.
    Returns (X viewed as (items·n, k), Y as (items·n, m), each model's first
    row in them, each model's target column, n)."""
    items, n, m = Y.shape
    if len(models) != items * m:
        raise HierfcstError(f"{len(models)} models for {items} items x {m} targets")
    b = np.arange(len(models))
    return X.reshape(-1, X.shape[-1]), Y.reshape(-1, m), (b // m) * n, b % m, n


def _pairwise_sum(a, start, n):
    """``a[..., s:s + k].sum(-1)`` for every segment (s, k) of ``zip(start,
    n)``, adding the terms in the order numpy's pairwise summation does, so
    each total is the one a node's own contiguous array sums to: a segment
    above 128 terms is the sum of its halves (the first a multiple of 8
    long), one of at most 128 terms runs 8 accumulators (fewer than 8 terms:
    a plain running sum).  Segments must not be empty."""
    rounds = []
    s, k = start, n
    while np.any(k > 128):
        big = k > 128
        half = k[big] // 2
        half -= half % 8
        rounds.append(big)
        s = np.concatenate([s[~big], s[big], s[big] + half])
        k = np.concatenate([k[~big], half, k[big] - half])
    last = a.shape[-1] - 1
    r = a[..., np.minimum(s[:, None] + np.arange(8), last)]
    full = k - k % 8
    for i in range(8, full.max(initial=0), 8):
        block = a[..., np.minimum(s[:, None] + (i + np.arange(8)), last)]
        r = np.where((i < full)[:, None], r + block, r)
    lanes = k >= 8
    total = np.where(lanes, ((r[..., 0] + r[..., 1]) + (r[..., 2] + r[..., 3]))
                     + ((r[..., 4] + r[..., 5]) + (r[..., 6] + r[..., 7])), r[..., 0])
    nxt = np.where(lanes, full, 1)  # first term not yet added
    for t in range(max(0, (k - nxt).max(initial=0))):
        i = nxt + t
        total = np.where(i < k, total + a[..., np.minimum(s + i, last)], total)
    for big in reversed(rounds):     # halves back into their segments
        kept, nb = int((~big).sum()), int(big.sum())
        out = np.empty(total.shape[:-1] + big.shape)
        out[..., ~big] = total[..., :kept]
        out[..., big] = total[..., kept:kept + nb] + total[..., kept + nb:]
        total = out
    return total


def _pick(gain):
    """Row by row, the index the sequential rule keeps (-1 for none):
    scanning the row in order, take a candidate when it beats the best so
    far (starting at 0) by > 1e-12.  The first maximum is kept when it beats
    every earlier gain (and 0) by > 1e-12; the rows where a near-tie decides
    replay the rule, in lockstep, one taken candidate per step."""
    top = gain.argmax(axis=1)
    best = gain[np.arange(gain.shape[0]), top]
    cols = np.arange(gain.shape[1])
    earlier = np.where(cols < top[:, None], gain, -np.inf)
    clear = best > np.maximum(earlier.max(axis=1), 0.0) + 1e-12
    pick = np.where(clear, top, -1)
    rows = np.flatnonzero(~clear & (best > 1e-12))
    if rows.size:
        g = gain[rows]
        taken = np.full(rows.size, -1)
        level = np.zeros(rows.size)
        live = np.arange(rows.size)
        while live.size:
            hit = (g[live] > level[live, None] + 1e-12) & (cols > taken[live, None])
            found = hit.any(axis=1)
            live = live[found]
            taken[live] = hit[found].argmax(axis=1)
            level[live] = g[live, taken[live]]
        pick[rows] = taken
    return pick


def _column_ranks(X):
    """(features, rows) dense ranks: equal values share a rank, so sorting
    (rank, slot) keys is a stable sort of the column.  Ranks over a stack of
    items order each item's rows as that item's own ranks do."""
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    step = np.vstack([np.zeros((1, X.shape[1]), int), xs[1:] != xs[:-1]])
    ranks = np.empty(X.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.cumsum(step, axis=0), axis=0)
    return ranks.T.copy()


def _scan(nodes, starts, counts, tree_of, sse, w_tot, min_leaf, drawn,
          order, X, ranks, R, Y, W, n):
    """Best split of every node in ``nodes`` (level indices): the feature (-1
    for none) and threshold, chunked so each temporary stays near _BLOCK."""
    p = X.shape[1]
    feat = np.full(nodes.size, -1)
    thr = np.zeros(nodes.size)
    by_size = nodes[np.argsort(counts[nodes], kind="stable")]
    pos = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while pos < by_size.size:
            cost = np.arange(1, by_size.size - pos + 1) * counts[by_size[pos:]] * p
            c = max(1, int(np.searchsorted(cost, _BLOCK, side="right")))
            nd = by_size[pos:pos + c]
            cnt = counts[nd]
            m = int(cnt[-1])
            inside = np.arange(m) < cnt[:, None]                                 # (c, m)
            slot = order[np.minimum(starts[nd][:, None] + np.arange(m), order.size - 1)]
            key = ranks[:, R[slot]] * n + slot % n                               # (p, c, m)
            key[:, ~inside] = ranks.shape[1] * n                                 # sorts last
            key.sort(axis=-1)
            rank = key // n
            slot = (tree_of[nd] * n)[:, None] + (key - rank * n)
            ys = np.where(inside, Y[slot], 0.0)
            if W is None:       # unit weights: ``inside`` is every weight
                cw = np.cumsum(inside, axis=-1, dtype=float)
                cwy = np.cumsum(ys, axis=-1)
                cwy2 = np.cumsum(ys ** 2, axis=-1)
            else:
                ws = np.where(inside, W[slot], 0.0)
                cw = np.cumsum(ws, axis=-1)
                cwy = np.cumsum(ws * ys, axis=-1)
                cwy2 = np.cumsum(ws * ys ** 2, axis=-1)
                del ws
            del ys
            wl = cw[..., :-1]
            wr = w_tot[nd][:, None] - wl
            i = np.arange(m - 1)
            ok = ((i >= min_leaf[nd][:, None] - 1) & (i < (cnt - min_leaf[nd])[:, None])
                  & (rank[..., :-1] != rank[..., 1:]) & (wl > 0) & (wr > 0))
            if drawn is not None:
                ok &= drawn[np.searchsorted(nodes, nd)].T[..., None]
            sl = cwy2[..., :-1] - cwy[..., :-1] ** 2 / wl
            sr = ((cwy2[..., -1:] - cwy2[..., :-1])
                  - (cwy[..., -1:] - cwy[..., :-1]) ** 2 / wr)
            gain = np.where(ok, sse[nd][:, None] - sl - sr, -np.inf)
            del rank, cw, cwy, cwy2, wr, ok, sl, sr
            pick = _pick(gain.transpose(1, 0, 2).reshape(nd.size, -1))  # features, then positions
            hit = np.flatnonzero(pick >= 0)
            j, i = np.divmod(pick[hit], m - 1)
            x = X[R[slot[j, hit, i]], j], X[R[slot[j, hit, i + 1]], j]
            where = np.searchsorted(nodes, nd[hit])
            feat[where], thr[where] = j, 0.5 * (x[0] + x[1])
            pos += c
    return feat, thr


def _grow(max_depth, X, rows, Y, W=None, ranks=None, min_leaf=2, draws=None):
    """Grow tree b (to ``max_depth[b]``, ``min_leaf[b]``: (B,) or scalars)
    on targets ``Y[b]`` with weights ``W[b]`` (unit weights when W is None)
    at the rows ``X[rows[b]]`` (each (B, n)), one depth at a time, the trees
    together in groups of at most _BLOCK slots.  ``ranks`` are X's column
    ranks, given by a caller that grows on one X again and again.  A tree's
    ``draws[b]``, if not None, is (max_features, generator).

    Slot s of tree b is sample ``rows[b, s]``; a bootstrap draw keeps its
    duplicates as separate slots.  Every node keeps its slots in slot order
    and the scan sorts them stably per feature, so each tree is the one the
    recursive definition grows, sum for sum: node totals are numpy's
    pairwise sums over that order, split statistics cumulative sums in
    sorted order, and a candidate wins when its gain beats the best so far
    by more than 1e-12 (features in order, then positions).  Feature
    subsets are drawn node by node in level order.  Returns the leaf value
    of every slot, (B, n), and the node table.
    """
    if ranks is None:
        ranks = _column_ranks(X)
    B = rows.shape[0]
    max_depth, min_leaf = np.broadcast_to(max_depth, B), np.broadcast_to(min_leaf, B)
    step = max(1, _BLOCK // rows.shape[1])
    leaves, tables = zip(*(
        _grow_group(max_depth[g:g + step], min_leaf[g:g + step], X, ranks,
                    rows[g:g + step], Y[g:g + step], None if W is None else W[g:g + step],
                    None if draws is None else draws[g:g + step])
        for g in range(0, B, step)))
    return np.concatenate(leaves), _concat(tables)


def _grow_group(max_depth, min_leaf, X, ranks, rows, Y, W, draws):
    B, n = rows.shape
    p = X.shape[1]
    R, Yf = rows.ravel(), np.ravel(Y)
    Wf = None if W is None else np.ravel(W)
    leaf_value = np.empty(B * n)

    order = np.arange(B * n)        # the level's slots, node by node
    counts = np.full(B, n)
    tree_of = np.arange(B)
    levels = []                     # (tree, feature, threshold, left, right, value)
    done, depth = 0, 0
    while counts.size:
        L = counts.size
        if np.any(counts == 0):
            raise HierfcstError("a tree node has no samples")
        starts = np.cumsum(counts) - counts
        y = Yf[order]
        w = np.ones(order.size) if Wf is None else Wf[order]
        w_tot, wy = _pairwise_sum(np.stack([w, y * w]), starts, counts)
        if np.any(w_tot == 0.0):
            raise HierfcstError("a tree node has zero total weight")
        mean = wy / w_tot
        open_ = ((depth < max_depth[tree_of]) & (counts >= 2 * min_leaf[tree_of])
                 & (np.maximum.reduceat(y, starts) != np.minimum.reduceat(y, starts)))
        nodes = np.flatnonzero(open_)
        feat = np.full(L, -1)
        thr = np.zeros(L)
        if nodes.size:
            sse = np.zeros(L)
            sse[nodes] = _pairwise_sum(w * (y - np.repeat(mean, counts)) ** 2,
                                       starts[nodes], counts[nodes])
            drawn = None
            if draws is not None:
                drawn = np.ones((nodes.size, p), bool)
                for r, t in enumerate(tree_of[nodes].tolist()):
                    if draws[t] is not None:
                        mf, rng = draws[t]
                        drawn[r] = False
                        drawn[r, rng.choice(p, size=max(1, int(round(mf * p))),
                                            replace=False)] = True
            feat[nodes], thr[nodes] = _scan(nodes, starts, counts, tree_of, sse, w_tot,
                                            min_leaf[tree_of], drawn, order, X, ranks,
                                            R, Yf, Wf, n)
        split = feat >= 0
        own = done + np.arange(L)
        kids = done + L + 2 * (np.cumsum(split) - 1)
        levels.append((tree_of, feat, thr, np.where(split, kids, own),
                       np.where(split, kids + 1, own), mean))

        node_of = np.repeat(np.arange(L), counts)
        leaf = ~split[node_of]
        leaf_value[order[leaf]] = mean[node_of[leaf]]
        keep = ~leaf
        v, order = node_of[keep], order[keep]
        right = ~(X[R[order], feat[v]] <= thr[v])
        child = 2 * (np.cumsum(split) - 1)[v] + right
        order = order[np.argsort(child, kind="stable")]
        counts = np.bincount(child, minlength=2 * int(split.sum()))
        tree_of = np.repeat(tree_of[split], 2)
        done += L
        depth += 1

    owner, feature, threshold, left, right, value = (np.concatenate(a) for a in zip(*levels))
    by_tree = np.argsort(owner, kind="stable")      # level order within each tree
    row = np.empty(done, dtype=np.int64)
    row[by_tree] = np.arange(done)
    offsets = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=B))])
    return leaf_value.reshape(B, n), _Nodes(
        feature[by_tree], threshold[by_tree], row[left[by_tree]], row[right[by_tree]],
        value[by_tree], offsets)


def _trees_of(owner, n):
    """Each of n models' tree ids in a fit's table, in round order: tree t
    is owned by model ``owner[t]`` (n: by none)."""
    order = np.argsort(owner, kind="stable")
    return np.split(order, np.cumsum(np.bincount(owner, minlength=n))[:n])[:n]


class _Ensemble:
    """A model predicting from one walk of its trees, ``ids`` in the node
    table ``nodes`` its fit sets: ``combine`` maps their stacked
    predictions to the model's own."""

    def all_trees(self):
        """The model's trees as RegressionTree views of its node table."""
        return [RegressionTree.__new__(RegressionTree)._slice(self.nodes, t)
                for t in self.ids.tolist()]

    def predict(self, X):
        return self.combine(_walk(self.nodes, self.nodes.offsets[self.ids], X))


@functools.lru_cache(maxsize=64)
def _forest_draws(seed, n_trees, bootstrap, n):
    """(generators, rows (n_trees, n)) of the trees of a forest fitted on n
    rows: each tree's generator, as its bootstrap draw leaves it, and its
    rows, read-only.  They depend only on the arguments, so they are drawn
    once per process and shared: callers draw from ``_copy`` of a
    generator, never from the generator itself."""
    rng = np.random.default_rng(seed)
    rngs, rows = [], []
    for _ in range(n_trees):
        tree_rng = np.random.default_rng(rng.integers(0, 2 ** 63))
        rows.append(tree_rng.integers(0, n, size=n) if bootstrap else np.arange(n))
        rngs.append(tree_rng)
    rows = np.array(rows)
    rows.flags.writeable = False
    return tuple(rngs), rows


def _copy(rng):
    """A generator in the state of ``rng``, drawing apart from it."""
    out = np.random.Generator(np.random.PCG64(0))
    out.bit_generator.state = rng.bit_generator.state
    return out


class RandomForest(_Ensemble):
    """Bootstrap-aggregated trees; reduces to the plain tree when bootstrap
    is off, max_features is 1.0 (or None: all features) and n_trees is 1."""

    def __init__(self, n_trees=30, max_depth=4, min_leaf=2, max_features=1.0,
                 bootstrap=True, seed=0):
        require_at_least("n_trees", n_trees, 1)
        _check_tree(max_depth, min_leaf, max_features)
        if bootstrap not in (True, False):
            raise HierfcstError(f"bootstrap must be true or false, got {bootstrap}")
        require_at_least("seed", seed, 0)
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed

    trees = property(_Ensemble.all_trees)

    def fit(self, X, y):
        return self.fit_batch([self], *(a[None] for a in _as_xy(X, np.ravel(y))))[0]

    @staticmethod
    def fit_batch(forests, X, Y):
        """Fit ``forests[i * m + c]`` to column c of item i of a stack X
        (items, n, k), Y (items, n, m), all their trees grown together.
        Bootstrap rows come from ``_forest_draws``.  With ``max_features <
        1`` each forest's trees draw their feature subsets from copies of the
        generators in the state a fit of that forest alone leaves them."""
        X, Y, first, col, n = _stacked(forests, X, Y)
        rows, draws = [], []
        for forest, start in zip(forests, first.tolist()):
            rngs, draw = _forest_draws(forest.seed, forest.n_trees, forest.bootstrap, n)
            rows.append(draw + start)
            mf = forest.max_features
            draws += [None if mf is None or mf >= 1.0 else (mf, _copy(rng)) for rng in rngs]
        rows = np.concatenate(rows)
        owner = np.repeat(np.arange(len(forests)), [forest.n_trees for forest in forests])
        depth, min_leaf = (np.array([getattr(forest, a) for forest in forests])[owner]
                           for a in ("max_depth", "min_leaf"))
        nodes = _grow(depth, X, rows, Y[rows, col[owner, None]], min_leaf=min_leaf,
                      draws=draws if any(draws) else None)[1]
        for forest, ids in zip(forests, _trees_of(owner, len(forests))):
            forest.nodes, forest.ids = nodes, ids
        return forests

    def combine(self, preds):
        return np.mean(preds, axis=0)


def _weighted_median(preds, log_weights):
    # preds: (n_trees, n_samples); smallest prediction whose cumulative
    # model weight reaches half the total.
    lw = np.asarray(log_weights)
    order = np.argsort(preds, axis=0, kind="stable")
    sorted_preds = np.take_along_axis(preds, order, axis=0)
    cum = np.cumsum(lw[order], axis=0)
    idx = np.argmax(cum >= 0.5 * lw.sum(), axis=0)
    return sorted_preds[idx, np.arange(preds.shape[1])]


class AdaBoostR2(_Ensemble):
    """AdaBoost.R2 with linear loss and weighted-median combination.

    Trees are fitted with the boosting weights directly (no resampling), so
    the procedure is deterministic and one round equals a single plain tree.
    """

    def __init__(self, rounds=20, base_depth=3):
        require_at_least("rounds", rounds, 1)
        require_at_least("base_depth", base_depth, 0)
        self.rounds = rounds
        self.base_depth = base_depth

    trees = property(_Ensemble.all_trees)

    def fit(self, X, y):
        return self.fit_batch([self], *(a[None] for a in _as_xy(X, np.ravel(y))))[0]

    @staticmethod
    def fit_batch(boosts, X, Y):
        """Fit ``boosts[i * m + c]`` to column c of item i of a stack X
        (items, n, k), Y (items, n, m).  Each round grows the trees of every
        booster still boosting together and books them by array code over
        those boosters.

        A round's tree with zero error everywhere decides alone (log weight
        log 1e12) and ends its boosting.  One whose weighted average linear
        loss reaches 0.5 ends it too, and is kept, with log weight 1, only
        as a first round (a later one stays in the node table, unused).  Any
        other is kept with log weight log(1/beta), beta = loss / (1 - loss),
        and scales each row's weight by beta ** (1 - its loss), renormalised
        to sum n.
        """
        X, Y, first, col, n = _stacked(boosts, X, Y)
        rows = first[:, None] + np.arange(n)
        y = Y[rows, col[:, None]]
        ranks = _column_ranks(X)
        rounds = np.array([boost.rounds for boost in boosts])
        depth = np.array([boost.base_depth for boost in boosts])
        # Unit weights keep round one bit-identical to a plain tree.
        W = np.ones(y.shape)
        tables, owner, log_weights = [], [], []
        live = np.arange(len(boosts))
        for r in range(rounds.max()):
            live = live[r < rounds[live]]
            if not live.size:
                break
            leaf, nodes = _grow(depth[live], X, rows[live], y[live], W[live], ranks)
            err = np.abs(leaf - y[live])
            w = W[live]
            with np.errstate(divide="ignore", invalid="ignore"):
                max_err = err.max(axis=1)
                loss = err / max_err[:, None]
                avg_loss = np.matmul(w[:, None], loss[..., None])[:, 0, 0] / w.sum(axis=1)
                beta = avg_loss / (1.0 - avg_loss)
                perfect = max_err <= 0.0
                weak = ~perfect & (avg_loss >= 0.5)
                go = ~perfect & ~weak
                log_weight = np.where(perfect, np.log(1e12),
                                      np.where(weak, 1.0, np.log(1.0 / beta)))
            tables.append(nodes)
            owner.append(np.where(~weak | (r == 0), live, len(boosts)))
            log_weights.append(log_weight)
            w = w[go] * beta[go, None] ** (1.0 - loss[go])
            live = live[go]
            W[live] = w * (n / w.sum(axis=1))[:, None]
        nodes, log_weights = _concat(tables), np.concatenate(log_weights)
        for boost, ids in zip(boosts, _trees_of(np.concatenate(owner), len(boosts))):
            boost.nodes, boost.ids, boost.log_weights = nodes, ids, log_weights[ids]
        return boosts

    def combine(self, preds):
        return _weighted_median(preds, self.log_weights)

    def predict(self, X, upto: int | None = None):
        return _weighted_median(_walk(self.nodes, self.nodes.offsets[self.ids[:upto]], X),
                                self.log_weights[:upto])


class GradientBoost(_Ensemble):
    """Squared-loss gradient boosting: trees fitted to residuals."""

    def __init__(self, rounds=20, learning_rate=0.1, max_depth=3):
        require_at_least("rounds", rounds, 1)
        require_at_least("learning_rate", learning_rate, 0, strict=True)
        require_at_least("max_depth", max_depth, 0)
        self.rounds = rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.init = 0.0

    trees = property(_Ensemble.all_trees)

    def fit(self, X, y):
        X, Y = _as_xy(X, np.ravel(y))
        _boost([self], X, np.arange(X.shape[0])[None], Y.T)
        return self

    def combine(self, preds):
        out = np.full(preds.shape[1], self.init)
        for pred in preds:
            out = out + self.learning_rate * pred
        return out


def _boost(members, X, rows, Y):
    """Gradient-boost ``members[b]`` on targets ``Y[b]`` at the rows
    ``X[rows[b]]``; each round grows one tree per member still boosting.
    The members share the rounds' node table."""
    init = Y.mean(axis=1)
    pred = np.repeat(init[:, None], Y.shape[1], axis=1)
    ranks = _column_ranks(X)
    rounds, depth, rate = (np.array([getattr(m, a) for m in members])
                           for a in ("rounds", "max_depth", "learning_rate"))
    tables, owner = [], [np.zeros(0, np.int64)]
    live = np.arange(len(members))
    for r in range(rounds.max()):
        live = live[r < rounds[live]]
        resid = Y[live] - pred[live]
        going = np.max(np.abs(resid), axis=1) >= 1e-15
        live, resid = live[going], resid[going]
        if not live.size:
            break
        step, nodes = _grow(depth[live], X, rows[live], resid, ranks=ranks)
        pred[live] = pred[live] + rate[live, None] * step
        tables.append(nodes)
        owner.append(live)
    nodes = _concat(tables)
    for member, value, ids in zip(members, init.tolist(),
                                  _trees_of(np.concatenate(owner), len(members))):
        member.nodes, member.ids, member.init = nodes, ids, value


class BaggedGradientBoost(_Ensemble):
    """Bagged ensemble of gradient-boosted trees (the leaderboard
    'Ensemble' entry; its composition is ambiguous upstream, this picks
    bagging over boosting).  Its trees are its members' trees in turn."""

    def __init__(self, n_bags=5, boost_rounds=20, learning_rate=0.1,
                 max_depth=3, seed=0):
        require_at_least("n_bags", n_bags, 1)
        require_at_least("boost_rounds", boost_rounds, 1)
        require_at_least("learning_rate", learning_rate, 0, strict=True)
        require_at_least("max_depth", max_depth, 0)
        require_at_least("seed", seed, 0)
        self.n_bags = n_bags
        self.boost_rounds = boost_rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.seed = seed
        self.members = []

    def fit(self, X, y):
        return self.fit_batch([self], *(a[None] for a in _as_xy(X, np.ravel(y))))[0]

    @staticmethod
    def fit_batch(ensembles, X, Y):
        """Fit ``ensembles[i * m + c]`` to column c of item i of a stack X
        (items, n, k), Y (items, n, m), boosting every bag of every target
        together.  Bag rows depend only on an ensemble's seed, bag count and
        n, so they are drawn once per stack."""
        X, Y, first, col, n = _stacked(ensembles, X, Y)
        draws = {}
        members, rows = [], []
        for ens, start in zip(ensembles, first.tolist()):
            key = (ens.seed, ens.n_bags)
            if key not in draws:
                rng = np.random.default_rng(ens.seed)
                draws[key] = np.array([rng.integers(0, n, size=n) for _ in range(ens.n_bags)])
            ens.members = [GradientBoost(ens.boost_rounds, ens.learning_rate, ens.max_depth)
                           for _ in range(ens.n_bags)]
            members += ens.members
            rows.append(draws[key] + start)
        rows = np.concatenate(rows)
        cols = np.repeat(col, [ens.n_bags for ens in ensembles])
        _boost(members, X, rows, Y[rows, cols[:, None]])
        return ensembles

    @property
    def nodes(self):
        return self.members[0].nodes

    @property
    def ids(self):
        return np.concatenate([m.ids for m in self.members])

    def combine(self, preds):
        ends = np.cumsum([m.ids.size for m in self.members])
        return np.mean([m.combine(p) for m, p in
                        zip(self.members, np.split(preds, ends[:-1]))], axis=0)


class PerTargetPayload:
    """Wraps one single-output model per target column of each of ``items``
    item fits, items × targets models, item-major, all fitted by one
    ``fit_batch``, so they share one node table.  A tree fit raises as a
    whole, so its ``failures`` (item position -> error) stay empty."""

    def __init__(self, models, items):
        self.models = models
        self.items = items
        self.failures = {}

    def predict_raw(self, X):
        """(items, r, targets) predictions of X's rows, viewed as (items, r,
        k): item i's models predict X's i-th block of r rows."""
        X = np.asarray(X, dtype=float)
        X = X.reshape(-1, X.shape[-1])
        ids = [m.ids for m in self.models]
        sizes = np.array([i.size for i in ids])
        r = len(X) // self.items
        item = np.repeat(np.arange(len(self.models)) // (len(self.models) // self.items), sizes)
        rows = item[:, None] * r + np.arange(r)
        nodes = self.models[0].nodes
        preds = _walk(nodes, nodes.offsets[np.concatenate(ids)], X, rows)
        out = np.column_stack([m.combine(p) for m, p in
                               zip(self.models, np.split(preds, np.cumsum(sizes)[:-1]))])
        return out.reshape(r, self.items, -1).swapaxes(0, 1)
