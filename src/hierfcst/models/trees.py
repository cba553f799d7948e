"""Regression trees and the ensembles built on them (forest, AdaBoost.R2,
bagged gradient boosting).  Everything is written against plain numpy so
split criteria and combination rules stay inspectable.

The trees of one fit grow together, level by level (``_grow``): every tree
of a forest, every bag of a bagged boost and every target column of a
multi-output fit is split by one vectorised scan per depth.  Boosting rounds
stay sequential, each round one batch.  A fitted tree is a set of flat node
arrays and ``predict`` walks all rows (and all trees of an ensemble) at once.
"""

from __future__ import annotations

import numpy as np

from ..errors import HierfcstError

# Trees grow in groups of at most this many sample slots, and the split
# scan takes nodes in chunks of at most this many (feature, slot) cells, so
# temporaries stay bounded whatever the batch size.
_BLOCK = 1 << 14


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


class RegressionTree:
    """Binary tree with weighted variance-reduction splits.

    Row-permutation invariant: split candidates are scanned in sorted value
    order per feature and ties resolve to the lowest feature index, never to
    input ordering.  min_leaf applies to the sample count on each side.

    Stored flat, nodes numbered level by level from the root (node 0):
    ``feature[i]`` is -1 at a leaf, whose ``left[i]`` and ``right[i]`` are
    ``i`` itself; ``value[i]`` is the weighted mean of the node's samples.
    """

    def __init__(self, max_depth: int = 6, min_leaf: int = 2,
                 max_features: float | None = None, rng=None):
        if max_depth < 0:
            raise HierfcstError("max_depth must be >= 0")
        if min_leaf < 1:
            raise HierfcstError("min_leaf must be >= 1")
        if max_features is not None and not 0 < max_features <= 1:
            raise HierfcstError("max_features must be in (0, 1]")
        if max_features is not None and max_features < 1 and rng is None:
            raise HierfcstError("max_features < 1 needs an rng to draw feature subsets")
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self.rng = rng
        self.feature = self.threshold = self.left = self.right = self.value = None

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
        _grow([self], X, np.arange(X.shape[0])[None], Y.T, w[None])
        return self

    def _draw(self, k):
        """Features one node may split on: all k, or a sorted random subset."""
        if self.max_features is None or self.max_features >= 1.0:
            return None
        m = max(1, int(round(self.max_features * k)))
        return np.sort(self.rng.choice(k, size=m, replace=False))

    def predict(self, X):
        return _predict_trees([self], X)[0]


def _as_xy(X, Y):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float)
    Y = Y[:, None] if Y.ndim == 1 else Y
    if X.shape[0] != Y.shape[0] or X.shape[0] == 0:
        raise HierfcstError("X and y must share a positive row count")
    return X, Y


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


def _replay(gain):
    """Index the sequential rule keeps: scanning ``gain`` in order, take a
    candidate when it beats the best so far (starting at 0) by > 1e-12."""
    best, pick, start = 0.0, -1, 0
    while True:
        hit = np.flatnonzero(gain[start:] > best + 1e-12)
        if hit.size == 0:
            return pick
        pick = start + int(hit[0])
        best, start = gain[pick], pick + 1


def _pick(gain):
    """Row-wise ``_replay``.  The first maximum is kept when it beats every
    earlier gain (and 0) by > 1e-12; rows where a near-tie decides replay the
    rule."""
    top = gain.argmax(axis=1)
    best = gain[np.arange(gain.shape[0]), top]
    earlier = np.where(np.arange(gain.shape[1]) < top[:, None], gain, -np.inf)
    clear = best > np.maximum(earlier.max(axis=1), 0.0) + 1e-12
    pick = np.where(clear, top, -1)
    for r in np.flatnonzero(~clear & (best > 1e-12)):
        pick[r] = _replay(gain[r])
    return pick


def _column_ranks(X):
    """(features, rows) dense ranks: equal values share a rank, so sorting
    (rank, slot) keys is a stable sort of the column."""
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
        slot = (tree_of[nd] * n)[:, None] + key % n
        ws = np.where(inside, W[slot], 0.0)
        ys = np.where(inside, Y[slot], 0.0)
        cw = np.cumsum(ws, axis=-1)
        cwy = np.cumsum(ws * ys, axis=-1)
        cwy2 = np.cumsum(ws * ys ** 2, axis=-1)
        del ws, ys
        wl = cw[..., :-1]
        wr = w_tot[nd][:, None] - wl
        i = np.arange(m - 1)
        ok = ((i >= min_leaf[nd][:, None] - 1) & (i < (cnt - min_leaf[nd])[:, None])
              & (key[..., :-1] // n != key[..., 1:] // n) & (wl > 0) & (wr > 0))
        if drawn is not None:
            ok &= drawn[np.searchsorted(nodes, nd)].T[..., None]
        with np.errstate(divide="ignore", invalid="ignore"):
            sl = cwy2[..., :-1] - cwy[..., :-1] ** 2 / wl
            sr = ((cwy2[..., -1:] - cwy2[..., :-1])
                  - (cwy[..., -1:] - cwy[..., :-1]) ** 2 / wr)
            gain = np.where(ok, sse[nd][:, None] - sl - sr, -np.inf)
        del cw, cwy, cwy2, wr, ok, sl, sr
        pick = _pick(gain.transpose(1, 0, 2).reshape(nd.size, -1))  # features, then positions
        hit = np.flatnonzero(pick >= 0)
        j, i = np.divmod(pick[hit], m - 1)
        x = X[R[slot[j, hit, i]], j], X[R[slot[j, hit, i + 1]], j]
        where = np.searchsorted(nodes, nd[hit])
        feat[where], thr[where] = j, 0.5 * (x[0] + x[1])
        pos += c
    return feat, thr


def _grow(trees, X, rows, Y, W):
    """Fit ``trees[b]`` to targets ``Y[b]`` with weights ``W[b]`` at the rows
    ``X[rows[b]]`` (each (B, n)), one depth at a time, the trees together in
    groups of at most _BLOCK slots.

    Slot s of tree b is sample ``rows[b, s]``; a bootstrap draw keeps its
    duplicates as separate slots.  Every node keeps its slots in slot order
    and the scan sorts them stably per feature, so each tree is the one the
    recursive definition grows, sum for sum: node totals are numpy's
    pairwise sums over that order, split statistics cumulative sums in
    sorted order, and a candidate wins when its gain beats the best so far
    by more than 1e-12 (features in order, then positions).  Feature
    subsets (``max_features < 1``) are drawn node by node in level order.
    Returns the leaf value of every slot, (B, n).
    """
    ranks = _column_ranks(X)
    step = max(1, _BLOCK // rows.shape[1])
    return np.concatenate([_grow_group(trees[g:g + step], X, ranks, rows[g:g + step],
                                       Y[g:g + step], W[g:g + step])
                           for g in range(0, len(trees), step)])


def _grow_group(trees, X, ranks, rows, Y, W):
    B, n = rows.shape
    p = X.shape[1]
    R, Yf, Wf = rows.ravel(), np.ravel(Y), np.ravel(W)
    max_depth = np.array([t.max_depth for t in trees])
    min_leaf = np.array([t.min_leaf for t in trees])
    sampled = any(t.max_features is not None and t.max_features < 1.0 for t in trees)
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
        y, w = Yf[order], Wf[order]
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
            if sampled:
                drawn = np.ones((nodes.size, p), bool)
                for r, v in enumerate(nodes):
                    subset = trees[tree_of[v]]._draw(p)
                    if subset is not None:
                        drawn[r] = False
                        drawn[r, subset] = True
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
    sizes = np.bincount(owner, minlength=B)
    local = np.empty(done, dtype=np.int64)
    local[by_tree] = np.arange(done) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    cuts = np.cumsum(sizes)[:-1]
    parts = [np.split(a, cuts) for a in (feature[by_tree], threshold[by_tree],
                                         local[left[by_tree]], local[right[by_tree]],
                                         value[by_tree])]
    for tree, arrays in zip(trees, zip(*parts)):
        tree.feature, tree.threshold, tree.left, tree.right, tree.value = arrays
        tree.n_features = p
    return leaf_value.reshape(B, n)


def _predict_trees(trees, X):
    """(len(trees), rows) predictions: all trees walked together, one depth
    per step."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not trees:
        return np.empty((0, X.shape[0]))
    sizes = np.array([t.feature.size for t in trees])
    roots = np.cumsum(sizes) - sizes
    shift = np.repeat(roots, sizes)
    feature = np.concatenate([t.feature for t in trees])
    threshold = np.concatenate([t.threshold for t in trees])
    left = np.concatenate([t.left for t in trees]) + shift
    right = np.concatenate([t.right for t in trees]) + shift
    value = np.concatenate([t.value for t in trees])
    node = np.repeat(roots[:, None], X.shape[0], axis=1)
    rows = np.arange(X.shape[0])
    while np.any(feature[node] >= 0):
        # A leaf points at itself, whatever its (unused) comparison says.
        node = np.where(X[rows, feature[node]] <= threshold[node], left[node], right[node])
    return value[node]


class _Ensemble:
    """A model predicting from one walk of all its trees: ``combine`` maps
    the stacked predictions of ``all_trees()`` to the model's own."""

    def all_trees(self):
        return self.trees

    def predict(self, X):
        return self.combine(_predict_trees(self.all_trees(), X))


class RandomForest(_Ensemble):
    """Bootstrap-aggregated trees; reduces to the plain tree when bootstrap
    is off, max_features is 1.0 and n_trees is 1."""

    def __init__(self, n_trees=30, max_depth=4, min_leaf=2, max_features=1.0,
                 bootstrap=True, seed=0):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed
        self.trees = []

    def fit(self, X, y):
        return self.fit_batch([self], X, np.ravel(y))[0]

    @staticmethod
    def fit_batch(forests, X, Y):
        """Fit ``forests[c]`` to column c of Y, all their trees grown together."""
        X, Y = _as_xy(X, Y)
        n = X.shape[0]
        trees, rows, cols = [], [], []
        for c, forest in enumerate(forests):
            rng = np.random.default_rng(forest.seed)
            mf = None if forest.max_features >= 1.0 else forest.max_features
            forest.trees = []
            for _ in range(forest.n_trees):
                tree_rng = np.random.default_rng(rng.integers(0, 2 ** 63))
                rows.append(tree_rng.integers(0, n, size=n) if forest.bootstrap
                            else np.arange(n))
                forest.trees.append(RegressionTree(forest.max_depth, forest.min_leaf,
                                                   mf, tree_rng))
                cols.append(c)
            trees += forest.trees
        rows = np.array(rows)
        _grow(trees, X, rows, Y[rows, np.array(cols)[:, None]], np.broadcast_to(1.0, rows.shape))
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

    def __init__(self, rounds=20, base_depth=3, seed=0):
        self.rounds = rounds
        self.base_depth = base_depth
        self.seed = seed  # kept for interface symmetry; fitting is deterministic
        self.trees = []
        self.log_weights = []

    def fit(self, X, y):
        return self.fit_batch([self], X, np.ravel(y))[0]

    @staticmethod
    def fit_batch(boosts, X, Y):
        """Fit ``boosts[c]`` to column c of Y; each round grows the trees of
        every target still boosting together."""
        X, Y = _as_xy(X, Y)
        n = X.shape[0]
        # Unit weights keep round one bit-identical to a plain tree.
        weights = [np.ones(n) for _ in boosts]
        for boost in boosts:
            boost.trees, boost.log_weights = [], []
        live = list(range(len(boosts)))
        for r in range(max(b.rounds for b in boosts)):
            live = [c for c in live if r < boosts[c].rounds]
            if not live:
                break
            trees = [RegressionTree(max_depth=boosts[c].base_depth) for c in live]
            preds = _grow(trees, X, np.broadcast_to(np.arange(n), (len(live), n)),
                          Y[:, live].T, np.array([weights[c] for c in live]))
            still = []
            for c, tree, pred in zip(live, trees, preds):
                w = boosts[c]._round(tree, pred, Y[:, c], weights[c])
                if w is not None:
                    weights[c] = w
                    still.append(c)
            live = still
        return boosts

    def _round(self, tree, pred, y, w):
        """Book one round's tree; the next round's weights, or None when
        boosting stops here."""
        n = y.shape[0]
        err = np.abs(pred - y)
        max_err = err.max()
        if max_err <= 0.0:
            # Perfect fit: this tree decides alone.
            self.trees.append(tree)
            self.log_weights.append(np.log(1e12))
            return None
        loss = err / max_err
        avg_loss = float(w @ loss) / float(w.sum())
        if avg_loss >= 0.5:
            if not self.trees:
                self.trees.append(tree)
                self.log_weights.append(1.0)
            return None
        beta = avg_loss / (1.0 - avg_loss)
        self.trees.append(tree)
        self.log_weights.append(np.log(1.0 / beta))
        w = w * beta ** (1.0 - loss)
        return w * (n / w.sum())

    def combine(self, preds):
        return _weighted_median(preds, self.log_weights)

    def predict(self, X, upto: int | None = None):
        return _weighted_median(_predict_trees(self.trees[:upto], X),
                                self.log_weights[:upto])

    def staged_predict(self, X):
        """Predictions of the first k rounds for k = 1..len(trees)."""
        preds = _predict_trees(self.trees, X)
        return [_weighted_median(preds[:k], self.log_weights[:k])
                for k in range(1, len(self.trees) + 1)]


class GradientBoost(_Ensemble):
    """Squared-loss gradient boosting: trees fitted to residuals."""

    def __init__(self, rounds=20, learning_rate=0.1, max_depth=3):
        self.rounds = rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.init = 0.0
        self.trees = []

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
    ``X[rows[b]]``; each round grows one tree per member still boosting."""
    for member, y in zip(members, Y):
        member.init = float(np.mean(y))
        member.trees = []
    pred = np.array([np.full_like(y, m.init) for m, y in zip(members, Y)])
    live = np.arange(len(members))
    for r in range(max(m.rounds for m in members)):
        live = live[[r < members[b].rounds for b in live]]
        resid = Y[live] - pred[live]
        going = np.max(np.abs(resid), axis=1) >= 1e-15
        live, resid = live[going], resid[going]
        if not live.size:
            break
        trees = [RegressionTree(max_depth=members[b].max_depth) for b in live]
        step = _grow(trees, X, rows[live], resid, np.broadcast_to(1.0, resid.shape))
        rate = np.array([members[b].learning_rate for b in live])[:, None]
        pred[live] = pred[live] + rate * step
        for b, tree in zip(live, trees):
            members[b].trees.append(tree)


class BaggedGradientBoost(_Ensemble):
    """Bagged ensemble of gradient-boosted trees (the leaderboard
    'Ensemble' entry; its composition is ambiguous upstream, this picks
    bagging over boosting)."""

    def __init__(self, n_bags=5, boost_rounds=20, learning_rate=0.1,
                 max_depth=3, seed=0):
        self.n_bags = n_bags
        self.boost_rounds = boost_rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.seed = seed
        self.members = []

    def fit(self, X, y):
        return self.fit_batch([self], X, np.ravel(y))[0]

    @staticmethod
    def fit_batch(ensembles, X, Y):
        """Fit ``ensembles[c]`` to column c of Y, boosting every bag of every
        target together."""
        X, Y = _as_xy(X, Y)
        n = X.shape[0]
        members, rows, cols = [], [], []
        for c, ens in enumerate(ensembles):
            rng = np.random.default_rng(ens.seed)
            ens.members = [GradientBoost(ens.boost_rounds, ens.learning_rate, ens.max_depth)
                           for _ in range(ens.n_bags)]
            rows += [rng.integers(0, n, size=n) for _ in ens.members]
            cols += [c] * ens.n_bags
            members += ens.members
        rows = np.array(rows)
        _boost(members, X, rows, Y[rows, np.array(cols)[:, None]])
        return ensembles

    def all_trees(self):
        return [tree for m in self.members for tree in m.trees]

    def combine(self, preds):
        return np.mean(_combine_each(self.members, preds), axis=0)


def _combine_each(models, preds):
    """Each model's ``combine`` of its own rows of ``preds``, the stacked
    predictions of every model's ``all_trees()`` in turn."""
    cuts = np.cumsum([len(m.all_trees()) for m in models])[:-1]
    return [m.combine(part) for m, part in zip(models, np.split(preds, cuts))]


class PerTargetPayload:
    """Wraps one single-output model per target column."""

    def __init__(self, models):
        self.models = models

    def predict_raw(self, X):
        trees = [tree for m in self.models for tree in m.all_trees()]
        return np.column_stack(_combine_each(self.models, _predict_trees(trees, X)))
