"""Topology-flavoured model selection over series feature vectors.

The pipeline: describe every series by its feature vector, project with the
first principal component (the lens), build a Mapper graph over the lens
cover with single-linkage/Canberra clustering inside each preimage, split
the graph recursively along Fiedler vectors, give every cluster the
majority best-model label, and route new series to a model by k-nearest
neighbours in feature space.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import HierfcstError
from .features import extract_features

DEFAULT_INTERVALS = 10
DEFAULT_OVERLAP = 0.3
DEFAULT_KNN = 5
# Bins of the merge-height histogram whose first gap cuts a preimage's
# single-linkage tree.
HISTOGRAM_BINS = 10


# ---------------------------------------------------------------------------
# Distances and the PCA lens
# ---------------------------------------------------------------------------

def canberra(u, v) -> float:
    """sum_k |u_k - v_k| / (|u_k| + |v_k|) with 0/0 terms contributing 0."""
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if u.shape != v.shape:
        raise HierfcstError(f"length mismatch: {u.shape[0]} vs {v.shape[0]}")
    num = np.abs(u - v)
    den = np.abs(u) + np.abs(v)
    live = den > 0
    return float(np.sum(num[live] / den[live]))


def canberra_matrix(A, B=None) -> np.ndarray:
    """Canberra distances between the rows of A and of B (default A), with
    0/0 terms contributing 0, as in canberra."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = A if B is None else np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise HierfcstError(f"width mismatch: rows of {A.shape[1]} vs "
                            f"{B.shape[1]} features")
    # Imported here: scipy.spatial takes about 50 ms to import, which every
    # import of hierfcst would otherwise pay.
    from scipy.spatial.distance import cdist
    return cdist(A, B, "canberra")


def standardize_columns(X):
    """Zero-mean unit-variance columns; zero-variance columns dropped."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    keep = np.nonzero(sd > 0)[0]
    if keep.size == 0:
        raise HierfcstError("all feature columns are constant")
    return (X[:, keep] - mu[keep]) / sd[keep], keep


def _fix_sign(v) -> np.ndarray:
    """Eigenvector sign rule: entries within 1e-9 max|v| of zero become 0,
    and the lowest-index entry within 1e-9 max|v| of the largest magnitude
    is made positive, so a tie between mirrored entries breaks by index
    rather than by rounding."""
    mag = np.abs(v)
    scale = 1e-9 * mag.max()
    v = np.where(mag <= scale, 0.0, v)
    pivot = int(np.argmax(mag >= mag.max() - scale))
    return -v if v[pivot] < 0 else v


def first_principal_component(X):
    """Leading eigenvector of the covariance of X (dense eigh).

    Returns (component, explained_share), the sign fixed by _fix_sign.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if n < 2:
        raise HierfcstError("need at least 2 rows for a principal component")
    C = X.T @ X / (n - 1)
    total = float(np.trace(C))
    vals, vecs = np.linalg.eigh(C)
    share = float(vals[-1]) / total if total > 0 else 0.0
    return _fix_sign(vecs[:, -1]), share


def pca_lens(features) -> np.ndarray:
    """Project feature rows on the first principal component of their
    column-standardized version."""
    X, _ = standardize_columns(features)
    component, _ = first_principal_component(X)
    return X @ component


# ---------------------------------------------------------------------------
# Mapper graph
# ---------------------------------------------------------------------------

@dataclass
class MapperNode:
    node_id: int
    interval: int
    members: tuple          # sorted series indices
    label: str | None = None
    purity: float | None = None
    partition: int | None = None


@dataclass
class MapperGraph:
    nodes: list
    edges: list             # (node_id, node_id) pairs, a < b
    n_series: int

    def adjacency(self) -> np.ndarray:
        k = len(self.nodes)
        adj = np.zeros((k, k))
        a, b = np.array(self.edges, dtype=int).reshape(-1, 2).T
        adj[np.r_[a, b], np.r_[b, a]] = 1.0
        return adj

    def membership(self) -> np.ndarray:
        """(nodes, series) matrix, 1.0 where the node holds the series; its
        products count shared series and label votes."""
        M = np.zeros((len(self.nodes), self.n_series))
        sizes = [len(nd.members) for nd in self.nodes]
        M[np.repeat(np.arange(len(sizes)), sizes),
          np.array([s for nd in self.nodes for s in nd.members], dtype=int)] = 1.0
        return M

    def to_json(self) -> str:
        payload = {
            "n_series": self.n_series,
            "nodes": [
                {"id": nd.node_id, "interval": nd.interval,
                 "members": list(nd.members), "label": nd.label,
                 "purity": nd.purity, "partition": nd.partition}
                for nd in self.nodes
            ],
            "edges": [list(e) for e in self.edges],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_dot(self) -> str:
        lines = ["graph mapper {"]
        for nd in self.nodes:
            attrs = f"size {len(nd.members)}"
            if nd.label:
                attrs = f"{nd.label}\\n{attrs}"
            if nd.partition is not None:
                attrs += f"\\npart {nd.partition}"
            lines.append(f'  n{nd.node_id} [label="{attrs}"];')
        for a, b in self.edges:
            lines.append(f"  n{a} -- n{b};")
        lines.append("}")
        return "\n".join(lines)


def _first_gap_threshold(heights, bins: int) -> float:
    """Left edge of the first empty histogram bin, or inf if no gap."""
    heights = np.asarray(heights, dtype=float)
    top = heights.max()
    if top <= 0:
        return np.inf
    counts, edges = np.histogram(heights, bins=bins, range=(0.0, top))
    first = int(np.argmax(counts > 0))
    gaps = np.flatnonzero(counts[first:] == 0)
    return float(edges[first + gaps[0]]) if gaps.size else np.inf


def _cluster_preimage(D, bins: int = HISTOGRAM_BINS) -> np.ndarray:
    """Single-linkage components under the first-gap cut, as one component
    label per point, numbered in order of their lowest point.

    The merge heights of single linkage are the minimum spanning tree's
    edge weights (Gower & Ross 1969).  fcluster joins the merges at or
    below the cut, which are those below it: no height equals the left
    edge of an empty bin.
    """
    if D.shape[0] == 1:
        return np.zeros(1, dtype=int)
    # Imported here, as cdist is: scipy.cluster takes tens of milliseconds.
    from scipy.cluster.hierarchy import fcluster, linkage
    from scipy.spatial.distance import squareform
    Z = linkage(squareform(D, checks=False), "single")
    labels = fcluster(Z, _first_gap_threshold(Z[:, 2], bins), "distance")
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def mapper(features, lens=None, n_intervals: int = DEFAULT_INTERVALS,
           overlap: float = DEFAULT_OVERLAP) -> MapperGraph:
    """Mapper graph: overlapping lens intervals, Canberra single-linkage
    clustering per preimage, edges between clusters sharing a series.

    A single interval degenerates to one clustering of the whole set.  The
    raw (non-standardized) features feed the Canberra distances, which need
    magnitude semantics; the lens defaults to the standardized-PCA
    projection.
    """
    X = np.atleast_2d(np.asarray(features, dtype=float))
    n = X.shape[0]
    if n == 0:
        raise HierfcstError("empty feature matrix")
    if n_intervals < 1:
        raise HierfcstError("n_intervals must be >= 1")
    if not 0.0 < overlap <= 0.5:
        raise HierfcstError(f"overlap must be in (0, 0.5], got {overlap}")
    lens = pca_lens(X) if lens is None else np.asarray(lens, dtype=float).ravel()
    if lens.shape[0] != n:
        raise HierfcstError("lens length must match feature rows")

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

    nodes = []
    for k, (a, b) in enumerate(intervals):
        members = np.nonzero((lens >= a) & (lens <= b))[0]
        if members.size == 0:
            continue
        # Mapper clusters each preimage on its own, so only the distances
        # within it are computed.
        labels = _cluster_preimage(canberra_matrix(X[members]))
        for c in range(labels.max() + 1):
            nodes.append(MapperNode(node_id=len(nodes), interval=k,
                                    members=tuple(members[labels == c].tolist())))

    graph = MapperGraph(nodes=nodes, edges=[], n_series=n)
    M = graph.membership()
    # Nodes sharing a series, in row-major order.
    graph.edges = list(map(tuple, np.argwhere(np.triu(M @ M.T, 1)).tolist()))
    return graph


# ---------------------------------------------------------------------------
# Spectral partitioning
# ---------------------------------------------------------------------------

def fiedler_vector(adjacency) -> np.ndarray:
    """Second-smallest eigenvector of the unnormalized Laplacian (dense eigh).

    Assumes a connected graph with >= 2 nodes.  The sign is fixed by
    _fix_sign; a node whose entry is zero lands on the non-negative side of
    fiedler_partition.
    """
    A = np.asarray(adjacency, dtype=float)
    if A.shape[0] < 2:
        raise HierfcstError("need at least 2 nodes")
    L = np.diag(A.sum(axis=1)) - A
    return _fix_sign(np.linalg.eigh(L)[1][:, 1])


def fiedler_partition(graph: MapperGraph, min_cluster_size: int) -> dict:
    """Recursive spectral bisection of the Mapper graph.

    Each connected component splits along the sign of its Fiedler vector
    and recurses while both halves would still hold at least
    min_cluster_size underlying series.  Returns node_id -> partition id and
    stamps the ids on the nodes.
    """
    from scipy.sparse.csgraph import connected_components
    adj = graph.adjacency()
    M = graph.membership()
    partitions = []

    def split(node_ids):
        if len(node_ids) < 2:
            partitions.append(node_ids)
            return
        sub = adj[np.ix_(node_ids, node_ids)]
        # A disconnected selection is handled component-wise.
        n_comp, labels = connected_components(sub, directed=False)
        if n_comp > 1:
            for c in range(n_comp):
                split(node_ids[labels == c])
            return
        f = fiedler_vector(sub)
        left, right = node_ids[f < 0], node_ids[f >= 0]
        if (not left.size or not right.size
                or np.count_nonzero(M[left].any(axis=0)) < min_cluster_size
                or np.count_nonzero(M[right].any(axis=0)) < min_cluster_size):
            partitions.append(node_ids)
            return
        split(left)
        split(right)

    split(np.arange(len(graph.nodes)))

    assignment = {}
    for pid, node_ids in enumerate(sorted(partitions, key=min)):
        for i in node_ids.tolist():
            assignment[i] = pid
            graph.nodes[i].partition = pid
    return assignment


# ---------------------------------------------------------------------------
# Labeling and routing
# ---------------------------------------------------------------------------

def _majority(labels):
    """The most frequent label; a tie goes to the lexicographically first."""
    names, counts = np.unique(labels, return_counts=True)
    return names[np.argmax(counts)].item()


@dataclass
class ModelSelector:
    """Routes a series to a model family via kNN over training features."""

    train_features: np.ndarray
    series_labels: list            # cluster-majority label per training series
    series_cluster: np.ndarray
    cluster_labels: dict
    k: int = DEFAULT_KNN

    def route_features(self, feats) -> str:
        feats = np.asarray(feats, dtype=float).ravel()
        dists = canberra_matrix(feats[None, :], self.train_features)[0]
        order = np.argsort(dists, kind="stable")[:min(self.k, dists.shape[0])]
        return _majority([self.series_labels[i] for i in order])

    def route_series(self, series) -> str:
        return self.route_features(extract_features(series))

    def cluster_shares(self) -> dict:
        """Share of training series per cluster label; sums to 100."""
        n = len(self.series_labels)
        shares = {}
        for cid, label in sorted(self.cluster_labels.items()):
            count = int(np.sum(self.series_cluster == cid))
            key = f"cluster{cid}:{label}"
            shares[key] = 100.0 * count / n
        return shares


def label_and_route(graph: MapperGraph, features, best_labels,
                    k: int = DEFAULT_KNN) -> ModelSelector:
    """Assign majority labels to partitioned clusters and build the router.

    best_labels maps every training series index to its SMAPE-best model
    name.  Ties inside a cluster or a neighbourhood break lexicographically.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    n = graph.n_series
    best_labels = list(best_labels)
    if len(best_labels) != n or any(lbl is None for lbl in best_labels):
        raise HierfcstError("every training series needs a best-model label")
    if any(nd.partition is None for nd in graph.nodes):
        raise HierfcstError("run fiedler_partition before labeling")

    # np.unique sorts the names, so an argmax over label counts breaks ties
    # lexicographically; label_hot marks each series' label.
    names, codes = np.unique(best_labels, return_inverse=True)
    names = names.tolist()
    label_hot = (codes[:, None] == np.arange(len(names))).astype(float)
    M = graph.membership()

    # A series appearing in several nodes joins the partition holding it
    # most often (ties -> lowest partition id).
    pids, node_part = np.unique([nd.partition for nd in graph.nodes], return_inverse=True)
    votes = M.T @ (node_part[:, None] == np.arange(pids.size))
    orphans = np.flatnonzero(votes.sum(axis=1) == 0)
    if orphans.size:
        raise HierfcstError(f"series {orphans[0]} belongs to no Mapper node")
    part = np.argmax(votes, axis=1)
    series_cluster = pids[part]

    used = np.unique(part)
    cluster_top = np.argmax((part == used[:, None]) @ label_hot, axis=1)
    cluster_labels = {cid: names[top] for cid, top in
                      zip(pids[used].tolist(), cluster_top.tolist())}

    for nd, counts in zip(graph.nodes, M @ label_hot):
        top = int(np.argmax(counts))
        nd.label = names[top]
        nd.purity = int(counts[top]) / len(nd.members)

    series_labels = [cluster_labels[cid] for cid in series_cluster.tolist()]
    return ModelSelector(train_features=features, series_labels=series_labels,
                         series_cluster=series_cluster,
                         cluster_labels=cluster_labels, k=k)
