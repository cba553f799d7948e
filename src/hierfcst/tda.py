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
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import HierfcstError
from .features import extract_features

DEFAULT_INTERVALS = 10
DEFAULT_OVERLAP = 0.3
DEFAULT_KNN = 5


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
        for a, b in self.edges:
            adj[a, b] = adj[b, a] = 1.0
        return adj

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


def _mst_edges(D):
    """Prim's minimum spanning tree on a dense distance matrix.

    Returns (i, j, weight) triples, n-1 of them.
    """
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


def _first_gap_threshold(heights, bins: int):
    """Left edge of the first empty histogram bin, or None if no gap."""
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


def _cluster_preimage(D, bins: int):
    """Single-linkage components under the first-gap cut; list of index lists."""
    n = D.shape[0]
    if n == 1:
        return [[0]]
    edges = _mst_edges(D)
    threshold = _first_gap_threshold([w for *_, w in edges], bins)
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


def mapper(features, lens=None, n_intervals: int = DEFAULT_INTERVALS,
           overlap: float = DEFAULT_OVERLAP, histogram_bins: int = 10) -> MapperGraph:
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
        for cluster in _cluster_preimage(canberra_matrix(X[members]), histogram_bins):
            idx = tuple(sorted(int(members[c]) for c in cluster))
            nodes.append(MapperNode(node_id=len(nodes), interval=k, members=idx))

    edges = []
    member_sets = [set(nd.members) for nd in nodes]
    for a in range(len(nodes)):
        for b in range(a + 1, len(nodes)):
            if member_sets[a] & member_sets[b]:
                edges.append((a, b))

    return MapperGraph(nodes=nodes, edges=edges, n_series=n)


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


def _components(adjacency):
    k = adjacency.shape[0]
    seen = np.zeros(k, dtype=bool)
    comps = []
    for start in range(k):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in np.nonzero(adjacency[u] > 0)[0]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(int(w))
        comps.append(sorted(comp))
    return comps


def fiedler_partition(graph: MapperGraph, min_cluster_size: int) -> dict:
    """Recursive spectral bisection of the Mapper graph.

    Each connected component splits along the sign of its Fiedler vector
    and recurses while both halves would still hold at least
    min_cluster_size underlying series.  Returns node_id -> partition id and
    stamps the ids on the nodes.
    """
    adj = graph.adjacency()
    members = [set(nd.members) for nd in graph.nodes]

    def series_count(node_ids):
        out = set()
        for i in node_ids:
            out |= members[i]
        return len(out)

    partitions = []

    def split(node_ids):
        if len(node_ids) < 2:
            partitions.append(node_ids)
            return
        sub = adj[np.ix_(node_ids, node_ids)]
        # A disconnected selection is handled component-wise.
        comps = _components(sub)
        if len(comps) > 1:
            for comp in comps:
                split([node_ids[c] for c in comp])
            return
        f = fiedler_vector(sub)
        left = [node_ids[i] for i in range(len(node_ids)) if f[i] < 0]
        right = [node_ids[i] for i in range(len(node_ids)) if f[i] >= 0]
        if (not left or not right
                or series_count(left) < min_cluster_size
                or series_count(right) < min_cluster_size):
            partitions.append(node_ids)
            return
        split(left)
        split(right)

    split(list(range(len(graph.nodes))))

    assignment = {}
    for pid, node_ids in enumerate(sorted(partitions, key=min)):
        for i in node_ids:
            assignment[i] = pid
            graph.nodes[i].partition = pid
    return assignment


# ---------------------------------------------------------------------------
# Labeling and routing
# ---------------------------------------------------------------------------

def _majority(labels):
    counts = Counter(labels)
    top = max(counts.values())
    return sorted(lbl for lbl, c in counts.items() if c == top)[0]


@dataclass
class ModelSelector:
    """Routes a series to a model family via kNN over training features."""

    train_features: np.ndarray
    series_labels: list            # cluster-majority label per training series
    series_cluster: np.ndarray
    cluster_labels: dict
    k: int = DEFAULT_KNN
    graph: MapperGraph | None = None
    feature_fn: object = field(default=extract_features, repr=False)

    def route_features(self, feats) -> str:
        feats = np.asarray(feats, dtype=float).ravel()
        dists = canberra_matrix(feats[None, :], self.train_features)[0]
        order = np.argsort(dists, kind="stable")[:min(self.k, dists.shape[0])]
        return _majority([self.series_labels[i] for i in order])

    def route_series(self, series) -> str:
        return self.route_features(self.feature_fn(series))

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

    # A series appearing in several nodes joins the partition holding it
    # most often (ties -> lowest partition id).
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
        cluster_labels[cid] = _majority([best_labels[s] for s in members])

    for nd in graph.nodes:
        node_best = [best_labels[s] for s in nd.members]
        nd.label = _majority(node_best)
        nd.purity = node_best.count(nd.label) / len(node_best)

    series_labels = [cluster_labels[series_cluster[s]] for s in range(n)]
    return ModelSelector(train_features=features, series_labels=series_labels,
                         series_cluster=series_cluster,
                         cluster_labels=cluster_labels, k=k, graph=graph)
