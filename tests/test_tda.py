import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierfcst.errors import HierfcstError
from hierfcst.features import FEATURE_NAMES, extract_features, extract_feature_matrix
from hierfcst.tda import (DEFAULT_KNN, MapperGraph, canberra, canberra_matrix,
                          fiedler_partition, fiedler_vector,
                          first_principal_component, label_and_route, mapper,
                          pca_lens, standardize_columns)

from oracles import features_item, fiedler_dense, mapper_dense, pc1_dense


def bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


@st.composite
def series_stacks(draw):
    """Equal-length series, lengths from 2, each random, constant (0.1
    repeated does not average to 0.1 exactly), all-zero or spiky."""
    n = draw(st.integers(1, 8))
    T = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["random", "constant", "zero", "spiky"]))
        if kind == "random":
            row = np.round(rng.lognormal(0, 2, T), draw(st.integers(0, 3)))
        elif kind == "constant":
            row = np.full(T, draw(st.sampled_from([0.1, 1.0, 7.5, 1e6])))
        elif kind == "zero":
            row = np.zeros(T)
        else:
            row = np.where(rng.random(T) < 0.15, rng.uniform(50, 5000, T), 0.0)
        rows.append(row)
    return np.array(rows)


class TestFeatures:
    def test_all_zero_series(self):
        np.testing.assert_array_equal(extract_features(np.zeros(6)),
                                      [0, 0, 0, 0, 0, 1, 0])

    def test_constant_ones(self):
        f = extract_features([1.0, 1.0, 1.0, 1.0])
        assert f[0] == 1.0 and f[5] == 0.0 and f[6] == 1.0
        assert f[1] == f[2] == f[3] == f[4] == 0.0

    def test_hand_computed_case(self):
        f = extract_features([0.0, 0.0, 0.0, 4.0])
        assert f[0] == 1.0            # mean
        assert f[5] == 0.75           # zero fraction
        assert f[6] == 4.0            # max / mean
        assert f[1] == pytest.approx(3.0)   # population variance
        dev = np.array([-1.0, -1.0, -1.0, 3.0])
        assert f[2] == pytest.approx(np.mean(dev ** 3) / 3.0 ** 1.5)
        assert f[4] == pytest.approx((dev[:-1] @ dev[1:]) / (dev @ dev))

    def test_length_and_shape_guards(self):
        with pytest.raises(HierfcstError):
            extract_features([1.0])
        assert len(FEATURE_NAMES) == 7
        assert extract_feature_matrix([np.ones(5), np.zeros(5)]).shape == (2, 7)

    @settings(max_examples=200, deadline=None)
    @given(series_stacks())
    def test_stack_matches_per_series_loop_bit_for_bit(self, X):
        ref = np.array([features_item(row) for row in X])
        assert bits(extract_features(X)) == bits(ref)
        assert bits(extract_feature_matrix(list(X))) == bits(ref)
        assert bits(extract_features(X[0])) == bits(ref[0])

    def test_stack_guards(self):
        with pytest.raises(HierfcstError, match="equal length"):
            extract_feature_matrix([np.ones(5), np.ones(4)])
        with pytest.raises(HierfcstError, match="finite"):
            extract_features(np.array([[1.0, 2.0], [np.inf, 1.0]]))
        with pytest.raises(HierfcstError, match="finite"):
            extract_features(np.array([[1.0, 2.0], [np.nan, 1.0]]))
        with pytest.raises(HierfcstError, match="length >= 2"):
            extract_features(np.ones((3, 1)))
        with pytest.raises(HierfcstError, match="shape"):
            extract_features(np.ones((2, 3, 4)))

    def test_variance_whose_square_underflows_counts_as_flat(self):
        # m2 is about 1e-340 here, and m2 ** 2 underflows to 0.
        f = extract_features([0.0, 1e-160, 0.0, 1e-160])
        assert np.all(np.isfinite(f))
        assert f[1] > 0.0
        assert f[2] == f[3] == f[4] == 0.0
        assert f[6] == 2.0


class TestCanberra:
    def test_identity(self):
        x = np.array([1.0, 2.0, 0.0])
        assert canberra(x, x) == 0.0

    def test_unit_vectors(self):
        assert canberra([1.0, 0.0], [0.0, 1.0]) == 2.0

    def test_all_zero_convention(self):
        assert canberra(np.zeros(5), np.zeros(5)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(HierfcstError):
            canberra([1.0], [1.0, 2.0])

    def test_metric_properties_random_triples(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            u, v, w = rng.uniform(0, 5, size=(3, 4))
            duv = canberra(u, v)
            assert duv >= 0.0
            assert duv <= 4.0  # bounded by dimension
            assert duv == pytest.approx(canberra(v, u), abs=1e-12)
            assert duv <= canberra(u, w) + canberra(w, v) + 1e-12

    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            u, v = rng.uniform(0, 5, size=(2, 4))
            if canberra(u, v) == 0.0:
                np.testing.assert_array_equal(u, v)

    def test_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(2)
        A = rng.uniform(0, 3, size=(6, 4))
        D = canberra_matrix(A)
        for i in range(6):
            for j in range(6):
                assert D[i, j] == pytest.approx(canberra(A[i], A[j]), abs=1e-12)


    def test_matrix_agrees_with_scalar_zeros_and_mixed_signs(self):
        rng = np.random.default_rng(9)
        A = rng.normal(scale=3.0, size=(7, 5))
        A[rng.uniform(size=A.shape) < 0.3] = 0.0
        A[2] = 0.0
        B = rng.normal(size=(4, 5))
        B[0] = -A[0]
        B[1] = 0.0
        B[2, :2] = 0.0
        for X, Y in ((A, A), (A, B), (B, A)):
            D = canberra_matrix(X, None if Y is A and X is A else Y)
            ref = [[canberra(u, v) for v in Y] for u in X]
            np.testing.assert_allclose(D, ref, rtol=1e-14, atol=0)


    def test_matrix_width_mismatch_names_both_widths(self):
        with pytest.raises(HierfcstError, match="7 vs 5"):
            canberra_matrix(np.ones((3, 7)), np.ones((2, 5)))


class TestPcaLens:
    def test_rank_one_data_fully_explained(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=20)
        X = np.column_stack([base, 3.0 * base])
        Xs, _ = standardize_columns(X)
        _, share = first_principal_component(Xs)
        assert share == pytest.approx(1.0, abs=1e-12)

    def test_isotropic_share_near_uniform(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(4000, 5))
        Xs, _ = standardize_columns(X)
        v, share = first_principal_component(Xs)
        ref_v, ref_share = pc1_dense(Xs)
        assert share == pytest.approx(ref_share, abs=1e-9)
        assert abs(share - 1 / 5) < 0.05  # Monte-Carlo tolerance

    def test_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            X = rng.normal(size=(40, 7)) @ np.diag(rng.uniform(0.5, 3, size=7))
            Xs, _ = standardize_columns(X)
            v, _ = first_principal_component(Xs)
            ref, _ = pc1_dense(Xs)
            angle = np.arccos(np.clip(abs(v @ ref), -1.0, 1.0))
            assert angle < 1e-6

    def test_zero_variance_columns_dropped(self):
        rng = np.random.default_rng(6)
        X = np.column_stack([rng.normal(size=30), np.full(30, 2.0),
                             rng.normal(size=30)])
        Xs, kept = standardize_columns(X)
        assert list(kept) == [0, 2]
        assert pca_lens(X).shape == (30,)

    def test_all_constant_rejected(self):
        with pytest.raises(HierfcstError):
            pca_lens(np.ones((10, 3)))


def two_blob_features(n_per=25, seed=0):
    rng = np.random.default_rng(seed)
    a = np.abs(rng.normal(loc=[1, 1, 0.5, 0.5, 0.2, 0.1, 1.5], scale=0.05,
                          size=(n_per, 7)))
    b = np.abs(rng.normal(loc=[40, 300, 3, 9, 0.6, 0.8, 11], scale=0.8,
                          size=(n_per, 7)))
    return np.vstack([a, b])


class TestMapper:
    def test_blobs_separate_into_pure_components(self):
        X = two_blob_features()
        g = mapper(X, n_intervals=6, overlap=0.3)
        assert all(max(nd.members) < 25 or min(nd.members) >= 25
                   for nd in g.nodes)
        adj = g.adjacency()
        # no edge joins the blobs
        for a, b in g.edges:
            assert (max(g.nodes[a].members) < 25) == (max(g.nodes[b].members) < 25)
        assert adj.shape[0] == len(g.nodes)

    def test_every_series_in_some_node(self):
        X = two_blob_features(seed=1)
        g = mapper(X, n_intervals=8, overlap=0.4)
        covered = set()
        for nd in g.nodes:
            covered |= set(nd.members)
        assert covered == set(range(50))

    def test_edges_iff_shared_members(self):
        X = two_blob_features(seed=2)
        g = mapper(X, n_intervals=7, overlap=0.45)
        members = [set(nd.members) for nd in g.nodes]
        edges = set(g.edges)
        for a in range(len(g.nodes)):
            for b in range(a + 1, len(g.nodes)):
                assert ((a, b) in edges) == bool(members[a] & members[b])

    def test_single_interval_is_plain_clustering(self):
        X = two_blob_features(seed=3)
        g = mapper(X, n_intervals=1, overlap=0.3)
        assert {nd.interval for nd in g.nodes} == {0}
        assert g.edges == []  # clusters of one preimage are disjoint

    def test_identical_points_single_node(self):
        X = np.tile([1.0, 2.0, 3.0], (12, 1))
        g = mapper(X, lens=np.zeros(12), n_intervals=4, overlap=0.3)
        assert len(g.nodes) == 1
        assert g.nodes[0].members == tuple(range(12))

    def test_membership_invariant_under_permutation(self):
        X = two_blob_features(seed=4)
        rng = np.random.default_rng(7)
        perm = rng.permutation(50)
        g1 = mapper(X, n_intervals=5, overlap=0.3)
        g2 = mapper(X[perm], n_intervals=5, overlap=0.3)
        sets1 = {frozenset(nd.members) for nd in g1.nodes}
        sets2 = {frozenset(int(perm[m]) for m in nd.members) for nd in g2.nodes}
        assert sets1 == sets2

    def test_parameter_guards(self):
        X = two_blob_features()
        with pytest.raises(HierfcstError):
            mapper(X, n_intervals=0)
        with pytest.raises(HierfcstError):
            mapper(X, overlap=0.0)
        with pytest.raises(HierfcstError):
            mapper(X, overlap=0.7)
        with pytest.raises(HierfcstError):
            mapper(np.empty((0, 7)))

    def test_json_deterministic(self):
        X = two_blob_features(seed=5)
        g1 = mapper(X, n_intervals=6, overlap=0.3)
        g2 = mapper(X, n_intervals=6, overlap=0.3)
        assert g1.to_json() == g2.to_json()
        payload = json.loads(g1.to_json())
        assert payload["n_series"] == 50


@st.composite
def mapper_cases(draw):
    """Feature rows with duplicates and all-zero rows, from one row up, a
    cover of 1-12 intervals with overlap in (0, 0.5], and the PCA lens or a
    drawn one with ties."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.abs(rng.lognormal(0, 1.5, size=(n, 7))) * (rng.random((n, 7)) > 0.2)
    X[rng.random(n) < 0.15] = 0.0
    dup = rng.random(n) < 0.3
    X[dup] = X[rng.integers(0, n, size=int(dup.sum()))]
    lens = draw(st.sampled_from([None, "drawn", "ties"]))
    if lens == "drawn":
        lens = rng.normal(size=n)
    elif lens == "ties":
        lens = rng.integers(0, 3, size=n).astype(float)
    return (X, lens, draw(st.integers(1, 12)),
            draw(st.floats(0.0, 0.5, exclude_min=True)))


class TestMapperMatchesDense:
    @settings(max_examples=150, deadline=None)
    @given(mapper_cases())
    def test_same_nodes_and_edges(self, case):
        X, lens, n_intervals, overlap = case
        try:
            ref = mapper_dense(X, lens, n_intervals, overlap)
        except HierfcstError:
            # the PCA lens of one row or of constant columns
            with pytest.raises(HierfcstError):
                mapper(X, lens, n_intervals, overlap)
            return
        g = mapper(X, lens, n_intervals, overlap)
        assert [(nd.node_id, nd.interval, nd.members) for nd in g.nodes] == \
            [(nd.node_id, nd.interval, nd.members) for nd in ref.nodes]
        assert g.edges == ref.edges
        assert g.n_series == ref.n_series


class TestFiedler:
    def test_path_graph_split(self):
        adj = np.zeros((4, 4))
        for a, b in [(0, 1), (1, 2), (2, 3)]:
            adj[a, b] = adj[b, a] = 1.0
        f = fiedler_vector(adj)
        ref = fiedler_dense(adj)
        np.testing.assert_allclose(f, ref, atol=1e-8)
        neg = {i for i in range(4) if f[i] < 0}
        assert neg in ({0, 1}, {2, 3})

    def test_matches_dense_oracle_on_random_graphs(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = 8
            adj = np.zeros((n, n))
            # random connected graph: a path plus random extra edges
            for i in range(n - 1):
                adj[i, i + 1] = adj[i + 1, i] = 1.0
            for _ in range(5):
                a, b = rng.integers(0, n, size=2)
                if a != b:
                    adj[a, b] = adj[b, a] = 1.0
            f = fiedler_vector(adj)
            ref = fiedler_dense(adj)
            L = np.diag(adj.sum(1)) - adj
            lam_f = f @ L @ f
            lam_ref = ref @ L @ ref
            assert lam_f == pytest.approx(lam_ref, abs=1e-6)

    def test_symmetric_path_sign_rule(self):
        # A 7-node path is mirror-symmetric: |f[0]| == |f[6]| and the middle
        # entry is zero up to rounding, which the sign rule makes exact.
        adj = np.zeros((7, 7))
        for a in range(6):
            adj[a, a + 1] = adj[a + 1, a] = 1.0
        f = fiedler_vector(adj)
        assert f[3] == 0.0
        assert f[0] > 0
        L = np.diag(adj.sum(1)) - adj
        lam = f @ L @ f
        assert lam == pytest.approx(np.linalg.eigvalsh(L)[1], abs=1e-12)
        np.testing.assert_allclose(L @ f, lam * f, atol=1e-12)

    def test_two_node_split(self):
        graph = MapperGraph(
            nodes=[_node(0, (0, 1, 2)), _node(1, (3, 4, 5))],
            edges=[(0, 1)], n_series=6)
        parts = fiedler_partition(graph, min_cluster_size=3)
        assert parts[0] != parts[1]

    def test_threshold_blocks_split(self):
        graph = MapperGraph(
            nodes=[_node(0, (0, 1, 2)), _node(1, (3, 4, 5))],
            edges=[(0, 1)], n_series=6)
        parts = fiedler_partition(graph, min_cluster_size=4)
        assert parts[0] == parts[1]

    def test_disconnected_components_partition_independently(self):
        # two disjoint 2-node chains: same splits as running per component
        graph = MapperGraph(
            nodes=[_node(0, (0, 1)), _node(1, (2, 3)),
                   _node(2, (4, 5)), _node(3, (6, 7))],
            edges=[(0, 1), (2, 3)], n_series=8)
        parts = fiedler_partition(graph, min_cluster_size=2)
        assert parts[0] != parts[1] and parts[2] != parts[3]
        assert {parts[0], parts[1]} & {parts[2], parts[3]} == set()


def _node(node_id, members):
    from hierfcst.tda import MapperNode
    return MapperNode(node_id=node_id, interval=0, members=tuple(members))


class TestLabelAndRoute:
    def _fitted(self, labels, seed=9):
        X = two_blob_features(seed=seed)
        g = mapper(X, n_intervals=6, overlap=0.3)
        fiedler_partition(g, min_cluster_size=3)
        return X, g, label_and_route(g, X, labels)

    def test_single_label_everywhere(self):
        X, g, sel = self._fitted(["only"] * 50)
        assert all(nd.label == "only" for nd in g.nodes)
        assert sel.route_features(X[7]) == "only"
        assert sel.route_features([9.9] * 7) == "only"

    def test_self_routing_k1(self):
        labels = ["A"] * 25 + ["B"] * 25
        X = two_blob_features(seed=10)
        g = mapper(X, n_intervals=6, overlap=0.3)
        fiedler_partition(g, min_cluster_size=3)
        sel = label_and_route(g, X, labels, k=1)
        for i in (0, 12, 30, 49):
            assert sel.route_features(X[i]) == sel.series_labels[i]

    def test_unlabeled_series_rejected(self):
        X = two_blob_features(seed=11)
        g = mapper(X, n_intervals=6, overlap=0.3)
        fiedler_partition(g, min_cluster_size=3)
        with pytest.raises(HierfcstError):
            label_and_route(g, X, ["A"] * 49 + [None])
        with pytest.raises(HierfcstError):
            label_and_route(g, X, ["A"] * 10)

    def test_requires_partition(self):
        X = two_blob_features(seed=12)
        g = mapper(X, n_intervals=6, overlap=0.3)
        with pytest.raises(HierfcstError):
            label_and_route(g, X, ["A"] * 50)

    def test_purity_and_shares(self):
        labels = ["A"] * 25 + ["B"] * 25
        X, g, sel = self._fitted(labels, seed=13)
        assert all(nd.purity == 1.0 for nd in g.nodes)  # blobs never mix
        shares = sel.cluster_shares()
        assert sum(shares.values()) == pytest.approx(100.0)

    def test_default_k(self):
        assert DEFAULT_KNN == 5

    def test_wrong_length_features_rejected(self):
        X, g, sel = self._fitted(["A"] * 50, seed=14)
        with pytest.raises(HierfcstError, match="5 vs 7"):
            sel.route_features(X[0][:5])
