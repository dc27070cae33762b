"""The clustered ANN index: layout invariants, exactness, recall gates."""

import numpy as np
import pytest

from repro.retrieval.index import ClusteredANNIndex, kmeans


def clustered_catalog(n_items, dim, n_true=12, noise=0.05, seed=0):
    """A synthetic catalog with genuine cluster structure."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, (n_true, dim))
    labels = rng.integers(0, n_true, n_items)
    vectors = centers[labels] + rng.normal(0.0, noise, (n_items, dim))
    return [f"item-{i}" for i in range(n_items)], vectors


def brute_topk(vectors, ids, query, k):
    scores = vectors @ query
    order = np.argsort(-scores, kind="stable")[:k]
    return [ids[int(i)] for i in order]


class TestKMeans:
    def test_deterministic_for_fixed_seed(self):
        __, vectors = clustered_catalog(400, 8)
        c1, l1 = kmeans(vectors, 10, seed=3)
        c2, l2 = kmeans(vectors, 10, seed=3)
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(l1, l2)

    def test_labels_are_nearest_centers(self):
        __, vectors = clustered_catalog(300, 6)
        centers, labels = kmeans(vectors, 8, seed=1)
        dists = (
            np.linalg.norm(vectors[:, None, :] - centers[None], axis=2) ** 2
        )
        np.testing.assert_array_equal(labels, np.argmin(dists, axis=1))

    def test_subsampled_training_still_assigns_every_point(self):
        __, vectors = clustered_catalog(2000, 4)
        centers, labels = kmeans(vectors, 16, seed=0, train_sample=256)
        assert len(labels) == 2000
        assert centers.shape == (16, 4)

    def test_rejects_bad_cluster_counts(self):
        __, vectors = clustered_catalog(10, 4)
        with pytest.raises(ValueError, match="n_clusters"):
            kmeans(vectors, 11)
        with pytest.raises(ValueError, match="n_clusters"):
            kmeans(vectors, 0)


class TestIndexLayout:
    def test_pages_are_contiguous_cluster_major_and_read_only(self):
        ids, vectors = clustered_catalog(500, 8)
        index = ClusteredANNIndex.build(ids, vectors, seed=2)
        assert not index.pages.flags.writeable
        assert not index.centroids.flags.writeable
        assert index.pages.flags.c_contiguous
        assert index.pages.dtype == np.float32
        # offsets partition the catalog exactly
        assert index.offsets[0] == 0 and index.offsets[-1] == len(ids)
        assert (np.diff(index.offsets) >= 0).all()
        # every input row appears exactly once, in some page slot
        assert sorted(index.item_ids) == sorted(ids)
        originals = {item: vectors[i] for i, item in enumerate(ids)}
        for row, item in enumerate(index.item_ids):
            np.testing.assert_array_equal(
                index.pages[row], originals[item].astype(np.float32)
            )

    def test_default_cluster_count_is_sqrt_n(self):
        ids, vectors = clustered_catalog(900, 4)
        index = ClusteredANNIndex.build(ids, vectors)
        assert index.n_clusters == 30

    def test_build_validations(self):
        with pytest.raises(ValueError, match="empty"):
            ClusteredANNIndex.build([], np.zeros((0, 4)))
        with pytest.raises(ValueError, match="does not match"):
            ClusteredANNIndex.build(["a"], np.zeros((2, 4)))

    def test_membership_and_coverage(self):
        ids, vectors = clustered_catalog(100, 4)
        index = ClusteredANNIndex.build(ids, vectors)
        assert "item-0" in index and "missing" not in index
        assert index.coverage(["item-1", "missing", "item-2"]) == 2
        assert index.mask_rows(["item-1", "missing"]) is None
        rows = index.mask_rows(["item-3", "item-7"])
        assert [index.item_ids[int(r)] for r in rows] == ["item-3", "item-7"]


class TestSearch:
    def test_exact_topk_matches_brute_force(self):
        ids, vectors = clustered_catalog(600, 8, seed=4)
        index = ClusteredANNIndex.build(ids, vectors, seed=4)
        rng = np.random.default_rng(9)
        for __ in range(5):
            query = rng.normal(0.0, 1.0, 8)
            assert index.exact_topk(query, 10) == brute_topk(
                index.pages, list(index.item_ids), query, 10
            )

    def test_probing_all_clusters_is_exact(self):
        ids, vectors = clustered_catalog(300, 6, seed=5)
        index = ClusteredANNIndex.build(ids, vectors, seed=5)
        query = np.random.default_rng(1).normal(0.0, 1.0, 6)
        assert index.search(
            query, 15, n_probe=index.n_clusters
        ) == index.exact_topk(query, 15)

    def test_recall_at_k_on_clustered_catalog(self):
        """The ISSUE gate: recall@k >= 0.95 on clustered synthetic data."""
        ids, vectors = clustered_catalog(5000, 16, n_true=25, seed=6)
        index = ClusteredANNIndex.build(ids, vectors, seed=6)
        rng = np.random.default_rng(2)
        hits = total = 0
        for __ in range(20):
            query = rng.normal(0.0, 1.0, 16)
            exact = set(index.exact_topk(query, 10))
            approx = set(index.search(query, 10, n_probe=8))
            hits += len(exact & approx)
            total += 10
        assert hits / total >= 0.95

    def test_allowed_rows_restricts_exactly(self):
        ids, vectors = clustered_catalog(200, 4, seed=7)
        index = ClusteredANNIndex.build(ids, vectors, seed=7)
        subset = [f"item-{i}" for i in range(0, 200, 3)]
        rows = index.mask_rows(subset)
        query = np.random.default_rng(3).normal(0.0, 1.0, 4)
        got = index.search(query, 5, allowed_rows=rows)
        sub_vectors = np.vstack([vectors[int(s.split("-")[1])] for s in subset])
        assert got == brute_topk(sub_vectors, subset, query, 5)
        assert set(got) <= set(subset)

    def test_every_path_ranks_by_the_float32_page_score(self):
        # 1 + 1e-9 is 1.0 in float32: the rows tie there (and break by
        # row) while a float64 score would put the second row first
        index = ClusteredANNIndex(
            ["first", "second"], np.asarray([[1.0, 0.0], [1.0, 1e-9]]),
            np.asarray([0, 2]), np.asarray([[1.0, 0.0]]),
        )
        query = np.ones(2)
        assert index.exact_topk(query, 1) == ["first"]
        assert index.search(query, 1, n_probe=1) == ["first"]
        assert index.search(query, 2, allowed_rows=np.asarray([0, 1])) == ["first", "second"]

    def test_k_larger_than_catalog_returns_everything_ranked(self):
        ids, vectors = clustered_catalog(30, 4, seed=8)
        index = ClusteredANNIndex.build(ids, vectors, seed=8)
        query = np.ones(4)
        got = index.search(query, 100, n_probe=index.n_clusters)
        assert sorted(got) == sorted(ids)

    def test_dimension_mismatch_raises(self):
        ids, vectors = clustered_catalog(50, 4)
        index = ClusteredANNIndex.build(ids, vectors)
        with pytest.raises(ValueError, match="dim"):
            index.search(np.ones(5), 3)
