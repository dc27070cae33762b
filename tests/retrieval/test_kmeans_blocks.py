"""The blocked k-means kernel: bit-equal to the unblocked formula, in
bounded memory.

``repro.retrieval.index`` assigns points to centers in blocks of
``_ASSIGN_CELLS`` distances, built in place, with row norms computed
once per point set.  The reference below computes each distance matrix
whole, with the textbook expression; it lives here only, as the oracle
every label, center and built page must match bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from repro.retrieval import index as index_module
from repro.retrieval.index import ClusteredANNIndex, kmeans


def reference_sq_dists(points, centers):
    cross = points @ centers.T
    return (
        np.einsum("ij,ij->i", points, points)[:, None]
        - 2.0 * cross
        + np.einsum("ij,ij->i", centers, centers)[None, :]
    )


def reference_kmeans(points, n_clusters, *, n_iter=10, seed=0, train_sample=None):
    """Lloyd's k-means with k-means++ init over whole-set distance matrices."""
    points = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    n = len(points)
    rng = np.random.default_rng(seed)
    if train_sample is None:
        train_sample = max(n_clusters * 64, 1024)
    if n > train_sample:
        train = points[rng.choice(n, size=train_sample, replace=False)]
    else:
        train = points
    centers = np.empty((n_clusters, train.shape[1]))
    centers[0] = train[rng.integers(len(train))]
    d2 = reference_sq_dists(train, centers[:1])[:, 0]
    for j in range(1, n_clusters):
        total = float(d2.sum())
        if total <= 0.0:
            centers[j:] = train[rng.integers(len(train), size=n_clusters - j)]
            break
        probs = np.maximum(d2, 0.0) / total
        centers[j] = train[rng.choice(len(train), p=probs)]
        d2 = np.minimum(d2, reference_sq_dists(train, centers[j:j + 1])[:, 0])
    for __ in range(n_iter):
        labels = np.argmin(reference_sq_dists(train, centers), axis=1)
        counts = np.bincount(labels, minlength=n_clusters).astype(np.float64)
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, train)
        occupied = counts > 0
        centers[occupied] = sums[occupied] / counts[occupied, None]
    return centers, np.argmin(reference_sq_dists(points, centers), axis=1)


def catalog(n, dim, seed):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, (16, dim))
    return centers[rng.integers(0, 16, n)] + rng.normal(0.0, 0.3, (n, dim))


BLOCK = index_module._ASSIGN_CELLS // 64  # rows per block at 64 centers

#: (n points, n clusters): below one block, an exact multiple of the
#: block, one row past a multiple, a single cluster, one point per cluster
SHAPES = {
    "below-one-block": (BLOCK // 2 + 3, 64),
    "exact-multiple": (2 * BLOCK, 64),
    "one-past-a-multiple": (2 * BLOCK + 1, 64),
    "one-cluster": (BLOCK + 1, 1),
    "a-cluster-per-point": (300, 300),
}


@pytest.fixture(params=["module-budget", "tiny-budget"])
def budget(request, monkeypatch):
    """The module's block budget, and one so small that every shape
    crosses many block boundaries."""
    if request.param == "tiny-budget":
        monkeypatch.setattr(index_module, "_ASSIGN_CELLS", 7 * 64 + 5)
    return request.param


@pytest.mark.parametrize("shape", list(SHAPES))
def test_kmeans_matches_the_unblocked_reference(budget, shape):
    n, k = SHAPES[shape]
    points = catalog(n, 12, seed=n)
    # every point trains, so the Lloyd loop assigns across blocks too
    centers, labels = kmeans(points, k, seed=5, train_sample=n)
    ref_centers, ref_labels = reference_kmeans(points, k, seed=5, train_sample=n)
    np.testing.assert_array_equal(labels, ref_labels)
    np.testing.assert_array_equal(centers, ref_centers)
    # and with the default training sample, as a build runs it
    centers, labels = kmeans(points, k, seed=6)
    ref_centers, ref_labels = reference_kmeans(points, k, seed=6)
    np.testing.assert_array_equal(labels, ref_labels)
    np.testing.assert_array_equal(centers, ref_centers)


@pytest.mark.parametrize("shape", list(SHAPES))
def test_build_matches_the_unblocked_reference(monkeypatch, budget, shape):
    n, k = SHAPES[shape]
    vectors = catalog(n, 27, seed=n + 1)
    ids = [f"item-{i}" for i in range(n)]
    built = ClusteredANNIndex.build(ids, vectors, n_clusters=k, seed=3)
    monkeypatch.setattr(index_module, "kmeans", reference_kmeans)
    reference = ClusteredANNIndex.build(ids, vectors, n_clusters=k, seed=3)
    np.testing.assert_array_equal(built.pages, reference.pages)
    np.testing.assert_array_equal(built.offsets, reference.offsets)
    np.testing.assert_array_equal(built.centroids, reference.centroids)
    assert built.item_ids == reference.item_ids


@pytest.mark.parametrize("n,k", [(1, 1), (37, 5), (BLOCK + 1, 64), (500, 253)])
def test_in_place_distances_are_bit_equal(n, k):
    rng = np.random.default_rng(n * k)
    points = rng.normal(0.0, 3.0, (n, 27))
    centers = rng.normal(0.0, 3.0, (k, 27))
    got = index_module._sq_dists(
        points, index_module._row_norms(points),
        centers, index_module._row_norms(centers),
    )
    np.testing.assert_array_equal(got, reference_sq_dists(points, centers))


def test_index_build_peak_memory_is_bounded():
    """A 20,000 x 27 build stays far below a few catalog-sized distance
    matrices (141 centers x 20,000 rows of float64 is 22.6 MB each);
    numpy reports its buffers to tracemalloc, so the bound does not
    depend on the host.  The pages are gathered into float32 in blocks
    (4.4 MiB); float64 pages peaked at 6.2 MiB, and a float64 gather of
    the permuted catalog cast to float32 afterwards at 6.5 MiB."""
    vectors = catalog(20_000, 27, seed=11)
    ids = list(range(20_000))
    tracemalloc.start()
    try:
        ClusteredANNIndex.build(ids, vectors, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20, f"build peaked at {peak / 2**20:.1f} MiB"
    assert peak < 5.5 * 2**20, f"build peaked at {peak / 2**20:.2f} MiB"
