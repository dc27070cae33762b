"""The pure-numpy clustered ANN index (IVF-style coarse quantization).

Layout follows the classic inverted-file design: a k-means coarse
quantizer partitions the item embeddings into clusters, and each
cluster's member vectors are rewritten into one *contiguous page* of a
single backing matrix (plus a parallel id page), so probing a cluster is
a dense ``page @ query`` matmul over rows that sit next to each other in
memory — no gather, no fancy indexing on the hot path.

Search is multi-probe maximum inner product: rank clusters by
``centroid · query``, scan the ``n_probe`` best pages into one score
buffer, take its global top-``k``.  Inner product (not L2) is
the right metric here because the embedding layout folds biases and
context affinities into extra coordinates (see
:mod:`repro.retrieval.embeddings`) — the retrieval score is then exactly
a first-order proxy of the served ranking score.

Everything in this module is immutable after :meth:`ClusteredANNIndex.
build`: pages, centroids and offsets are read-only arrays, so a built
index can be shared across serving threads and swapped atomically (see
:mod:`repro.retrieval.retriever`) without any locking on the read path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.interned import InternedIds
from repro.serving.scorer import ItemId


#: cells (points x centers) of one float64 distance block: 2**18 cells
#: is 2 MiB, about 1,000 rows against the 253 centers of a 64k catalog.
#: k-means time is flat from 2**16 to 2**21 cells and grows outside that
#: range (measured on 64k x 27 and 250k x 16); the peak grows with it
_ASSIGN_CELLS = 1 << 18


def _row_norms(points: np.ndarray) -> np.ndarray:
    """``|x|^2`` per row, computed once per point set."""
    return np.einsum("ij,ij->i", points, points)


def _sq_dists(
    points: np.ndarray,
    point_norms: np.ndarray,
    centers: np.ndarray,
    center_norms: np.ndarray,
) -> np.ndarray:
    """Squared L2 distances ``(n_points, n_centers)`` via the expansion.

    ``|x - c|^2 = |x|^2 - 2 x·c + |c|^2``, built in place in the cross
    product's own buffer: the same IEEE operations in the same order as
    ``|x|^2 - 2.0 * (x @ c.T) + |c|^2`` (negating is exact, and ``a - b``
    is ``a + (-b)``), so every distance is bit-equal to that expression
    while only one block is ever alive.  ``|x|^2`` is rank-constant per
    row, but k-means++ samples by the true distance, so it is kept.
    """
    out = points @ centers.T
    out *= -2.0
    out += point_norms[:, None]
    out += center_norms[None, :]
    return out


def _assign_chunked(
    points: np.ndarray, point_norms: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Nearest-center assignment in blocks of :data:`_ASSIGN_CELLS`
    distances, so peak memory does not grow with the point count."""
    n = len(points)
    center_norms = _row_norms(centers)
    rows = max(1, _ASSIGN_CELLS // max(1, len(centers)))
    out = np.empty(n, dtype=np.int64)
    for start in range(0, n, rows):
        stop = min(n, start + rows)
        out[start:stop] = np.argmin(
            _sq_dists(
                points[start:stop], point_norms[start:stop],
                centers, center_norms,
            ),
            axis=1,
        )
    return out


def _kmeans_pp_init(
    points: np.ndarray,
    point_norms: np.ndarray,
    n_clusters: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """k-means++ seeding: spread initial centers by D² sampling."""
    n = len(points)
    centers = np.empty((n_clusters, points.shape[1]))
    centers[0] = points[rng.integers(n)]

    def sq_dists_to(j: int) -> np.ndarray:
        center = centers[j:j + 1]
        return _sq_dists(points, point_norms, center, _row_norms(center))[:, 0]

    # squared distance to the nearest chosen center, updated incrementally
    d2 = sq_dists_to(0)
    for j in range(1, n_clusters):
        total = float(d2.sum())
        if total <= 0.0:
            # all remaining points coincide with a center: fill uniformly
            centers[j:] = points[rng.integers(n, size=n_clusters - j)]
            break
        probs = np.maximum(d2, 0.0) / total
        centers[j] = points[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, sq_dists_to(j))
    return centers


def kmeans(
    points: np.ndarray,
    n_clusters: int,
    *,
    n_iter: int = 10,
    seed: int = 0,
    train_sample: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means with k-means++ init; returns ``(centers, labels)``.

    ``train_sample`` bounds the number of points the Lloyd iterations see
    (faiss convention: ~64 training points per centroid is plenty for a
    coarse quantizer); the final labels are always a full assignment of
    every input point against the trained centers.  Every assignment
    runs in blocks of at most :data:`_ASSIGN_CELLS` distances and each
    point set's row norms are computed once, so beyond its inputs and
    outputs a build holds one distance block, whatever the catalog size.
    Deterministic for a fixed ``seed``.
    """
    points = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    n = len(points)
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    rng = np.random.default_rng(seed)
    if train_sample is None:
        train_sample = max(n_clusters * 64, 1024)
    if n > train_sample:
        train = points[rng.choice(n, size=train_sample, replace=False)]
    else:
        train = points
    train_norms = _row_norms(train)
    centers = _kmeans_pp_init(train, train_norms, n_clusters, rng)
    for __ in range(n_iter):
        labels = _assign_chunked(train, train_norms, centers)
        # vectorized center update: sum members per cluster, keep empty
        # clusters where they were (they can re-acquire members later)
        counts = np.bincount(labels, minlength=n_clusters).astype(np.float64)
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, train)
        occupied = counts > 0
        centers[occupied] = sums[occupied] / counts[occupied, None]
    full_labels = _assign_chunked(points, _row_norms(points), centers)
    return centers, full_labels


class ClusteredANNIndex:
    """Immutable clustered index over item embeddings (built, never edited).

    Attributes
    ----------
    item_ids:
        Tuple of indexed item ids, in page order (cluster-major); Python
        scalars however the builder spelled them.
    ids:
        The same ids as a read-only vector (``int64`` when every id is a
        Python ``int``, else ``object``): page rows gather from it.
    pages:
        ``(n_items, dim)`` float64 matrix, rows grouped so each
        cluster's members are one contiguous slice; read-only.
    offsets:
        ``(n_clusters + 1,)`` page boundaries: cluster ``c`` owns rows
        ``offsets[c]:offsets[c + 1]``.
    centroids:
        ``(n_clusters, dim)`` cluster centers, read-only.
    """

    __slots__ = (
        "item_ids", "ids", "pages", "offsets", "centroids", "_positions",
        "_bounds", "dim",
    )

    def __init__(
        self,
        item_ids: Sequence[ItemId],
        pages: np.ndarray,
        offsets: np.ndarray,
        centroids: np.ndarray,
    ) -> None:
        interned = InternedIds(item_ids)
        ids = interned.vector
        if ids is None:
            ids = np.fromiter(interned, dtype=object, count=len(interned))
            ids.setflags(write=False)
        self.item_ids = tuple(interned)
        self.ids = ids
        self.pages = pages
        self.offsets = offsets
        self.centroids = centroids
        self.dim = int(pages.shape[1]) if pages.size else int(pages.shape[-1])
        self._positions = {item: row for row, item in enumerate(self.item_ids)}
        #: page boundaries as Python ints, read once
        self._bounds: list[int] = offsets.tolist()

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        item_ids: Sequence[ItemId],
        vectors: np.ndarray,
        *,
        n_clusters: int | None = None,
        n_iter: int = 10,
        seed: int = 0,
    ) -> "ClusteredANNIndex":
        """Cluster ``vectors`` and lay them out as contiguous pages.

        ``n_clusters`` defaults to ``≈ sqrt(n_items)`` (the standard IVF
        sizing: probe cost and page cost balance at the square root).
        Rows are permuted cluster-major with a *stable* sort, so members
        keep their relative input order inside each page — build is
        deterministic for fixed inputs.
        """
        vectors = np.ascontiguousarray(np.asarray(vectors, dtype=np.float64))
        if vectors.ndim != 2 or len(vectors) != len(item_ids):
            raise ValueError(
                f"vectors shape {vectors.shape} does not match "
                f"{len(item_ids)} item ids"
            )
        n = len(item_ids)
        if n == 0:
            raise ValueError("cannot build an index over an empty catalog")
        if n_clusters is None:
            n_clusters = max(1, int(round(float(np.sqrt(n)))))
        n_clusters = min(n_clusters, n)
        centroids, labels = kmeans(
            vectors, n_clusters, n_iter=n_iter, seed=seed
        )
        order = np.argsort(labels, kind="stable")
        counts = np.bincount(labels, minlength=n_clusters)
        offsets = np.zeros(n_clusters + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        pages = np.ascontiguousarray(vectors[order])
        pages.setflags(write=False)
        centroids.setflags(write=False)
        offsets.setflags(write=False)
        ids = [item_ids[row] for row in order.tolist()]
        return cls(ids, pages, offsets, centroids)

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.item_ids)

    @property
    def n_clusters(self) -> int:
        return len(self.centroids)

    def __contains__(self, item: object) -> bool:
        return item in self._positions

    def coverage(self, items: Sequence[ItemId]) -> int:
        """How many of ``items`` this index knows about."""
        positions = self._positions
        return sum(1 for item in items if item in positions)

    def mask_rows(self, items: Sequence[ItemId]) -> np.ndarray | None:
        """Page-row indices of ``items`` — or ``None`` if any is unknown.

        Used to restrict a search to an explicit candidate list; a
        single unknown item means the index cannot cover the request and
        the caller must fall back to the exact scan.
        """
        positions = self._positions
        rows = np.empty(len(items), dtype=np.int64)
        for i, item in enumerate(items):
            row = positions.get(item)
            if row is None:
                return None
            rows[i] = row
        return rows

    # -- search ------------------------------------------------------------

    def search_rows(
        self,
        query: np.ndarray,
        k: int,
        *,
        n_probe: int = 8,
        allowed_rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Page rows of the top-``k`` vectors by inner product, best first.

        Probes the ``n_probe`` clusters whose centroids score highest
        against ``query`` and exact-scans their pages into one buffer;
        page rows are recovered for the ``k`` survivors only.  With
        ``allowed_rows`` the scan is restricted to those page rows
        (cluster structure is ignored — the restriction is already a
        candidate set, so a single dense pass over it is the cheapest
        exact answer).
        """
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        if query.shape[0] != self.dim:
            raise ValueError(
                f"query dim {query.shape[0]} != index dim {self.dim}"
            )
        if allowed_rows is not None:
            scores = self.pages[allowed_rows] @ query
            return allowed_rows[_topk_desc(scores, min(k, len(scores)))]
        n_probe = max(1, min(int(n_probe), self.n_clusters))
        probe = _topk_desc(self.centroids @ query, n_probe).tolist()
        bounds, pages = self._bounds, self.pages
        # ends[j]: buffer cells used once probed cluster j is scanned
        ends = np.cumsum([bounds[c + 1] - bounds[c] for c in probe])
        scores = np.empty(ends[-1])
        at = 0
        for c, end in zip(probe, ends.tolist()):
            if end > at:
                np.dot(pages[bounds[c]:bounds[c + 1]], query, out=scores[at:end])
                at = end
        top = _topk_desc(scores, min(k, len(scores)))
        # buffer cell -> page row: by its cluster's page end minus buffer end
        shift = np.asarray([bounds[c + 1] for c in probe]) - ends
        return top + shift[ends.searchsorted(top, side="right")]

    def search(
        self,
        query: np.ndarray,
        k: int,
        *,
        n_probe: int = 8,
        allowed_rows: np.ndarray | None = None,
    ) -> list[ItemId]:
        """:meth:`search_rows` as item ids (Python scalars), best first."""
        rows = self.search_rows(query, k, n_probe=n_probe, allowed_rows=allowed_rows)
        return self.ids[rows].tolist()

    def exact_topk(self, query: np.ndarray, k: int) -> list[ItemId]:
        """Exact top-``k`` over every indexed vector (recall baseline)."""
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        scores = self.pages @ query
        return self.ids[_topk_desc(scores, min(k, len(scores)))].tolist()


def _topk_desc(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores, in descending score order.

    ``argpartition`` keeps the select O(n); only the k survivors pay the
    O(k log k) sort.  Ties break by index, so results are deterministic.
    """
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if k >= len(scores):
        return np.argsort(-scores, kind="stable")
    part = np.argpartition(-scores, k - 1)[:k]
    return part[np.argsort(-scores[part], kind="stable")]
