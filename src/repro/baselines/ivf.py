"""IVF-Flat with filtering — the Milvus-family comparator.

Milvus's strongest configurations in the ACORN paper's figures are IVF
variants (§7.2).  IVF-Flat partitions the dataset with k-means, probes
the ``nprobe`` nearest centroids at query time, and — in the
hybrid-search configuration — applies the predicate bitmap to the
probed candidates before ranking (the "approved list" filtering Milvus
performs, §8).  Like all space-partitioning post-filters it degrades
when passing points live outside the probed cells.
"""

from __future__ import annotations

import numpy as np

from repro.attributes.table import AttributeTable
from repro.engine.batching import BatchSearchMixin
from repro.hnsw.hnsw import SearchResult
from repro.predicates.base import CompiledPredicate, Predicate
from repro.utils.rng import default_rng
from repro.vectors.distance import Metric, pairwise_distances
from repro.vectors.store import VectorStore


def kmeans(
    vectors: np.ndarray,
    n_clusters: int,
    n_iter: int = 10,
    seed: int | np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means; returns (centroids, assignments).

    Plain and deterministic given a seed — enough fidelity for an IVF
    coarse quantizer.  Empty clusters are re-seeded from the farthest
    points of the largest cluster.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    n = vectors.shape[0]
    if n_clusters <= 0:
        raise ValueError(f"n_clusters must be positive, got {n_clusters}")
    n_clusters = min(n_clusters, n)
    rng = default_rng(seed)
    centroids = vectors[rng.choice(n, size=n_clusters, replace=False)].copy()
    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(n_iter):
        dists = pairwise_distances(centroids, vectors)
        assignments = np.argmin(dists, axis=1)
        for cluster in range(n_clusters):
            members = assignments == cluster
            if members.any():
                centroids[cluster] = vectors[members].mean(axis=0)
            else:
                biggest = np.bincount(assignments, minlength=n_clusters).argmax()
                pool = np.flatnonzero(assignments == biggest)
                far = pool[np.argmax(dists[pool, biggest])]
                centroids[cluster] = vectors[far]
    return centroids, assignments


class IvfFlatIndex(BatchSearchMixin):
    """Inverted-file index with exact in-cell distances.

    Args:
        vectors: base matrix (n, d).
        table: attributes aligned with ``vectors``.
        n_clusters: number of IVF cells (defaults to ``sqrt(n)``).
        metric: distance metric.
    """

    def __init__(
        self,
        vectors: np.ndarray,
        table: AttributeTable,
        n_clusters: int | None = None,
        metric: "Metric | str" = Metric.L2,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if len(table) != vectors.shape[0]:
            raise ValueError(
                f"table has {len(table)} rows but got {vectors.shape[0]} vectors"
            )
        self.store = VectorStore.from_array(vectors, metric=metric)
        self.table = table
        n = vectors.shape[0]
        if n_clusters is None:
            n_clusters = max(1, int(np.sqrt(n)))
        self.centroids, assignments = kmeans(vectors, n_clusters, seed=seed)
        self.cells: list[np.ndarray] = [
            np.flatnonzero(assignments == c) for c in range(self.centroids.shape[0])
        ]

    def __len__(self) -> int:
        return len(self.store)

    @property
    def n_clusters(self) -> int:
        """Number of IVF cells."""
        return self.centroids.shape[0]

    def search(
        self,
        query: np.ndarray,
        predicate: "Predicate | CompiledPredicate",
        k: int,
        ef_search: int = 64,
        nprobe: int | None = None,
    ) -> SearchResult:
        """Probe cells, filter candidates by the predicate, rank exactly.

        ``nprobe`` defaults to a value derived from ``ef_search`` so the
        harness can sweep one knob across all methods.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if nprobe is None:
            # Map the harness's ef knob onto a probe count: ef=64 on a
            # sqrt(n)-cell index probes ~ 1/8th of the cells.
            nprobe = max(1, min(self.n_clusters, ef_search * self.n_clusters // 512))
        compiled = (
            predicate
            if isinstance(predicate, CompiledPredicate)
            else predicate.compile(self.table)
        )
        computer = self.store.computer()
        query = computer.set_query(query)
        cell_dists = pairwise_distances(self.centroids, query, metric=self.store.metric)[0]
        probe = np.argsort(cell_dists)[:nprobe]
        candidates = (
            np.concatenate([self.cells[c] for c in probe])
            if probe.size
            else np.empty(0, dtype=np.int64)
        )
        candidates = candidates[compiled.mask[candidates]]
        if candidates.size == 0:
            return SearchResult.empty(computer.count)
        dists = self._candidate_distances(computer, query, candidates)
        take = min(k, candidates.size)
        order = np.argpartition(dists, take - 1)[:take]
        order = order[np.argsort(dists[order])]
        return SearchResult(
            ids=candidates[order].astype(np.intp), distances=dists[order],
            distance_computations=computer.count,
        )

    def _candidate_distances(
        self, computer, query: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        """Exact distances for the probed candidates (flat storage)."""
        return computer.distances_to(query, candidates)

    def nbytes(self) -> int:
        """Vector payload + centroid table + cell lists."""
        return (
            self.store.nbytes()
            + self.centroids.nbytes
            + sum(cell.nbytes for cell in self.cells)
        )


class IvfSq8Index(IvfFlatIndex):
    """IVF with SQ8-compressed cell storage (the Milvus IVF-SQ8 config).

    Probed candidates are ranked by asymmetric distance against their
    8-bit codes; quantization distortion trades a little recall for a
    4x smaller vector payload.
    """

    def __init__(self, vectors, table, n_clusters=None,
                 metric: "Metric | str" = Metric.L2, seed=None) -> None:
        super().__init__(vectors, table, n_clusters=n_clusters, metric=metric,
                         seed=seed)
        from repro.vectors.quantization import ScalarQuantizer

        self._quantizer = ScalarQuantizer(self.store.vectors)
        self._codes = self._quantizer.encode(self.store.vectors)

    def _candidate_distances(self, computer, query, candidates):
        # Counted like exact distances: each candidate costs one
        # (approximate) distance evaluation.
        computer.add_count(candidates.size)
        return self._quantizer.distances(query, self._codes[candidates])

    def nbytes(self) -> int:
        """Compressed payload + centroid table + cell lists."""
        return (
            self._quantizer.code_nbytes(len(self.store))
            + self.centroids.nbytes
            + sum(cell.nbytes for cell in self.cells)
        )


class IvfPqIndex(IvfFlatIndex):
    """IVF with product-quantized cell storage (the Milvus IVF-PQ config).

    Args:
        n_subspaces: PQ subspaces (must divide the dimensionality).
        n_centroids: codewords per subspace (<= 256).
    """

    def __init__(self, vectors, table, n_clusters=None, n_subspaces=8,
                 n_centroids=64, metric: "Metric | str" = Metric.L2,
                 seed=None) -> None:
        super().__init__(vectors, table, n_clusters=n_clusters, metric=metric,
                         seed=seed)
        from repro.vectors.quantization import ProductQuantizer

        self._quantizer = ProductQuantizer(
            self.store.vectors, n_subspaces=n_subspaces,
            n_centroids=n_centroids, seed=seed,
        )
        self._codes = self._quantizer.encode(self.store.vectors)

    def _candidate_distances(self, computer, query, candidates):
        computer.add_count(candidates.size)
        return self._quantizer.distances(query, self._codes[candidates])

    def nbytes(self) -> int:
        """PQ codes + codebooks + centroid table + cell lists."""
        codebooks = sum(c.nbytes for c in self._quantizer.codebooks)
        return (
            self._quantizer.code_nbytes(len(self.store))
            + codebooks
            + self.centroids.nbytes
            + sum(cell.nbytes for cell in self.cells)
        )
