"""NHQ: fusion-distance proximity graph — LCPS comparator.

NHQ (paper [63], "Navigable Proximity Graph-Driven Native Hybrid
Queries") encodes the single structured attribute alongside the vector
and searches a proximity graph with a *fusion distance*:

    d_f(u, v) = d(x_u, x_v) + w · [attr_u != attr_v]

so attribute mismatches repel candidates during routing instead of
being filtered.  It supports exactly one attribute per entity and
equality predicates only — the semantic ceiling the ACORN paper
contrasts against.  We build the navigable graph as a fused-distance
KNN graph (the KGraph variant the paper reports as stronger) and search
it with best-first beam search under the fusion distance.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.attributes.table import AttributeTable
from repro.engine.batching import BatchSearchMixin
from repro.baselines.vamana_common import extract_equality_label
from repro.hnsw.hnsw import SearchResult
from repro.predicates.base import CompiledPredicate, Predicate
from repro.utils.rng import default_rng
from repro.vectors.distance import Metric, pairwise_distances
from repro.vectors.store import VectorStore


class NhqIndex(BatchSearchMixin):
    """Fusion-distance KNN graph over vectors plus one equality attribute.

    Args:
        vectors: base matrix (n, d).
        table: attributes aligned with ``vectors``.
        label_column: the single attribute column NHQ fuses.
        degree: out-degree of the KNN graph (KGraph's K).
        weight: fusion weight w; ``None`` auto-scales to the mean
            nearest-neighbor distance so the attribute term is decisive
            but does not drown the metric term.
    """

    def __init__(
        self,
        vectors: np.ndarray,
        table: AttributeTable,
        label_column: str,
        degree: int = 16,
        weight: float | None = None,
        metric: "Metric | str" = Metric.L2,
        batch: int = 512,
    ) -> None:
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if len(table) != vectors.shape[0]:
            raise ValueError(
                f"table has {len(table)} rows but got {vectors.shape[0]} vectors"
            )
        self.store = VectorStore.from_array(vectors, metric=metric)
        self.table = table
        self.label_column = label_column
        self.labels = np.asarray(table.column(label_column))
        self.degree = int(degree)

        n = vectors.shape[0]
        self.adjacency = np.empty((n, min(self.degree, max(n - 1, 1))), dtype=np.int64)
        if weight is None:
            # Calibrate w to the mean random-pair distance: a label
            # mismatch then outweighs typical cross-dataset distances,
            # so routing decisively prefers matching-label candidates —
            # the regime NHQ's fusion distance needs for the hybrid
            # semantics to dominate the ranking.
            rng = default_rng(0)
            a = rng.integers(0, n, size=min(4 * n, 4096))
            b = rng.integers(0, n, size=a.shape[0])
            diffs = vectors[a] - vectors[b]
            weight = float(np.einsum("ij,ij->i", diffs, diffs).mean())
        for lo in range(0, n, batch):
            hi = min(lo + batch, n)
            block = pairwise_distances(vectors, vectors[lo:hi], metric=metric)
            mismatch = (self.labels[None, :] != self.labels[lo:hi, None]).astype(
                block.dtype
            )
            self._assign_block(block + weight * mismatch, lo, hi)
        self.weight = float(weight)

    def _assign_block(self, fused: np.ndarray, lo: int, hi: int) -> None:
        fused[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        k = self.adjacency.shape[1]
        part = np.argpartition(fused, k - 1, axis=1)[:, :k]
        rows = np.arange(hi - lo)[:, None]
        order = np.argsort(fused[rows, part], axis=1)
        self.adjacency[lo:hi] = part[rows, order]

    def __len__(self) -> int:
        return len(self.store)

    def search(
        self,
        query: np.ndarray,
        predicate: "Predicate | CompiledPredicate",
        k: int,
        ef_search: int = 64,
    ) -> SearchResult:
        """Beam search under the fusion distance; returns K matches.

        The query's attribute is the equality predicate's value; results
        are final-filtered to exact matches since fusion routing is a
        soft constraint.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        label = extract_equality_label(predicate, self.label_column)
        computer = self.store.computer()
        query = computer.set_query(query)
        n = len(self.store)
        if n == 0:
            return SearchResult.empty()
        beam_width = max(ef_search, k)
        # Seed the beam with several deterministic pseudo-random entry
        # points — KGraph-style search initializes its pool randomly,
        # which is what makes a flat KNN graph navigable.
        n_seeds = min(n, max(16, beam_width // 4))
        starts = np.unique(
            (np.arange(n_seeds) * 2654435761 + 12345) % n
        )
        seed_dists = computer.distances_to(query, starts)
        seed_dists = seed_dists + self.weight * (self.labels[starts] != label)
        visited = np.zeros(n, dtype=bool)
        visited[starts] = True
        beam = sorted(zip(seed_dists.tolist(), starts.tolist()))
        heap = list(beam)
        heapq.heapify(heap)
        while heap:
            dist_c, current = heapq.heappop(heap)
            if len(beam) >= beam_width and dist_c > beam[-1][0]:
                break
            fresh = [v for v in self.adjacency[current].tolist() if not visited[v]]
            if not fresh:
                continue
            for v in fresh:
                visited[v] = True
            ids = np.asarray(fresh, dtype=np.intp)
            dists = computer.distances_to(query, ids)
            dists = dists + self.weight * (self.labels[ids] != label)
            for node, dist in zip(fresh, dists.tolist()):
                if len(beam) < beam_width or dist < beam[-1][0]:
                    heapq.heappush(heap, (dist, node))
                    beam.append((dist, node))
                    beam.sort()
                    if len(beam) > beam_width:
                        beam.pop()
        matching = [
            (dist, nid) for dist, nid in beam if self.labels[nid] == label
        ][:k]
        # Report true metric distances (strip the fusion term, which is
        # zero for exact matches anyway).
        return SearchResult.from_pairs(
            matching, distance_computations=computer.count
        )

    def nbytes(self) -> int:
        """Vector payload + adjacency footprint."""
        return self.store.nbytes() + 4 * int(self.adjacency.size)
