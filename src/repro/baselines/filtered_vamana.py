"""FilteredVamana (FilteredDiskANN algorithm 1) — LCPS comparator.

A flat graph built by inserting points in random order: each insertion
runs FilteredGreedySearch from the inserted point's label start node,
prunes the visited pool with the label-aware RobustPrune, and patches
reverse edges.  Serves only equality predicates over one low-cardinality
label column — the restriction the ACORN paper's §7.3 benchmarks
exploit on SIFT1M/Paper and that disqualifies it from the HCPS datasets.
"""

from __future__ import annotations

import numpy as np

from repro.attributes.table import AttributeTable
from repro.baselines.vamana_common import extract_equality_label, greedy_search, robust_prune
from repro.core.searcher import Searcher, check_search_args
from repro.hnsw.hnsw import SearchResult
from repro.predicates.base import CompiledPredicate, Predicate
from repro.utils.rng import default_rng
from repro.vectors.distance import Metric
from repro.vectors.store import VectorStore


class FilteredVamanaIndex(Searcher):
    """Label-filtered Vamana graph (equality predicates only).

    Args:
        vectors: base matrix (n, d).
        table: attributes aligned with ``vectors``.
        label_column: integer column holding each entity's single label.
        r: graph degree bound (paper's recommended R=96).
        l: construction beam width (paper's recommended L=90).
        alpha: RobustPrune slack (DiskANN convention, 1.2).
    """

    def __init__(
        self,
        vectors: np.ndarray,
        table: AttributeTable,
        label_column: str,
        r: int = 32,
        l: int = 64,
        alpha: float = 1.2,
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
        self.label_column = label_column
        self.labels = np.asarray(table.column(label_column))
        self.r = int(r)
        self.l = int(l)
        self.alpha = float(alpha)
        self.adjacency: list[list[int]] = [[] for _ in range(len(vectors))]
        self.start_nodes = self._choose_start_nodes()
        self._build(default_rng(seed))

    def __len__(self) -> int:
        return len(self.store)

    def _choose_start_nodes(self) -> dict[object, int]:
        """One start point per label: the label's medoid-approximation.

        FilteredDiskANN designates load-balanced start nodes per label;
        we pick the point nearest its label's centroid.
        """
        starts: dict[object, int] = {}
        vectors = self.store.vectors
        for label in np.unique(self.labels):
            ids = np.flatnonzero(self.labels == label)
            centroid = vectors[ids].mean(axis=0)
            diffs = vectors[ids] - centroid
            starts[label] = int(ids[np.argmin(np.einsum("ij,ij->i", diffs, diffs))])
        return starts

    def _build(self, rng: np.random.Generator) -> None:
        computer = self.store.computer()
        order = rng.permutation(len(self.store))
        for point in order.tolist():
            label = self.labels[point]
            start = self.start_nodes[label]
            if start == point:
                continue
            allowed = self.labels == label
            _, visited = greedy_search(
                computer,
                self.store.vectors[point],
                self.adjacency,
                [start],
                self.l,
                allowed=allowed,
            )
            if not visited:
                continue
            pool_ids = np.asarray(visited, dtype=np.intp)
            dists = computer.distances_to(self.store.vectors[point], pool_ids)
            pool = list(zip(dists.tolist(), visited))
            kept = robust_prune(
                computer, point, pool, self.alpha, self.r,
                labels=self.labels, point_labels=label,
            )
            self.adjacency[point] = kept
            for neighbor in kept:
                self._patch_reverse(computer, neighbor, point)

    def _patch_reverse(self, computer, owner: int, new_neighbor: int) -> None:
        if new_neighbor in self.adjacency[owner]:
            return
        self.adjacency[owner].append(new_neighbor)
        if len(self.adjacency[owner]) <= self.r:
            return
        ids = np.asarray(self.adjacency[owner], dtype=np.intp)
        dists = computer.distances_to(self.store.vectors[owner], ids)
        pool = list(zip(dists.tolist(), self.adjacency[owner]))
        self.adjacency[owner] = robust_prune(
            computer, owner, pool, self.alpha, self.r,
            labels=self.labels, point_labels=self.labels[owner],
        )

    def search(
        self,
        query: np.ndarray,
        predicate: "Predicate | CompiledPredicate",
        k: int,
        ef_search: int = 64,
    ) -> SearchResult:
        """FilteredGreedySearch from the query label's start node."""
        check_search_args(k, ef_search)
        label = extract_equality_label(predicate, self.label_column)
        if label not in self.start_nodes:
            return SearchResult.empty()
        computer = self.store.computer()
        query = computer.set_query(query)
        beam, _ = greedy_search(
            computer, query, self.adjacency, [self.start_nodes[label]],
            max(ef_search, k), allowed=self.labels == label,
        )
        top = beam[:k]
        return SearchResult.from_pairs(
            top, distance_computations=computer.count
        )

    def nbytes(self) -> int:
        """Vector payload + adjacency footprint."""
        edges = sum(len(lst) for lst in self.adjacency)
        return self.store.nbytes() + 4 * edges
