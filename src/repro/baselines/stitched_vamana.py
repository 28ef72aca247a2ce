"""StitchedVamana (FilteredDiskANN algorithm 2) — LCPS comparator.

Builds one small Vamana graph per label (R_small, L_small), unions
("stitches") their edges into one graph over global ids, then re-prunes
every node to R_stitched with the label-aware RobustPrune.  Like
FilteredVamana it serves only equality predicates over a small label
domain, at higher construction cost but usually better recall-QPS.
"""

from __future__ import annotations

import numpy as np

from repro.attributes.table import AttributeTable
from repro.engine.batching import BatchSearchMixin
from repro.baselines.vamana_common import extract_equality_label, greedy_search, robust_prune
from repro.hnsw.hnsw import SearchResult
from repro.predicates.base import CompiledPredicate, Predicate
from repro.utils.rng import default_rng
from repro.vectors.distance import Metric
from repro.vectors.store import VectorStore


def build_vamana_adjacency(
    computer,
    vectors: np.ndarray,
    ids: np.ndarray,
    r: int,
    l: int,
    alpha: float,
    rng: np.random.Generator,
) -> dict[int, list[int]]:
    """Plain (unfiltered) Vamana over the subset ``ids``.

    Starts from a random R-regular graph, then refines each point with
    GreedySearch-from-medoid + RobustPrune, patching reverse edges.
    Returns adjacency keyed by *global* ids.
    """
    n = ids.shape[0]
    local: list[list[int]] = [[] for _ in range(n)]
    if n == 0:
        return {}
    if n == 1:
        return {int(ids[0]): []}
    # Random initial graph keeps the refinement pass connected.
    init_degree = min(r, n - 1)
    for i in range(n):
        choices = rng.choice(n - 1, size=init_degree, replace=False)
        local[i] = [int(c) if c < i else int(c) + 1 for c in choices]

    centroid = vectors[ids].mean(axis=0)
    diffs = vectors[ids] - centroid
    medoid = int(np.argmin(np.einsum("ij,ij->i", diffs, diffs)))

    sub_vectors = vectors[ids]
    sub_computer = type(computer)(sub_vectors, metric=computer.metric)
    for point in rng.permutation(n).tolist():
        _, visited = greedy_search(
            sub_computer, sub_vectors[point], local, [medoid], l
        )
        visited = [v for v in visited if v != point]
        if not visited:
            continue
        dists = sub_computer.distances_to(
            sub_vectors[point], np.asarray(visited, dtype=np.intp)
        )
        pool = list(zip(dists.tolist(), visited))
        kept = robust_prune(sub_computer, point, pool, alpha, r)
        local[point] = kept
        for neighbor in kept:
            if point in local[neighbor]:
                continue
            local[neighbor].append(point)
            if len(local[neighbor]) > r:
                n_ids = np.asarray(local[neighbor], dtype=np.intp)
                n_dists = sub_computer.distances_to(sub_vectors[neighbor], n_ids)
                n_pool = list(zip(n_dists.tolist(), local[neighbor]))
                local[neighbor] = robust_prune(
                    sub_computer, neighbor, n_pool, alpha, r
                )
    return {
        int(ids[i]): [int(ids[j]) for j in neighbors]
        for i, neighbors in enumerate(local)
    }


class StitchedVamanaIndex(BatchSearchMixin):
    """Per-label Vamana graphs stitched into one filtered index.

    Args:
        r_small / l_small: per-label Vamana parameters.
        r_stitched: post-stitch degree bound.
        alpha: RobustPrune slack.
    """

    def __init__(
        self,
        vectors: np.ndarray,
        table: AttributeTable,
        label_column: str,
        r_small: int = 24,
        l_small: int = 48,
        r_stitched: int = 48,
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
        self.r_stitched = int(r_stitched)
        rng = default_rng(seed)
        computer = self.store.computer()

        self.adjacency: list[list[int]] = [[] for _ in range(len(vectors))]
        self.start_nodes: dict[object, int] = {}
        for label in np.unique(self.labels):
            ids = np.flatnonzero(self.labels == label)
            centroid = vectors[ids].mean(axis=0)
            diffs = vectors[ids] - centroid
            self.start_nodes[label] = int(
                ids[np.argmin(np.einsum("ij,ij->i", diffs, diffs))]
            )
            sub_adj = build_vamana_adjacency(
                computer, self.store.vectors, ids, r_small, l_small, alpha, rng
            )
            # Stitch: union the per-label edges into the global graph.
            for node, neighbors in sub_adj.items():
                merged = self.adjacency[node] + [
                    v for v in neighbors if v not in self.adjacency[node]
                ]
                self.adjacency[node] = merged

        # Final pass: re-prune every node to R_stitched, label-aware.
        for node in range(len(vectors)):
            if len(self.adjacency[node]) <= self.r_stitched:
                continue
            ids = np.asarray(self.adjacency[node], dtype=np.intp)
            dists = computer.distances_to(self.store.vectors[node], ids)
            pool = list(zip(dists.tolist(), self.adjacency[node]))
            self.adjacency[node] = robust_prune(
                computer, node, pool, alpha, self.r_stitched,
                labels=self.labels, point_labels=self.labels[node],
            )

    def __len__(self) -> int:
        return len(self.store)

    def search(
        self,
        query: np.ndarray,
        predicate: "Predicate | CompiledPredicate",
        k: int,
        ef_search: int = 64,
    ) -> SearchResult:
        """FilteredGreedySearch from the query label's start node."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
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
