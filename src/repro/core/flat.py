"""ACORN's framework applied to a flat (single-level) proximity graph.

§5 notes the predicate-subgraph framework "can be applied to a variety
of graph-based ANN indices" even though the paper instantiates it on
HNSW.  :class:`FlatAcornIndex` is that generality made concrete: the
same M·γ neighbor expansion, the same predicate-agnostic Mβ
compression, and the same filter/2-hop search lookups — on a
single-level graph of the NSG/Vamana family (no hierarchy, fixed
medoid-ish entry point).

Useful both as a demonstration and practically: flat graphs are simpler
to shard and serialize, and on small corpora the hierarchy buys little
(log n is tiny), so this variant trades worst-case routing for a leaner
structure.
"""

from __future__ import annotations

import numpy as np

from repro.attributes.table import AttributeTable
from repro.core.acorn import AcornIndex
from repro.core.params import AcornParams
from repro.vectors.distance import Metric


class _GroundLevel:
    """Level assignment that pins every node to level 0."""

    def draw(self) -> int:
        return 0


class FlatAcornIndex(AcornIndex):
    """Single-level ACORN index (NSG/Vamana-style substrate).

    Construction and search reuse :class:`AcornIndex` wholesale — the
    only changes are the degenerate level assignment and a medoid entry
    point chosen after the build (a flat graph has no upper levels to
    route from, so a central entry matters more).
    """

    def __init__(
        self,
        dim: int,
        table: AttributeTable,
        params: AcornParams | None = None,
        metric: "Metric | str" = Metric.L2,
        seed: int | np.random.Generator | None = None,
        labels: np.ndarray | None = None,
    ) -> None:
        super().__init__(dim, table, params=params, metric=metric, seed=seed,
                         labels=labels)
        self._levels = _GroundLevel()

    @classmethod
    def build(
        cls,
        vectors: np.ndarray,
        table: AttributeTable,
        params: AcornParams | None = None,
        metric: "Metric | str" = Metric.L2,
        seed: int | np.random.Generator | None = None,
        labels: np.ndarray | None = None,
    ) -> "FlatAcornIndex":
        """Construct a flat index and anchor its entry at the medoid."""
        index = cls._build(vectors, table, params=params,
                           metric=metric, seed=seed, labels=labels)
        index.reanchor_entry_point()
        return index

    def _bottom_seeds(self, computer, query, seeds):
        """Entry seeds plus deterministic pseudo-random extras.

        A flat graph has no upper levels to route long range, so —
        exactly as the KGraph/NSW family does — traversal starts from
        several spread-out seeds in addition to the entry point, during
        both search and construction (single-seed construction lets the
        graph fragment into per-cluster islands).  Seeds come from a
        fixed hash sequence, keeping everything deterministic.
        """
        n = len(self.graph)
        if n <= 1:
            return seeds
        have = {node for _, node in seeds}
        extra = np.unique((np.arange(min(n, 16)) * 2654435761 + 97) % n)
        extra = np.asarray([v for v in extra.tolist() if v not in have],
                           dtype=np.intp)
        if extra.size == 0:
            return seeds
        dists = computer.distances_to(query, extra)
        return sorted(list(seeds) + list(zip(dists.tolist(), extra.tolist())))

    def reanchor_entry_point(self) -> None:
        """Move the entry point to the (approximate) dataset medoid.

        Call after bulk construction; incremental adds afterwards keep
        the anchor (a flat graph never promotes entries the way the
        hierarchical index does).
        """
        if len(self.store) == 0:
            return
        vectors = self.store.vectors
        centroid = vectors.mean(axis=0)
        diffs = vectors - centroid
        self.graph.entry_point = int(
            np.argmin(np.einsum("ij,ij->i", diffs, diffs))
        )
