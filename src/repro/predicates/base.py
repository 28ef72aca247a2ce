"""Predicate interface and per-query compilation.

A :class:`Predicate` knows how to evaluate itself over an
:class:`~repro.attributes.table.AttributeTable`, producing a boolean
mask over all entities.  Index search compiles the predicate once per
query into a :class:`CompiledPredicate` — a cached mask with O(1)
per-node membership checks — because graph traversal asks "does node v
pass?" hundreds of times per query, and the paper's own C++
implementation likewise evaluates predicates via precomputed bitsets for
low-cardinality attribute domains (§7.2).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.attributes.table import AttributeTable


class Predicate(abc.ABC):
    """A boolean condition over an entity's structured attributes."""

    #: True for leaves whose ``mask`` walks a column row by row in the
    #: interpreter (and composites holding one): ``And`` / ``Or`` run
    #: these last, through :meth:`mask_rows`, on undecided rows only.
    row_scan = False

    @abc.abstractmethod
    def mask(self, table: AttributeTable) -> np.ndarray:
        """Boolean mask over all entities: ``mask[i]`` iff entity i passes."""

    def mask_rows(self, table: AttributeTable, rows: np.ndarray) -> np.ndarray:
        """``mask(table)[rows]`` — overridden where evaluating only
        ``rows`` (any order, repeats allowed) is cheaper than that."""
        return self.mask(table)[rows]

    def matches(self, table: AttributeTable, entity_id: int) -> bool:
        """Whether a single entity passes.

        Subclasses with a cheap row-wise check may override; the default
        evaluates the full mask, so callers doing repeated checks should
        use :meth:`compile` instead.
        """
        return bool(self.mask(table)[entity_id])

    def compile(self, table: AttributeTable) -> "CompiledPredicate":
        """Materialize this predicate over ``table`` for fast evaluation."""
        return CompiledPredicate(self, self.mask(table), table=table)

    def fingerprint(self) -> str:
        """Stable identity key for compiled-mask caching.

        Two predicates with equal fingerprints must produce identical
        masks over the same table; the batch engine's LRU cache keys on
        this.  The default derives the key from the class name and
        ``repr`` — every predicate in this library has a canonical repr
        that fully describes its parameters.  Subclasses whose repr is
        lossy must override.
        """
        return f"{type(self).__qualname__}:{self!r}"

    def __and__(self, other: "Predicate") -> "Predicate":
        from repro.predicates.boolean import And

        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        from repro.predicates.boolean import Or

        return Or(self, other)

    def __invert__(self) -> "Predicate":
        from repro.predicates.boolean import Not

        return Not(self)


class TruePredicate(Predicate):
    """The always-true predicate: hybrid search degenerates to ANN search."""

    def mask(self, table: AttributeTable) -> np.ndarray:
        return np.ones(len(table), dtype=bool)

    def matches(self, table: AttributeTable, entity_id: int) -> bool:
        return True

    def __repr__(self) -> str:
        return "TruePredicate()"


class CompiledPredicate:
    """A predicate materialized into a boolean mask over one table.

    Attributes:
        predicate: the source predicate.
        mask: boolean array, ``mask[i]`` iff entity ``i`` passes.
        table: the table the mask was materialized against, or None for
            ad-hoc masks (e.g. a predicate mask composed with a
            tombstone filter).  Consumers that may outlive the table a
            mask was compiled for — the engine's LRU cache, epoch
            snapshots whose base is swapped by compaction — validate
            with ``compiled.table is current_table``: two different
            tables of equal length must never share a mask.
    """

    __slots__ = ("predicate", "mask", "table", "_passing", "_count")

    def __init__(
        self,
        predicate: Predicate,
        mask: np.ndarray,
        table: AttributeTable | None = None,
    ) -> None:
        self.predicate = predicate
        self.mask = np.asarray(mask, dtype=bool)
        self.table = table
        self._passing: np.ndarray | None = None
        self._count = int(self.mask.sum())

    def __len__(self) -> int:
        return self.mask.shape[0]

    def passes(self, entity_id: int) -> bool:
        """O(1) membership check."""
        return bool(self.mask[entity_id])

    def passes_many(self, entity_ids: np.ndarray) -> np.ndarray:
        """Vectorized membership over an id array."""
        return self.mask[np.asarray(entity_ids, dtype=np.intp)]

    @property
    def passing_ids(self) -> np.ndarray:
        """Ids of all passing entities (computed lazily, cached)."""
        if self._passing is None:
            self._passing = np.flatnonzero(self.mask)
        return self._passing

    @property
    def cardinality(self) -> int:
        """Number of passing entities, ``|X_p|``."""
        return self._count

    @property
    def selectivity(self) -> float:
        """Exact selectivity ``s = |X_p| / n`` (paper §3.1)."""
        n = self.mask.shape[0]
        return self._count / n if n else 0.0

    def __repr__(self) -> str:
        return (
            f"CompiledPredicate({self.predicate!r}, "
            f"selectivity={self.selectivity:.4f})"
        )
