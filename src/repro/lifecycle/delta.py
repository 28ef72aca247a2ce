"""Mutable write buffer of the streaming index lifecycle.

A :class:`DeltaIndex` absorbs recent inserts in arrival order.  It is
deliberately structureless — a row store of (external id, vector,
attribute row) triples — because the delta stays small by design: the
background compactor folds it into the graph base long before a brute
force scan over it costs anything.  ``freeze()`` snapshots the buffer
into an immutable :class:`DeltaView` that epoch snapshots search
exactly (brute force over the passing rows), so delta results carry no
approximation: recall loss can only come from the graph base, never
from recency.

External ids are allocated by the owning
:class:`~repro.lifecycle.manager.LifecycleIndex` and are strictly
increasing, so a delta's entries are always sorted by external id —
the property the compactor leans on: appending a sealed delta to the
base keeps the merge input in ascending external-id order, the order
:func:`repro.core.maintenance.rebuild` feeds an offline index with the
same history.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.attributes.table import AttributeTable, ColumnKind, build_table
from repro.predicates.base import CompiledPredicate, Predicate
from repro.vectors import Metric, VectorStore

__all__ = ["DeltaIndex", "DeltaView", "table_schema", "build_table"]


def table_schema(table: AttributeTable) -> list[tuple[str, ColumnKind]]:
    """The (name, kind) column signature of ``table``, in column order.

    Lifecycle inserts must supply a value for every schema column, so
    delta rows always compile against the same predicates as the base.
    """
    return [(name, table.column_kind(name)) for name in table.column_names]


def check_row(schema: list[tuple[str, ColumnKind]], row: dict) -> dict:
    """Validate one insert's attribute row against the schema.

    Every schema column must be present; unknown keys are rejected so a
    typo'd column name fails loudly instead of silently never matching
    any predicate.
    """
    names = {name for name, _ in schema}
    missing = names - row.keys()
    if missing:
        raise ValueError(
            f"insert row missing attribute columns: {sorted(missing)}"
        )
    unknown = row.keys() - names
    if unknown:
        raise ValueError(
            f"insert row has unknown attribute columns: {sorted(unknown)}"
        )
    return dict(row)


@dataclasses.dataclass(frozen=True)
class DeltaView:
    """An immutable, exactly-searchable snapshot of a delta segment.

    Attributes:
        external_ids: (n,) int64 external id per entry, strictly
            ascending (write order).
        vectors: (n, dim) float32 matrix, read-only.
        table: attribute rows aligned with ``external_ids``.
        store: vector store over ``vectors`` (distance arithmetic).
    """

    external_ids: np.ndarray
    vectors: np.ndarray
    table: AttributeTable
    store: VectorStore

    def __len__(self) -> int:
        return int(self.external_ids.shape[0])

    def topk(
        self,
        query: np.ndarray,
        predicate: "Predicate | CompiledPredicate",
        k: int,
        tombstones,
    ) -> tuple[list[tuple[float, int]], int]:
        """Exact top-k over live, passing delta entries.

        Returns a ``(distance, external_id)`` stream sorted ascending
        (ties on id) ready for the shard-layer streaming merge, plus
        the number of distances evaluated.
        """
        if len(self) == 0 or k <= 0:
            return [], 0
        raw = (predicate.predicate
               if isinstance(predicate, CompiledPredicate) else predicate)
        mask = np.asarray(raw.mask(self.table), dtype=bool).copy()
        if tombstones:
            for pos, ext in enumerate(self.external_ids.tolist()):
                if ext in tombstones:
                    mask[pos] = False
        passing = np.flatnonzero(mask)
        if passing.size == 0:
            return [], 0
        computer = self.store.computer()
        q = computer.set_query(query)
        dists = computer.distances_to(q, passing)
        order = np.lexsort((self.external_ids[passing], dists))[:k]
        stream = [
            (float(dists[i]), int(self.external_ids[passing[i]]))
            for i in order.tolist()
        ]
        return stream, int(passing.size)

    def entries(self):
        """Iterate ``(external_id, vector, row)`` in write order."""
        for pos in range(len(self)):
            yield (
                int(self.external_ids[pos]),
                self.vectors[pos],
                self.table.row(pos),
            )


class DeltaIndex:
    """The mutable insert buffer: an append-only row store.

    Owned and locked by :class:`~repro.lifecycle.manager.LifecycleIndex`;
    this class itself does no synchronization.  Deletes never touch the
    delta — the lifecycle's external tombstone set hides entries at
    search time, uniformly with base entities.
    """

    def __init__(
        self,
        dim: int,
        schema: list[tuple[str, ColumnKind]],
        metric: "Metric | str" = Metric.L2,
    ) -> None:
        self.dim = int(dim)
        self.schema = list(schema)
        self.metric = metric
        self._external_ids: list[int] = []
        self._vectors: list[np.ndarray] = []
        self._rows: list[dict] = []
        self._positions: dict[int, int] = {}
        self._view: DeltaView | None = None

    def __len__(self) -> int:
        return len(self._external_ids)

    def __contains__(self, external_id: int) -> bool:
        return int(external_id) in self._positions

    def insert(self, external_id: int, vector: np.ndarray, row: dict) -> None:
        """Append one entity.  Ids must arrive strictly ascending."""
        external_id = int(external_id)
        if self._external_ids and external_id <= self._external_ids[-1]:
            raise ValueError(
                f"external id {external_id} not ascending (last was "
                f"{self._external_ids[-1]})"
            )
        vector = np.asarray(vector, dtype=np.float32).reshape(-1)
        if vector.shape[0] != self.dim:
            raise ValueError(
                f"vector has dim {vector.shape[0]}, lifecycle has dim "
                f"{self.dim}"
            )
        if not np.isfinite(vector).all():
            # Would poison the base graph only at the next fold.
            raise ValueError("vector contains non-finite values (NaN or inf)")
        self._positions[external_id] = len(self._external_ids)
        self._external_ids.append(external_id)
        self._vectors.append(vector.copy())
        self._rows.append(check_row(self.schema, row))
        self._view = None

    def vector_of(self, external_id: int) -> np.ndarray:
        """The stored vector for ``external_id`` (must be resident)."""
        return self._vectors[self._positions[int(external_id)]]

    def row_of(self, external_id: int) -> dict:
        """A copy of the attribute row for ``external_id``."""
        return dict(self._rows[self._positions[int(external_id)]])

    def freeze(self) -> DeltaView:
        """Snapshot the buffer into an immutable :class:`DeltaView`.

        Cached until the next :meth:`insert`, so repeated epoch
        publications over an idle delta share one view.
        """
        if self._view is None:
            n = len(self._external_ids)
            vectors = (
                np.stack(self._vectors).astype(np.float32)
                if n else np.empty((0, self.dim), dtype=np.float32)
            )
            vectors.setflags(write=False)
            external_ids = np.asarray(self._external_ids, dtype=np.int64)
            external_ids.setflags(write=False)
            self._view = DeltaView(
                external_ids=external_ids,
                vectors=vectors,
                table=build_table(self.schema, self._rows),
                store=VectorStore.from_array(
                    vectors.reshape(n, self.dim), metric=self.metric
                ),
            )
        return self._view
