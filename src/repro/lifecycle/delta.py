"""Mutable write buffer of the streaming index lifecycle.

A :class:`DeltaIndex` absorbs recent inserts in arrival order.  It is
deliberately structureless — growing columns of external ids, vectors
and attribute values — because the delta stays small by design: the
background compactor folds it into the graph base long before a brute
force scan over it costs anything.  ``freeze()`` snapshots the buffer
into an immutable :class:`DeltaView` that epoch snapshots search
exactly (brute force over the passing rows), so delta results carry no
approximation: recall loss can only come from the graph base, never
from recency.

Appending costs one row, and publishing copies none: ``insert`` checks
and coerces the row into its column's layout (ints and floats into
arrays, strings into an object array, keyword lists into an
appendable CSR, the vector into a :class:`~repro.vectors.VectorStore`),
each buffer doubling as it fills; ``freeze()`` hands out read-only prefix views of those
buffers (a keyword column builds its posting lists over them, one
numpy sort).  A view never sees a later row: appends land past its prefix,
a buffer that grows is copied into a new one (old views keep the old),
and each view copies the keyword word list it was interned against.

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

from repro.attributes.table import AttributeTable, ColumnKind, KeywordColumn
from repro.predicates.base import Predicate
from repro.vectors import Metric, VectorStore
from repro.vectors.distance import smallest_k

__all__ = ["DeltaIndex", "DeltaView", "table_schema"]

_EMPTY_DISTS = np.empty(0, dtype=np.float32)
_EMPTY_IDS = np.empty(0, dtype=np.int64)
_DTYPES = {ColumnKind.INT: np.int64, ColumnKind.FLOAT: np.float64,
          ColumnKind.STRING: object}


def table_schema(table: AttributeTable) -> list[tuple[str, ColumnKind]]:
    """The (name, kind) column signature of ``table``, in column order.

    Lifecycle inserts must supply a value for every schema column, so
    delta rows always compile against the same predicates as the base.
    """
    return [(name, table.column_kind(name)) for name in table.column_names]


def _coerced(name: str, kind: ColumnKind, value):
    """``value`` as column ``name`` stores it: an int64 or float64
    scalar, a ``str``, or a list of hashable keywords."""
    try:
        if kind is ColumnKind.STRING:
            return str(value)
        if kind is ColumnKind.KEYWORDS:
            words = list(value)
            for word in words:
                hash(word)
            return words
        scalar = np.asarray(value, dtype=_DTYPES[kind])
        if scalar.ndim:
            raise ValueError("not a scalar")
        return scalar[()]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(
            f"column {name!r} ({kind.value}) cannot hold {value!r}: {exc}"
        ) from exc


def coerce_row(schema: list[tuple[str, ColumnKind]], row: dict) -> list:
    """One insert's attribute values in schema order, coerced.

    Every schema column must be present; unknown keys are rejected so a
    typo'd column name fails loudly instead of silently never matching
    any predicate.  A value its column cannot hold raises here, before
    the insert has changed anything.
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
    return [_coerced(name, kind, row[name]) for name, kind in schema]


class _Buffer:
    """A doubling array of rows; ``view(n)`` is a read-only prefix."""

    __slots__ = ("data", "size")

    def __init__(self, dtype) -> None:
        self.data = np.empty(16, dtype=dtype)
        self.size = 0

    def _reserve(self, need: int) -> None:
        if need > self.data.shape[0]:
            # A new buffer: views handed out keep the old one.
            grown = np.empty(max(need, 2 * self.data.shape[0]),
                             dtype=self.data.dtype)
            grown[: self.size] = self.data[: self.size]
            self.data = grown

    def append(self, value) -> None:
        self._reserve(self.size + 1)
        self.data[self.size] = value
        self.size += 1

    def extend(self, values: list) -> None:
        end = self.size + len(values)
        self._reserve(end)
        self.data[self.size:end] = values
        self.size = end

    def view(self, n: int) -> np.ndarray:
        out = self.data[:n]
        out.flags.writeable = False
        return out


class _KeywordBuffer:
    """An appendable keyword CSR with its growing vocabulary."""

    __slots__ = ("words", "vocab", "offsets", "tokens")

    def __init__(self) -> None:
        self.words: list = []
        self.vocab: dict = {}
        self.offsets = _Buffer(np.int64)
        self.offsets.append(0)
        self.tokens = _Buffer(np.int64)

    def append(self, words: list) -> None:
        tokens = []
        for word in words:
            token = self.vocab.get(word)
            if token is None:
                token = self.vocab[word] = len(self.words)
                self.words.append(word)
            tokens.append(token)
        self.tokens.extend(tokens)
        self.offsets.append(self.tokens.size)

    def view(self, n: int) -> KeywordColumn:
        # The view's own word list: later words never reach it.
        return KeywordColumn(list(self.words), self.offsets.view(n + 1),
                             self.tokens.view(int(self.offsets.data[n])))


@dataclasses.dataclass(frozen=True)
class DeltaView:
    """An immutable, exactly-searchable snapshot of a delta segment.

    Attributes:
        external_ids: (n,) int64 external id per entry, strictly
            ascending (write order), read-only.
        vectors: (n, dim) float32 matrix, read-only.
        table: attribute rows aligned with ``external_ids`` (read-only
            columns).
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
        predicate: Predicate,
        k: int,
        alive: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Exact top-k over live entries passing the raw ``predicate``.

        ``alive`` is the entries' liveness mask, computed once per
        epoch when the snapshot is published.  Returns ``(distances,
        external_ids, scored)``: the top-k ascending by (distance, id)
        and the number of distances evaluated.
        """
        if len(self) == 0 or k <= 0:
            return _EMPTY_DISTS, _EMPTY_IDS, 0
        passing = np.flatnonzero(
            np.asarray(predicate.mask(self.table), dtype=bool) & alive)
        if passing.size == 0:
            return _EMPTY_DISTS, _EMPTY_IDS, 0
        computer = self.store.computer()
        dists = computer.distances_to(computer.set_query(query), passing)
        dists, ids = smallest_k(dists, self.external_ids[passing], k)
        return dists, ids, int(passing.size)


class DeltaIndex:
    """The mutable insert buffer: append-only columns.

    Owned and locked by :class:`~repro.lifecycle.manager.LifecycleIndex`;
    this class itself does no synchronization.  Deletes never touch the
    delta — each published epoch turns the lifecycle's external
    tombstone set into an alive mask per segment, uniformly with base
    entities.
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
        self._ids = _Buffer(np.int64)
        self._store = VectorStore(self.dim, metric=metric, capacity=16)
        self._columns = [
            _KeywordBuffer() if kind is ColumnKind.KEYWORDS
            else _Buffer(_DTYPES[kind])
            for _, kind in self.schema
        ]
        self._view: DeltaView | None = None

    def __len__(self) -> int:
        return self._ids.size

    def __contains__(self, external_id: int) -> bool:
        return self._position(external_id) >= 0

    def _position(self, external_id: int) -> int:
        """The row of ``external_id``, or -1 if it is not here."""
        ids = self._ids.data[: self._ids.size]
        pos = int(np.searchsorted(ids, int(external_id)))
        if pos < ids.shape[0] and ids[pos] == int(external_id):
            return pos
        return -1

    def _resident(self, external_id: int) -> int:
        pos = self._position(external_id)
        if pos < 0:
            raise KeyError(f"external id {external_id} is not in the delta")
        return pos

    def insert(self, external_id: int, vector: np.ndarray, row: dict) -> None:
        """Append one entity.  Ids must arrive strictly ascending.

        The id, the vector and every attribute value are checked and
        coerced before anything is appended, so a refused insert leaves
        the delta exactly as it was.
        """
        external_id = int(external_id)
        n = len(self)
        if n and external_id <= self._ids.data[n - 1]:
            raise ValueError(
                f"external id {external_id} not ascending (last was "
                f"{int(self._ids.data[n - 1])})"
            )
        values = coerce_row(self.schema, row)
        # Checks the vector's dim and finiteness before it grows.
        self._store.add(vector)
        self._ids.append(external_id)
        for column, value in zip(self._columns, values):
            column.append(value)
        self._view = None

    def vector_of(self, external_id: int) -> np.ndarray:
        """The stored vector for ``external_id`` (must be resident)."""
        return self.freeze().vectors[self._resident(external_id)]

    def row_of(self, external_id: int) -> dict:
        """The attribute row for ``external_id``, as its columns hold it."""
        return self.freeze().table.row(self._resident(external_id))

    def freeze(self) -> DeltaView:
        """Snapshot the buffer into an immutable :class:`DeltaView`.

        Read-only prefix views of the buffers: no row is copied or
        re-checked (each was checked when it was inserted); a keyword
        column sorts its tokens into posting lists.  Cached until
        the next :meth:`insert`, so repeated epoch publications over an
        idle delta share one view.
        """
        if self._view is None:
            n = len(self)
            vectors = self._store.vectors
            self._view = DeltaView(
                external_ids=self._ids.view(n),
                vectors=vectors,
                table=AttributeTable.from_columns(n, [
                    (name, kind, column.view(n))
                    for (name, kind), column in zip(self.schema,
                                                    self._columns)
                ]),
                store=VectorStore.wrap(vectors, metric=self.metric),
            )
        return self._view
