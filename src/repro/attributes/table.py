"""Columnar storage for structured attributes.

Each dataset entity ``e_i = (x_i, a_i)`` (paper §3.1) carries an
attribute tuple ``a_i``.  The :class:`AttributeTable` stores those tuples
column-wise so predicates can be evaluated as one vectorized pass per
column: integer/date columns as numpy arrays, string columns as numpy
object arrays, and keyword-list columns as a CSR-style (offsets, tokens)
layout with an interned vocabulary, which makes ``contains`` evaluation a
bitset union over posting lists.
"""

from __future__ import annotations

import dataclasses
import enum
import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable, Iterable, Sequence

import numpy as np

#: Row-memo entries (one per distinct row-scanning leaf) a table keeps
#: before evicting the least recently used; each costs 2 bytes per row.
_ROW_MEMO_ENTRIES = 128


class ColumnKind(enum.Enum):
    """Physical layouts an attribute column can use."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    KEYWORDS = "keywords"


class _KeywordColumn:
    """CSR-encoded lists of interned keyword tokens."""

    def __init__(self, lists: Sequence[Iterable[str]]) -> None:
        self.vocab: dict[str, int] = {}
        tokens: list[int] = []
        offsets = np.zeros(len(lists) + 1, dtype=np.int64)
        for row, kws in enumerate(lists):
            for kw in kws:
                token = self.vocab.setdefault(kw, len(self.vocab))
                tokens.append(token)
            offsets[row + 1] = len(tokens)
        self.offsets = offsets
        self.tokens = np.asarray(tokens, dtype=np.int64)
        # Posting lists: rows containing each token, for inverted lookups.
        row_of_token = np.repeat(
            np.arange(len(lists), dtype=np.int64), np.diff(offsets)
        )
        order = np.argsort(self.tokens, kind="stable")
        self._sorted_rows = row_of_token[order]
        self._sorted_tokens = self.tokens[order]
        self._posting_bounds = np.searchsorted(
            self._sorted_tokens, np.arange(len(self.vocab) + 1)
        )
        self._words = list(self.vocab)  # token -> keyword (interned in order)

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    def row_keywords(self, row: int) -> list[str]:
        lo, hi = self.offsets[row], self.offsets[row + 1]
        return [self._words[t] for t in self.tokens[lo:hi]]

    def rows_containing(self, keyword: str) -> np.ndarray:
        """Rows whose list contains ``keyword`` (empty if unseen)."""
        token = self.vocab.get(keyword)
        if token is None:
            return np.empty(0, dtype=np.int64)
        lo, hi = self._posting_bounds[token], self._posting_bounds[token + 1]
        return self._sorted_rows[lo:hi]

    def mask_containing_any(self, keywords: Iterable[str]) -> np.ndarray:
        """Boolean mask of rows containing at least one of ``keywords``."""
        mask = np.zeros(len(self), dtype=bool)
        for kw in keywords:
            mask[self.rows_containing(kw)] = True
        return mask


@dataclasses.dataclass(frozen=True)
class MemoInfo:
    """Row-memo counters: live ``entries``, rows a leaf had to scan, and
    rows answered from stored verdicts instead."""

    entries: int
    rows_scanned: int
    rows_reused: int


class _RowMemo:
    """Per-leaf ``known`` / ``value`` row verdicts, LRU-bounded."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.entries: OrderedDict[Hashable, np.ndarray] = OrderedDict()
        self.scanned = 0
        self.reused = 0


class AttributeTable:
    """A named collection of attribute columns over ``n`` entities.

    Columns are added once (all with the same length) and then read by
    predicates.  ``table.column_kind(name)`` lets predicate code verify
    it is pointed at a compatible layout before evaluating.
    """

    def __init__(self, num_rows: int) -> None:
        if num_rows < 0:
            raise ValueError(f"num_rows must be non-negative, got {num_rows}")
        self.num_rows = int(num_rows)
        self._columns: dict[str, tuple[ColumnKind, object]] = {}
        self._row_memo = _RowMemo()

    def __getstate__(self) -> dict:
        # The memo and its lock belong to this object, not to a copy.
        return {k: v for k, v in self.__dict__.items() if k != "_row_memo"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._row_memo = _RowMemo()

    def memo_rows(self, key: Hashable, rows: np.ndarray, scan: Callable) -> np.ndarray:
        """Verdicts of the row-scanning leaf ``key`` on ``rows``.

        ``scan(todo) -> bool[len(todo)]`` is called only for rows no
        earlier call under ``key`` has seen; verdicts are kept for this
        table object's lifetime (or until LRU eviction).  Compaction,
        sharding and subsetting build new tables, hence new memos: a
        verdict can never outlive the rows it describes.
        """
        memo = self._row_memo
        # Held across the scan (interpreter-bound, so nothing is lost):
        # two callers can then never scan or count the same row twice.
        with memo.lock:
            entry = memo.entries.get(key)
            if entry is None:
                entry = memo.entries[key] = np.zeros((2, self.num_rows), dtype=bool)
                while len(memo.entries) > _ROW_MEMO_ENTRIES:
                    memo.entries.popitem(last=False)
            else:
                memo.entries.move_to_end(key)
            known, value = entry
            todo = rows[~known[rows]]
            if todo.size:
                value[todo] = scan(todo)
                known[todo] = True
            memo.scanned += todo.size
            memo.reused += rows.size - todo.size
            return value[rows]

    def memo_info(self) -> MemoInfo:
        """Current row-memo counters as a :class:`MemoInfo`."""
        memo = self._row_memo
        with memo.lock:
            return MemoInfo(len(memo.entries), memo.scanned, memo.reused)

    def __len__(self) -> int:
        return self.num_rows

    @property
    def column_names(self) -> list[str]:
        """Names of all columns, in insertion order."""
        return list(self._columns)

    def _check_new(self, name: str, length: int) -> None:
        if name in self._columns:
            raise ValueError(f"column {name!r} already exists")
        if length != self.num_rows:
            raise ValueError(
                f"column {name!r} has {length} rows, table has {self.num_rows}"
            )

    def add_int_column(self, name: str, values) -> None:
        """Add an integer column (also used for dates/years)."""
        values = np.asarray(values, dtype=np.int64)
        self._check_new(name, values.shape[0])
        self._columns[name] = (ColumnKind.INT, values)

    def add_float_column(self, name: str, values) -> None:
        """Add a float column (e.g. prices)."""
        values = np.asarray(values, dtype=np.float64)
        self._check_new(name, values.shape[0])
        self._columns[name] = (ColumnKind.FLOAT, values)

    def add_string_column(self, name: str, values: Sequence[str]) -> None:
        """Add a string column (e.g. captions for regex predicates)."""
        arr = np.asarray(list(values), dtype=object)
        self._check_new(name, arr.shape[0])
        self._columns[name] = (ColumnKind.STRING, arr)

    def add_keywords_column(self, name: str, lists: Sequence[Iterable[str]]) -> None:
        """Add a keyword-list column (e.g. clinical areas, CLIP keywords)."""
        col = _KeywordColumn(lists)
        self._check_new(name, len(col))
        self._columns[name] = (ColumnKind.KEYWORDS, col)

    def has_column(self, name: str) -> bool:
        """Whether a column named ``name`` exists."""
        return name in self._columns

    def column_kind(self, name: str) -> ColumnKind:
        """The :class:`ColumnKind` of column ``name``."""
        return self._columns[self._require(name)][0]

    def column(self, name: str):
        """The raw column payload (array or keyword column)."""
        return self._columns[self._require(name)][1]

    def _require(self, name: str) -> str:
        if name not in self._columns:
            raise KeyError(
                f"no column {name!r}; available: {sorted(self._columns)}"
            )
        return name

    def row(self, i: int) -> dict[str, object]:
        """The attribute tuple of entity ``i`` as a dict (for debugging)."""
        if not 0 <= i < self.num_rows:
            raise IndexError(f"row {i} out of range [0, {self.num_rows})")
        out: dict[str, object] = {}
        for name, (kind, payload) in self._columns.items():
            if kind is ColumnKind.KEYWORDS:
                out[name] = payload.row_keywords(i)
            else:
                out[name] = payload[i]
        return out


def _from_columns(num_rows: int, columns) -> AttributeTable:
    """A table from ``(name, kind, values)`` triples — the one place row
    values are coerced to a column's physical layout."""
    out = AttributeTable(num_rows)
    for name, kind, values in columns:
        if kind is ColumnKind.INT:
            out.add_int_column(name, np.asarray(values, dtype=np.int64))
        elif kind is ColumnKind.FLOAT:
            out.add_float_column(name, np.asarray(values, dtype=np.float64))
        elif kind is ColumnKind.STRING:
            out.add_string_column(name, [str(v) for v in values])
        else:
            out.add_keywords_column(name, [list(v) for v in values])
    return out


def build_table(
    schema: list[tuple[str, ColumnKind]], rows: Sequence[dict]
) -> AttributeTable:
    """Materialize an :class:`AttributeTable` from per-entity row dicts."""
    return _from_columns(
        len(rows),
        [(name, kind, [row[name] for row in rows]) for name, kind in schema],
    )


def subset_table(
    table: AttributeTable, rows, extra_rows: Sequence[dict] = ()
) -> AttributeTable:
    """A new table: ``rows`` of ``table`` in order (row ``j`` is the
    source's ``rows[j]``), then ``extra_rows`` (dicts over every column).

    Columns and kinds are kept; keyword columns are re-interned per
    subset (vocabularies shrink with a shard).
    """
    rows = np.asarray(rows, dtype=np.int64)
    columns = []
    for name in table.column_names:
        kind, column = table.column_kind(name), table.column(name)
        extra = [row[name] for row in extra_rows]
        if kind is ColumnKind.KEYWORDS:
            values = [column.row_keywords(i) for i in rows.tolist()] + extra
        else:
            values = np.concatenate(
                [column[rows], np.asarray(extra, dtype=column.dtype)]
            )
        columns.append((name, kind, values))
    return _from_columns(rows.shape[0] + len(extra_rows), columns)
