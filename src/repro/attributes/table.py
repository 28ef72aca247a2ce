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


class KeywordColumn:
    """CSR-encoded lists of interned keyword tokens.

    ``words[token]`` is the keyword a token stands for; row ``i`` holds
    ``tokens[offsets[i]:offsets[i + 1]]``.
    """

    def __init__(self, words: list[str], offsets: np.ndarray,
                 tokens: np.ndarray) -> None:
        self.words = words
        self.vocab = {word: token for token, word in enumerate(words)}
        self.offsets = offsets
        self.tokens = tokens
        # Posting lists: rows containing each token, for inverted lookups.
        row_of_token = np.repeat(
            np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets)
        )
        order = np.argsort(self.tokens, kind="stable")
        self._sorted_rows = row_of_token[order]
        self._sorted_tokens = self.tokens[order]
        self._posting_bounds = np.searchsorted(
            self._sorted_tokens, np.arange(len(self.vocab) + 1)
        )

    @classmethod
    def interned(cls, lists: Sequence[Iterable[str]]) -> "KeywordColumn":
        """Intern ``lists`` (one keyword list per row) in first-seen order."""
        vocab: dict[str, int] = {}
        tokens: list[int] = []
        offsets = np.zeros(len(lists) + 1, dtype=np.int64)
        for row, kws in enumerate(lists):
            for kw in kws:
                tokens.append(vocab.setdefault(kw, len(vocab)))
            offsets[row + 1] = len(tokens)
        return cls(list(vocab), offsets, np.asarray(tokens, dtype=np.int64))

    @classmethod
    def gathered(cls, parts) -> "KeywordColumn":
        """``rows`` of each ``(column, rows)`` of ``parts`` in turn,
        re-interned in first-seen order: the column :meth:`interned`
        makes of the gathered lists, without a per-row pass."""
        joint: dict[str, int] = {}
        pieces, lengths = [], []
        for column, rows in parts:
            to_joint = np.fromiter(
                (joint.setdefault(word, len(joint)) for word in column.words),
                dtype=np.int64, count=len(column.words))
            starts = column.offsets[rows]
            counts = column.offsets[rows + 1] - starts
            # Token positions: each gathered row's run, laid end to end.
            at = np.arange(counts.sum()) + np.repeat(
                starts - (np.cumsum(counts) - counts), counts)
            pieces.append(to_joint[column.tokens[at]])
            lengths.append(counts)
        tokens = np.concatenate(pieces)
        seen, first = np.unique(tokens, return_index=True)
        order = seen[np.argsort(first)]  # joint tokens, first seen first
        dense = np.empty(len(joint), dtype=np.int64)
        dense[order] = np.arange(order.size)
        lengths = np.concatenate(lengths)
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        words = list(joint)
        return cls([words[t] for t in order.tolist()], offsets, dense[tokens])

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    def row_keywords(self, row: int) -> list[str]:
        """The keyword list of ``row``."""
        lo, hi = self.offsets[row], self.offsets[row + 1]
        return [self.words[t] for t in self.tokens[lo:hi]]

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

    @classmethod
    def from_columns(cls, num_rows: int, columns) -> "AttributeTable":
        """A table over ``(name, kind, payload)`` triples whose payloads
        are already in their kind's layout — an int64 / float64 / object
        array, or a keyword column — installed as they are, not copied."""
        out = cls(num_rows)
        for name, kind, payload in columns:
            out._check_new(name, len(payload))
            out._columns[name] = (kind, payload)
        return out

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
        col = KeywordColumn.interned(lists)
        self._check_new(name, len(col))
        self._columns[name] = (ColumnKind.KEYWORDS, col)

    def add_keywords_csr(self, name: str, words: list[str],
                         offsets: np.ndarray, tokens: np.ndarray) -> None:
        """Add a keyword-list column already interned: ``words[token]``
        is a token's keyword and row ``i`` holds
        ``tokens[offsets[i]:offsets[i + 1]]`` (how an index image
        stores one)."""
        col = KeywordColumn(words, offsets, tokens)
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


def concat_tables(parts) -> AttributeTable:
    """A new table: for each ``(table, rows)`` of ``parts`` in turn,
    ``rows`` of ``table`` in order.

    Every part has the first's columns and kinds.  Columns are sliced
    as arrays; keyword columns are gathered and re-interned in
    first-seen order (vocabularies shrink with a shard), as interning
    the rows' lists one by one would.
    """
    parts = [(table, np.asarray(rows, dtype=np.int64)) for table, rows in parts]
    first = parts[0][0]
    columns = []
    for name in first.column_names:
        kind = first.column_kind(name)
        sources = [(table.column(name), rows) for table, rows in parts]
        if kind is ColumnKind.KEYWORDS:
            payload = KeywordColumn.gathered(sources)
        else:
            payload = np.concatenate([column[rows] for column, rows in sources])
        columns.append((name, kind, payload))
    return AttributeTable.from_columns(
        sum(rows.shape[0] for _, rows in parts), columns)


def subset_table(table: AttributeTable, rows) -> AttributeTable:
    """A new table of ``rows`` of ``table`` in order (row ``j`` is the
    source's ``rows[j]``); see :func:`concat_tables`."""
    return concat_tables([(table, rows)])
