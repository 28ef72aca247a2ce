"""Regex predicates over string columns.

The LAION workloads search image captions with regular expressions of
2-10 tokens (paper §7.1.2) — the canonical "unbounded predicate set"
that specialized indices cannot serve.  Evaluation compiles the pattern
once and scans only the caption rows it is asked about; verdicts are
kept in the table's row memo
(:meth:`~repro.attributes.table.AttributeTable.memo_rows`), so each
(pattern, row) pair is matched at most once per table object.
"""

from __future__ import annotations

import re

import numpy as np

from repro.attributes.table import AttributeTable, ColumnKind
from repro.predicates.base import Predicate


class RegexMatch(Predicate):
    """Entity passes when ``pattern`` matches anywhere in the string attr."""

    row_scan = True

    def __init__(self, column: str, pattern: str) -> None:
        self.column = column
        self.pattern = pattern
        try:
            self._compiled = re.compile(pattern)
        except re.error as exc:
            raise ValueError(f"invalid regex {pattern!r}: {exc}") from exc

    def mask(self, table: AttributeTable) -> np.ndarray:
        return self.mask_rows(table, np.arange(len(table)))

    def mask_rows(self, table: AttributeTable, rows: np.ndarray) -> np.ndarray:
        kind = table.column_kind(self.column)
        if kind is not ColumnKind.STRING:
            raise ValueError(
                f"column {self.column!r} is {kind.value}; regex predicates "
                "require a string column"
            )
        col = table.column(self.column)
        search = self._compiled.search

        def scan(todo: np.ndarray) -> np.ndarray:
            hits = (search(text) is not None for text in col[todo])
            return np.fromiter(hits, dtype=bool, count=todo.shape[0])

        rows = np.asarray(rows, dtype=np.intp)
        return table.memo_rows((self.column, self.pattern), rows, scan)

    def matches(self, table: AttributeTable, entity_id: int) -> bool:
        return self._compiled.search(table.column(self.column)[entity_id]) is not None

    def __repr__(self) -> str:
        return f"RegexMatch({self.column!r}, {self.pattern!r})"
