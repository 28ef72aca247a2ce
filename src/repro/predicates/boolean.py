"""Boolean composition of predicates: And / Or / Not.

``And`` / ``Or`` evaluate vectorised children over the whole row set
first and ``row_scan`` children (regex, and composites holding one)
only over the rows the others left undecided — survivors for ``And``,
rows not yet passing for ``Or``.
"""

from __future__ import annotations

import numpy as np

from repro.attributes.table import AttributeTable
from repro.predicates.base import Predicate


class _Junction(Predicate):
    """N-ary ``And`` (``_conj``) / ``Or``: one restricted evaluator."""

    _conj: bool

    def __init__(self, *children: Predicate) -> None:
        if len(children) < 2:
            raise ValueError(f"{type(self).__name__} requires at least two children")
        self.children = tuple(children)
        self.row_scan = any(child.row_scan for child in children)
        # Evaluation order, fixed once: vectorised children first, row
        # scans last, each group in declaration order.
        self._ordered = tuple(sorted(children, key=lambda child: child.row_scan))

    def mask(self, table: AttributeTable) -> np.ndarray:
        return self._evaluate(table, None)

    def mask_rows(self, table: AttributeTable, rows: np.ndarray) -> np.ndarray:
        return self._evaluate(table, np.asarray(rows, dtype=np.intp))

    def _evaluate(self, table: AttributeTable, rows: np.ndarray | None) -> np.ndarray:
        # rows None: every row.  Every child is called even when no row
        # is left undecided, so column/kind errors surface regardless.
        first, *rest = self._ordered
        out = (first.mask(table) if rows is None
               else first.mask_rows(table, rows)).copy()
        conj = self._conj
        for child in rest:
            if child.row_scan:
                todo = np.flatnonzero(out if conj else ~out)
                out[todo] = child.mask_rows(table, todo if rows is None else rows[todo])
                continue
            part = child.mask(table) if rows is None else child.mask_rows(table, rows)
            if conj:
                out &= part
            else:
                out |= part
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}(" + ", ".join(map(repr, self.children)) + ")"


class And(_Junction):
    """Conjunction of two or more predicates."""

    _conj = True

    def matches(self, table: AttributeTable, entity_id: int) -> bool:
        return all(child.matches(table, entity_id) for child in self.children)


class Or(_Junction):
    """Disjunction of two or more predicates."""

    _conj = False

    def matches(self, table: AttributeTable, entity_id: int) -> bool:
        return any(child.matches(table, entity_id) for child in self.children)


class Not(Predicate):
    """Negation of a predicate."""

    def __init__(self, child: Predicate) -> None:
        self.child = child
        self.row_scan = child.row_scan

    def mask(self, table: AttributeTable) -> np.ndarray:
        return ~self.child.mask(table)

    def mask_rows(self, table: AttributeTable, rows: np.ndarray) -> np.ndarray:
        return ~self.child.mask_rows(table, rows)

    def matches(self, table: AttributeTable, entity_id: int) -> bool:
        return not self.child.matches(table, entity_id)

    def __repr__(self) -> str:
        return f"Not({self.child!r})"
