"""The route stamp over an ACORN index.

The paper routes a query one way.  Its §5.2 rule (rank the passing set
exactly below ``s_min = 1/γ`` instead of walking it) is the index's own,
:meth:`~repro.core.acorn.AcornIndex.scans`, applied inside
``AcornIndex.search``.  :class:`RoutePlanner` compiles the predicate,
runs ``index.search`` and stamps that route onto the index's own
fresh result; the ids, distances and counters are the index's,
unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.core.acorn import AcornIndex
from repro.core.searcher import Searcher
from repro.predicates.base import CompiledPredicate, Predicate
from repro.telemetry import SearchResult

POLICIES = ("adaptive",)
ROUTE_ACORN_GAMMA = "acorn-gamma"
#: ``route_reason`` when the index ranked the passing set exactly.
REASON_SCANS = f"adaptive: {ROUTE_ACORN_GAMMA}, the only route, scans"
#: ``route_reason`` when the index walked the graph.
REASON_WALKS = f"adaptive: {ROUTE_ACORN_GAMMA}, the only route, walks"


class RoutePlanner(Searcher):
    """``index.search`` with its route stamped on the result.

    Args:
        index: the index every query runs on (ACORN-γ, ACORN-1 or flat).
        policy: ``"adaptive"``, the only policy (kept as a keyword for
            callers that name it).
    """

    def __init__(self, index: AcornIndex, policy: str = "adaptive") -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {POLICIES}"
            )
        self.index = index
        self.table = index.table

    def freeze(self) -> None:
        """Freeze the index's adjacency snapshot (batch-engine hook)."""
        self.index.freeze()

    def search(
        self,
        query: np.ndarray,
        predicate: "Predicate | CompiledPredicate",
        k: int,
        ef_search: int = 64,
    ) -> SearchResult:
        """``index.search``, stamped: ``route_chosen`` is ACORN-γ,
        ``route_reason`` says whether the index scanned or walked, and
        ``est_selectivity`` is the compiled predicate's exact
        selectivity.

        The three fields are written onto the record the index just
        built for this query — nothing else holds it yet — so the
        planner adds no record of its own, and leaves the refusal of a
        bad ``k`` / ``ef_search`` to the index.
        """
        predicate = self._compile(predicate)
        result = self.index.search(query, predicate, k, ef_search=ef_search)
        stamp = result.__dict__
        stamp["est_selectivity"] = predicate.selectivity
        stamp["route_chosen"] = ROUTE_ACORN_GAMMA
        stamp["route_reason"] = REASON_WALKS if result.hops else REASON_SCANS
        return result
