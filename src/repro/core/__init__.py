"""ACORN: the paper's primary contribution.

Two indices implement predicate-subgraph traversal over a modified
HNSW (paper §5):

- :class:`AcornIndex` — ACORN-γ, which densifies the graph at
  construction time (M·γ candidate edges per node, predicate-agnostic
  Mβ compression on level 0) and filters neighbor lists by the query
  predicate at search time;
- :class:`AcornOneIndex` — ACORN-1, which builds a plain (unpruned)
  HNSW and instead expands one-hop+two-hop neighborhoods during search.

:class:`repro.routing.RoutePlanner` wraps either index with the paper's
cost-based router (§5.2; ``policy="static"`` is the rule verbatim):
queries whose estimated selectivity falls below ``s_min = 1/γ`` fall
back to pre-filtering.
"""

from repro.core.acorn import AcornIndex, AcornOneIndex
from repro.core.flat import FlatAcornIndex
from repro.core.params import AcornParams
from repro.core.search import FrozenLevel, freeze_graph

__all__ = [
    "AcornIndex",
    "AcornOneIndex",
    "AcornParams",
    "FlatAcornIndex",
    "FrozenLevel",
    "freeze_graph",
]
