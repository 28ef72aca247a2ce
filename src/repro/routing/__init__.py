"""The route stamp: :class:`RoutePlanner` is ``index.search`` plus the
route it took.

The paper routes a query one way: ``AcornIndex.search`` ranks a passing
set below ``s_min = 1/γ`` exactly and walks the rest
(:meth:`~repro.core.acorn.AcornIndex.scans`).  The planner compiles the
predicate, calls the index and stamps ``route_chosen``,
``route_reason`` and ``est_selectivity``.  See ``docs/routing.md``.
"""

from repro.routing.planner import POLICIES, ROUTE_ACORN_GAMMA, RoutePlanner

__all__ = [
    "POLICIES",
    "ROUTE_ACORN_GAMMA",
    "RoutePlanner",
]
