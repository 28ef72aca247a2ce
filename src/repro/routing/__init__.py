"""Adaptive cost-based query routing with runtime feedback.

The planner (:class:`RoutePlanner`) chooses among pre-filter / ACORN-γ /
ACORN-1 / post-filter per query from estimated selectivity, a query-
predicate correlation signal, and observed feedback
(:class:`RoutingFeedback`); monitored graph walks
(:class:`WalkMonitor`) that degenerate fall back to exact
pre-filtering, so routing mistakes cost efficiency, never recall.
See ``docs/routing.md``.
"""

from repro.routing.cost import (
    ALL_ROUTES,
    ROUTE_ACORN_GAMMA,
    ROUTE_ACORN_ONE,
    ROUTE_POST_FILTER,
    ROUTE_PRE_FILTER,
    CostModel,
)
from repro.routing.feedback import RouteObservation, RoutingFeedback
from repro.routing.monitor import WalkBudget, WalkMonitor
from repro.routing.planner import (
    POLICIES,
    RoutePlan,
    RoutePlanner,
)

__all__ = [
    "ALL_ROUTES",
    "POLICIES",
    "ROUTE_ACORN_GAMMA",
    "ROUTE_ACORN_ONE",
    "ROUTE_POST_FILTER",
    "ROUTE_PRE_FILTER",
    "CostModel",
    "RouteObservation",
    "RoutePlan",
    "RoutePlanner",
    "RoutingFeedback",
    "WalkBudget",
    "WalkMonitor",
]
