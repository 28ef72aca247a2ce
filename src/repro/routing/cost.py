"""Route cost model in the paper's hardware-independent units.

Predicts distance computations per query for each graph-backed hybrid
strategy (§3.2, §6.3.2):

- **ACORN-γ** — a two-stage graph walk expanding ``O(ef + log(s·n))``
  nodes whose filtered neighborhoods hold ``min(M, s·M·γ)`` candidates
  each; below ``s_min = 1/γ`` the predicate subgraph loses its
  navigability guarantee, modeled as a ``1/(γ·s)`` connectivity blow-up.
  When the index will scan the passing set instead of walking it
  (:meth:`~repro.core.acorn.AcornIndex.scans`), the planner prices it as
  that scan, :meth:`CostModel.scan_units`: ``rows + K``.
- **ACORN-1** — the same walk over 2-hop expansions, whose filtered
  neighborhoods recover ``≈ s·M·(1+M)`` candidates (Figure 4c); its
  effective densification is M, so its blow-up threshold is ``1/M``.
- **post-filter** — unfiltered search with a ``max(ef, K/s)`` candidate
  budget (§7.2's strengthened baseline) at ``M`` computations per
  expansion.

Negative query correlation (paper §3.2.1: passing vectors sit *farther*
from the query than chance) inflates every graph-walking route — the
walk must traverse non-passing territory to reach its targets — while
leaving a scan of the passing set untouched.

Costs are expressed in *graph-walk distance-computation equivalents*,
not raw counts: a scan computes its distances in one vectorized batch,
so each of its computations costs a fixed ``scan_unit_cost`` fraction
of a graph walk's pointer-chasing computation (the paper's §3.2 cost
model likewise notes brute-force scans are the cheap regime at low
selectivity).  The discount is a fixed constant — never a measured
time — so routing decisions stay deterministic run-to-run.

The constants here are deliberately coarse: the planner multiplies each
prediction by the :class:`~repro.routing.feedback.RoutingFeedback`
calibration scale for its route, and replaces it entirely once the
(signature, route) pair has been observed.  What must be right is the
*shape* — which route wins as s, correlation, and ef vary — not the
absolute numbers.
"""

from __future__ import annotations

import math

ROUTE_ACORN_GAMMA = "acorn-gamma"
ROUTE_ACORN_ONE = "acorn-1"
ROUTE_POST_FILTER = "post-filter"

#: The ``route_chosen`` of a query whose monitored walk aborted: its
#: answer is the exact ranking of the passing rows.  Not a route.
ROUTE_PRE_FILTER = "pre-filter"

#: Deterministic tie-break order: ACORN-γ, which scans whenever the
#: passing set is small, first.
ALL_ROUTES = (
    ROUTE_ACORN_GAMMA,
    ROUTE_ACORN_ONE,
    ROUTE_POST_FILTER,
)


class CostModel:
    """Per-route cost predictions for one index's parameters.

    Args:
        n: number of indexed entities.
        m: the index degree M.
        gamma: the ACORN-γ densification factor.
        s_floor: selectivity clamp guarding the ``1/s`` terms.
        correlation_weight: how strongly negative correlation inflates
            graph-route predictions (0 disables the signal).
        scan_unit_cost: cost of one vectorized scan distance relative
            to one graph-walk distance (a scan's per-computation
            discount).  A fixed constant so routing stays
            deterministic; 1.0 recovers raw-count costing.
    """

    def __init__(
        self,
        n: int,
        m: int,
        gamma: int,
        s_floor: float = 1e-4,
        correlation_weight: float = 1.0,
        scan_unit_cost: float = 0.25,
    ) -> None:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if m <= 0 or gamma <= 0:
            raise ValueError(f"m and gamma must be positive, got {m}, {gamma}")
        self.n = int(n)
        self.m = int(m)
        self.gamma = int(gamma)
        if scan_unit_cost <= 0:
            raise ValueError(
                f"scan_unit_cost must be positive, got {scan_unit_cost}"
            )
        self.s_floor = float(s_floor)
        self.correlation_weight = float(correlation_weight)
        self.scan_unit_cost = float(scan_unit_cost)

    def scan_units(self, rows: int, k: int) -> float:
        """Predicted cost units of scanning ``rows`` passing rows."""
        return (rows + k) * self.scan_unit_cost

    def observed_units(self, exact_comps: int, scan: bool) -> float:
        """Convert one query's realized computation count into units.

        A scan's computations bill at ``scan_unit_cost``, a walk's at 1.
        This is what the planner feeds the feedback store, so
        observations stay comparable to the predictions.
        """
        return exact_comps * (self.scan_unit_cost if scan else 1.0)

    def _graph_units(
        self,
        s: float,
        k: int,
        ef_search: int,
        densification: int,
        correlation: float,
    ) -> float:
        """Shared graph-walk shape for the two ACORN routes."""
        subgraph = max(s * self.n, 2.0)
        expansions = max(ef_search, k) + math.log2(subgraph)
        per_hop = max(min(self.m, s * self.m * densification), 1.0)
        # Below 1/densification the predicate subgraph is no longer
        # navigable: each expansion yields fewer passing neighbors AND
        # the walk needs more expansions to make progress.  The squared
        # term keeps the penalty alive past the per-hop clamp (a single
        # 1/(d·s) factor would cancel against ``s·M·d`` exactly).
        blowup = max(1.0, 1.0 / (densification * s)) ** 2
        penalty = 1.0 + self.correlation_weight * max(-correlation, 0.0)
        return expansions * per_hop * blowup * penalty

    def units(
        self,
        route: str,
        selectivity: float,
        k: int,
        ef_search: int,
        correlation: float = 0.0,
    ) -> float:
        """Predicted cost units for one query on ``route``.

        Args:
            route: one of :data:`ALL_ROUTES`.
            selectivity: estimated predicate selectivity in [0, 1].
            k: neighbors requested.
            ef_search: the caller's effort knob.
            correlation: per-query correlation signal in [-1, 1]
                (negative = anti-correlated; see
                :func:`repro.datasets.correlation.point_correlation`).
        """
        s = min(max(float(selectivity), self.s_floor), 1.0)
        if route == ROUTE_ACORN_GAMMA:
            return self._graph_units(s, k, ef_search, self.gamma, correlation)
        if route == ROUTE_ACORN_ONE:
            # 2-hop expansion recovers ≈ M passing candidates per hop
            # when s·M·(1+M) ≥ M, i.e. its effective densification is M.
            return self._graph_units(s, k, ef_search, self.m, correlation)
        if route == ROUTE_POST_FILTER:
            budget = min(max(ef_search, math.ceil(k / s)), self.n or 1)
            penalty = 1.0 + self.correlation_weight * max(-correlation, 0.0)
            return budget * self.m * penalty
        raise ValueError(f"unknown route {route!r}; choose from {ALL_ROUTES}")

    def all_units(
        self,
        routes,
        selectivity: float,
        k: int,
        ef_search: int,
        correlation: float = 0.0,
    ) -> dict[str, float]:
        """Predictions for every route in ``routes`` (plan order kept)."""
        return {
            route: self.units(route, selectivity, k, ef_search, correlation)
            for route in routes
        }
