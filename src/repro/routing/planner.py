"""Per-query route planning across the hybrid strategies.

The paper's §5.2 rule is the index's own: ``AcornIndex.search`` ranks a
passing set below ``s_min = 1/γ`` exactly instead of walking it
(:meth:`~repro.core.acorn.AcornIndex.scans`).  Over ACORN-γ alone,
:class:`RoutePlanner` has nothing to decide: a query compiles, runs
``index.search`` and is stamped with its route.  With an ACORN-1 index
or a post-filter searcher beside it, each query's route is the argmin of
predicted cost, in the spirit of NaviX (arxiv 2506.23397), from the
estimated selectivity, an optional query-predicate correlation signal
(:func:`repro.datasets.correlation.point_correlation`) and observed
feedback (:class:`~repro.routing.feedback.RoutingFeedback`), which
calibrates the :class:`~repro.routing.cost.CostModel` online and
replaces predictions for already-seen predicate signatures.  ACORN-γ is
priced as the scan whenever the index will scan.

Graph routes run under a :class:`~repro.routing.monitor.WalkMonitor`: a
walk whose frontier passing-rate collapses (or whose hop budget runs
out) is abandoned for an exact ranking of the walked index's passing
rows — the RACORN-1 recovery — so a misroute costs distance
computations, never recall.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.acorn import AcornIndex
from repro.datasets.correlation import point_correlation
from repro.engine.batching import BatchSearchMixin
from repro.predicates.base import CompiledPredicate, Predicate
from repro.predicates.selectivity import (
    ExactSelectivityEstimator,
    SelectivityEstimator,
)
from repro.routing.cost import (
    ROUTE_ACORN_GAMMA,
    ROUTE_ACORN_ONE,
    ROUTE_POST_FILTER,
    ROUTE_PRE_FILTER,
    CostModel,
)
from repro.routing.feedback import RoutingFeedback
from repro.routing.monitor import WalkBudget, WalkMonitor
from repro.telemetry import SearchResult, fold_telemetry
from repro.vectors.distance import exact_top_k

POLICIES = ("adaptive",)

_SCANS = f"adaptive: {ROUTE_ACORN_GAMMA}, the only route, scans"
_WALKS = f"adaptive: {ROUTE_ACORN_GAMMA}, the only route, walks"


@dataclasses.dataclass
class RoutePlan:
    """EXPLAIN-style preview of one query's routing decision.

    Attributes:
        route: the route the planner would execute first.
        reason: human-readable decision rationale.
        estimated_selectivity: the selectivity estimate used.
        correlation: the per-query correlation signal used (0.0 when
            disabled or unavailable).
        predicted_costs: per-route predicted cost units (empty when
            ACORN-γ is the only route: nothing is costed).
    """

    route: str
    reason: str
    estimated_selectivity: float
    correlation: float
    predicted_costs: dict[str, float]


def _only_route(estimate: float, scans: bool) -> RoutePlan:
    """The plan over ACORN-γ alone: nothing is costed."""
    return RoutePlan(ROUTE_ACORN_GAMMA, _SCANS if scans else _WALKS,
                     float(estimate), 0.0, {})


class RoutePlanner(BatchSearchMixin):
    """Cost-based per-query router over the hybrid-search strategies.

    Args:
        index: the ACORN-γ index (always available as a route; also
            supplies the table, vectors, metric, and parameters).
        acorn_one: optional ACORN-1 index over the same vectors/table;
            enables the ``acorn-1`` route.
        postfilter: optional
            :class:`~repro.baselines.postfilter.PostFilterSearcher`
            over the same vectors/table; enables ``post-filter``.
        estimator: selectivity estimator consulted for raw predicates
            (exact mask evaluation by default — what a system with
            precomputed filter bitmaps effectively has).
        policy: ``"adaptive"``, the only policy (kept as a keyword for
            callers that name it).
        cost_model: route cost model (defaults to one shaped by the
            index's n/M/γ).
        feedback: the online feedback store; supply a shared instance
            to carry calibration across planners, or leave default for
            a private one.
        walk_budget: :class:`~repro.routing.monitor.WalkBudget` for
            monitored graph walks, ``"auto"`` (default) to derive a
            hop budget from each query's effort, or None to disable
            mid-search fallback entirely.
        correlation_samples: per-query sample size for the correlation
            signal (0 disables it — estimation-only routing).
        correlation_seed: RNG seed for the correlation probe's uniform
            sample (fixed per planner, keeping decisions deterministic).
    """

    def __init__(
        self,
        index: AcornIndex,
        acorn_one: AcornIndex | None = None,
        postfilter=None,
        estimator: SelectivityEstimator | None = None,
        policy: str = "adaptive",
        cost_model: CostModel | None = None,
        feedback: RoutingFeedback | None = None,
        walk_budget="auto",
        correlation_samples: int = 0,
        correlation_seed: int = 0,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {POLICIES}"
            )
        if walk_budget is not None and walk_budget != "auto":
            if not isinstance(walk_budget, WalkBudget):
                raise TypeError(
                    "walk_budget must be a WalkBudget, 'auto', or None"
                )
        self.index = index
        self.table = index.table
        self.acorn_one = acorn_one
        self.postfilter = postfilter
        self.estimator = (
            estimator
            if estimator is not None
            else ExactSelectivityEstimator(index.table)
        )
        self.cost_model = (
            cost_model
            if cost_model is not None
            else CostModel(
                n=len(index), m=index.params.m, gamma=index.params.gamma
            )
        )
        self.feedback = feedback if feedback is not None else RoutingFeedback()
        self.walk_budget = walk_budget
        self.correlation_samples = int(correlation_samples)
        self.correlation_seed = int(correlation_seed)
        self.last_plan: RoutePlan | None = None

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------

    def freeze(self) -> None:
        """Freeze every backend's adjacency snapshot (batch-engine hook)."""
        if len(self.index):
            self.index.freeze()
        if self.acorn_one is not None and len(self.acorn_one):
            self.acorn_one.freeze()
        postfreeze = getattr(self.postfilter, "freeze", None)
        if callable(postfreeze):
            postfreeze()

    def begin_batch(self) -> None:
        """Batch-lifecycle hook: forwarded to the feedback store."""
        self.feedback.begin_batch()

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def routes(self) -> tuple[str, ...]:
        """Available routes, in deterministic tie-break order."""
        available = [ROUTE_ACORN_GAMMA]
        if self.acorn_one is not None:
            available.append(ROUTE_ACORN_ONE)
        if self.postfilter is not None:
            available.append(ROUTE_POST_FILTER)
        return tuple(available)

    def _decide(self, signature: str, estimate: float, k: int,
                ef_search: int, correlation: float,
                scan_rows: int | None) -> RoutePlan:
        """The routing decision for one query, without executing it.

        ``scan_rows`` is the live passing count when ACORN-γ will scan
        it (None when it walks); ACORN-γ is then priced as that scan.
        """
        if self.acorn_one is None and self.postfilter is None:
            return _only_route(estimate, scans=scan_rows is not None)
        routes = self.routes()
        units = self.cost_model.all_units(
            routes, estimate, k, ef_search, correlation)
        if scan_rows is not None:
            units[ROUTE_ACORN_GAMMA] = self.cost_model.scan_units(
                scan_rows, k)
        predicted = {route: self.feedback.predict(signature, route, cost)
                     for route, cost in units.items()}
        # min() is stable and ``routes`` follows ALL_ROUTES order, so
        # ties break toward ACORN-γ — deterministically.
        route = min(routes, key=predicted.__getitem__)
        reason = (f"adaptive: argmin predicted cost {predicted[route]:.0f} "
                  f"(est s={estimate:.4f}, corr={correlation:+.2f})")
        return RoutePlan(route, reason, float(estimate), float(correlation),
                         predicted)

    def _scan_rows(self, compiled: CompiledPredicate, k: int,
                   ef_search: int) -> int | None:
        """The live stored passing count if ACORN-γ scans it, else None."""
        mask = self.index._effective_mask(compiled.mask)
        count = int(np.count_nonzero(mask[: len(self.index)]))
        return count if self.index.scans(count, k, ef_search) else None

    def plan(
        self,
        predicate: "Predicate | CompiledPredicate",
        k: int,
        ef_search: int = 64,
    ) -> RoutePlan:
        """EXPLAIN: the decision one query would get, without searching.

        The correlation signal needs the query vector, so planning
        without one uses a neutral 0.0.
        """
        if isinstance(predicate, CompiledPredicate):
            raw, compiled = predicate.predicate, predicate
            estimate = predicate.selectivity
        else:
            raw, compiled = predicate, predicate.compile(self.table)
            estimate = self.estimator.estimate(predicate)
        return self._decide(raw.fingerprint(), estimate, k, ef_search, 0.0,
                            self._scan_rows(compiled, k, ef_search))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _make_monitor(self, k: int, ef_search: int, target) -> WalkMonitor:
        budget = self.walk_budget
        if budget == "auto":
            budget = WalkBudget(hop_budget=4 * max(ef_search, k) + 32)
        return WalkMonitor(budget, m=target.params.m)

    def _correlation(
        self, query: np.ndarray, compiled: CompiledPredicate
    ) -> float:
        if (
            self.correlation_samples <= 0
            or len(self.index) == 0
            or compiled.cardinality == 0
        ):
            return 0.0
        return point_correlation(
            self.index.store.vectors,
            query,
            compiled.passing_ids,
            n_samples=self.correlation_samples,
            seed=self.correlation_seed,
            metric=self.index.metric,
        )

    def _walk(self, target, query, compiled, k, ef_search):
        """``target.search`` under the walk monitor, as
        ``(result, walk, abort_reason)``.

        After an abort the walk is kept as ``walk`` (its counters are
        the realized price of the misroute) and ``result`` is the exact
        top-k of the walked index's live passing rows.
        """
        monitor = None
        if self.walk_budget is not None:
            monitor = self._make_monitor(k, ef_search, target)
        result = target.search(query, compiled, k, ef_search=ef_search,
                               monitor=monitor)
        if monitor is None or not monitor.aborted:
            return result, None, ""
        computer = target.store.computer()
        mask = target._effective_mask(compiled.mask)
        ids, dists = exact_top_k(computer, computer.set_query(query),
                                 np.flatnonzero(mask[: len(target.store)]), k)
        exact = SearchResult(ids=ids, distances=dists,
                             distance_computations=computer.count)
        return exact, result, monitor.abort_reason

    def search(
        self,
        query: np.ndarray,
        predicate: "Predicate | CompiledPredicate",
        k: int,
        ef_search: int = 64,
        selectivity_hint: float | None = None,
    ) -> SearchResult:
        """Answer one hybrid query on the planner's chosen route.

        Args:
            selectivity_hint: optional externally-supplied selectivity
                estimate (the sharded index passes its router's
                per-shard summary estimate as the prior), overriding
                the planner's estimator.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if isinstance(predicate, CompiledPredicate):
            raw, compiled = predicate.predicate, predicate
        else:
            raw, compiled = predicate, predicate.compile(self.table)
        if selectivity_hint is not None:
            estimate = float(selectivity_hint)
        elif compiled is predicate and isinstance(
            self.estimator, ExactSelectivityEstimator
        ):
            # A pre-compiled predicate carries its exact selectivity.  A
            # *non-exact* estimator is still consulted, so estimator
            # error stays a live signal under the engine's predicate
            # cache.
            estimate = compiled.selectivity
        else:
            estimate = self.estimator.estimate(raw)

        if self.acorn_one is None and self.postfilter is None:
            result, walk, abort = self._walk(self.index, query, compiled, k,
                                             ef_search)
            self.last_plan = _only_route(
                estimate, scans=walk is None and result.hops == 0)
            return self._stamp(self.last_plan, result, walk, abort,
                               estimate, compiled.selectivity)

        # Tombstones compose once; the graph indexes re-derive the same
        # composed mask from their per-predicate cache, so no route can
        # resurrect a deleted row.
        exact = compiled.selectivity
        if self.index.num_deleted:
            mask = self.index._effective_mask(compiled.mask)
            compiled = CompiledPredicate(compiled.predicate, mask)
        signature = raw.fingerprint()
        scan_rows = self._scan_rows(compiled, k, ef_search)
        plan = self._decide(signature, estimate, k, ef_search,
                            self._correlation(query, compiled), scan_rows)
        self.last_plan = plan
        if plan.route == ROUTE_POST_FILTER:
            walk, abort = None, ""
            result = self.postfilter.search(query, compiled, k,
                                            ef_search=ef_search)
        else:
            target = (self.index if plan.route == ROUTE_ACORN_GAMMA
                      else self.acorn_one)
            result, walk, abort = self._walk(target, query, compiled, k,
                                             ef_search)
        routed = self._stamp(plan, result, walk, abort, estimate, exact)

        # Bill the *attempted* route with the query's full realized cost
        # (walk + any fallback scan), in the model's units per leg, so
        # observations stay comparable to predictions.
        attempt = result if walk is None else walk
        observed = self.cost_model.observed_units(
            attempt.distance_computations,
            scan=plan.route == ROUTE_ACORN_GAMMA and scan_rows is not None)
        if walk is not None:
            observed += self.cost_model.observed_units(
                result.distance_computations, scan=True)
        self.feedback.record(signature, plan.route, observed,
                             model_cost=plan.predicted_costs.get(plan.route),
                             hops=routed.hops)
        return routed

    @staticmethod
    def _stamp(plan, result, walk, abort, estimate, exact) -> SearchResult:
        """``result`` with the plan's telemetry; an aborted ``walk`` is
        folded in as a child."""
        fallback = walk is not None
        return SearchResult(
            ids=result.ids,
            distances=result.distances,
            est_selectivity=float(estimate),
            **fold_telemetry(
                (walk, result) if fallback else (result,),
                route_chosen=ROUTE_PRE_FILTER if fallback else plan.route,
                route_reason=(f"fallback from {plan.route}: {abort}"
                              if fallback else plan.reason),
                fallback_triggered=fallback,
                estimator_error=float(estimate - exact),
            ),
        )

    # ``search_batch`` comes from BatchSearchMixin: batches run through
    # repro.engine, which calls ``begin_batch`` before fanning out and
    # surfaces the routing fields in per-query QueryStats.
