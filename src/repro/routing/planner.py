"""Adaptive per-query route planning across the four hybrid strategies.

:class:`RoutePlanner` generalizes the paper's static §5.2 rule
("pre-filter below ``s_min = 1/γ``, graph search above") into a
cost-based planner in the spirit of NaviX (arxiv 2506.23397): each
query's route — pre-filter, ACORN-γ, ACORN-1, or post-filter — is the
argmin of predicted cost, where the prediction combines

1. estimated selectivity from any
   :class:`~repro.predicates.selectivity.SelectivityEstimator`,
2. a per-query correlation signal
   (:func:`repro.datasets.correlation.point_correlation`), and
3. observed feedback from earlier queries in the batch
   (:class:`~repro.routing.feedback.RoutingFeedback`), which calibrates
   the :class:`~repro.routing.cost.CostModel`'s constants online and
   outright replaces predictions for already-seen predicate signatures.

Graph routes additionally run under a
:class:`~repro.routing.monitor.WalkMonitor`: a walk whose frontier
passing-rate collapses (or whose hop budget runs out) is abandoned for
an exact pre-filter fallback — the RACORN-1 recovery — so every planner
decision, right or wrong, preserves result quality.  Misroutes and
aborted walks cost distance computations, never recall; the misroute
regression suite pins exactly that.

``policy="static"`` *is* the paper's §5.2 threshold rule: pre-filter
below ``s_min``, ``index.search`` otherwise, tombstones composed once.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.baselines.prefilter import PreFilterSearcher
from repro.core.acorn import AcornIndex
from repro.datasets.correlation import point_correlation
from repro.engine.batching import BatchSearchMixin
from repro.predicates.base import CompiledPredicate, Predicate
from repro.predicates.selectivity import (
    ExactSelectivityEstimator,
    SelectivityEstimator,
)
from repro.routing.cost import (
    ALL_ROUTES,
    ROUTE_ACORN_GAMMA,
    ROUTE_ACORN_ONE,
    ROUTE_POST_FILTER,
    ROUTE_PRE_FILTER,
    CostModel,
)
from repro.routing.feedback import RoutingFeedback
from repro.routing.monitor import WalkBudget, WalkMonitor
from repro.telemetry import SearchResult, fold_telemetry

POLICIES = ("static", "adaptive")


@dataclasses.dataclass
class RoutePlan:
    """EXPLAIN-style preview of one query's routing decision.

    Attributes:
        route: the route the planner would execute first.
        reason: human-readable decision rationale.
        policy: the planner policy that produced the decision.
        estimated_selectivity: the selectivity estimate used.
        correlation: the per-query correlation signal used (0.0 when
            disabled or unavailable).
        predicted_costs: per-route predicted distance computations
            (empty for the static policy, which never costs routes).
    """

    route: str
    reason: str
    policy: str
    estimated_selectivity: float
    correlation: float
    predicted_costs: dict[str, float]


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
        policy: ``"adaptive"`` (cost-based, the default) or
            ``"static"`` (the paper's §5.2 threshold rule).
        s_min: static-policy threshold (defaults to the index's 1/γ).
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
        s_min: float | None = None,
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
        self.policy = policy
        self.estimator = (
            estimator
            if estimator is not None
            else ExactSelectivityEstimator(index.table)
        )
        self.s_min = s_min if s_min is not None else index.params.s_min
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
        self.prefilter = PreFilterSearcher(
            index.store.vectors, index.table, metric=index.metric
        )
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
        available = [ROUTE_PRE_FILTER, ROUTE_ACORN_GAMMA]
        if self.acorn_one is not None:
            available.append(ROUTE_ACORN_ONE)
        if self.postfilter is not None:
            available.append(ROUTE_POST_FILTER)
        return tuple(r for r in ALL_ROUTES if r in available)

    def _decide(
        self,
        signature: str,
        estimate: float,
        k: int,
        ef_search: int,
        correlation: float,
    ) -> RoutePlan:
        """The routing decision for one query, without executing it."""
        if self.policy == "static":
            if estimate < self.s_min:
                route, op = ROUTE_PRE_FILTER, "<"
            else:
                route, op = ROUTE_ACORN_GAMMA, ">="
            return RoutePlan(
                route=route,
                reason=(
                    f"static: estimate {estimate:.4f} {op} "
                    f"s_min {self.s_min:.4f}"
                ),
                policy=self.policy,
                estimated_selectivity=float(estimate),
                correlation=0.0,
                predicted_costs={},
            )
        available = self.routes()
        model_units = self.cost_model.all_units(
            available, estimate, k, ef_search, correlation
        )
        predicted = {
            route: self.feedback.predict(signature, route, units)
            for route, units in model_units.items()
        }
        # min() is stable, and ``available`` follows ALL_ROUTES order,
        # so ties break toward the route that is cheapest to be wrong
        # about (pre-filter first) — deterministically.
        route = min(available, key=predicted.__getitem__)
        return RoutePlan(
            route=route,
            reason=(
                f"adaptive: argmin predicted cost "
                f"{predicted[route]:.0f} (est s={estimate:.4f}, "
                f"corr={correlation:+.2f})"
            ),
            policy=self.policy,
            estimated_selectivity=float(estimate),
            correlation=float(correlation),
            predicted_costs=predicted,
        )

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
            raw = predicate.predicate
            estimate = predicate.selectivity
        else:
            raw = predicate
            estimate = self.estimator.estimate(predicate)
        return self._decide(
            raw.fingerprint(), estimate, k, ef_search, correlation=0.0
        )

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
            raw = predicate.predicate
            compiled = predicate
        else:
            raw = predicate
            compiled = predicate.compile(self.table)
        exact = compiled.selectivity
        if selectivity_hint is not None:
            estimate = float(selectivity_hint)
        elif isinstance(predicate, CompiledPredicate) and (
            self.policy == "static"
            or isinstance(self.estimator, ExactSelectivityEstimator)
        ):
            # A pre-compiled predicate carries its exact selectivity
            # (no mask re-evaluation by an exact estimator).  An
            # adaptive planner with a *non-exact* estimator still
            # consults it, so estimator error stays a live signal under
            # the batch engine's predicate cache.
            estimate = compiled.selectivity
        else:
            estimate = self.estimator.estimate(raw)

        correlation = 0.0
        if self.policy == "adaptive":
            correlation = self._correlation(query, compiled)
        signature = raw.fingerprint()
        plan = self._decide(signature, estimate, k, ef_search, correlation)
        self.last_plan = plan

        # Tombstones compose once; the graph indexes re-derive the same
        # composed mask from their per-predicate cache, so no route can
        # resurrect a deleted row.
        exec_compiled = compiled
        if self.index.num_deleted:
            mask = self.index._effective_mask(compiled.mask)
            exec_compiled = CompiledPredicate(compiled.predicate, mask)

        walk = None
        reason = plan.reason
        if plan.route == ROUTE_PRE_FILTER:
            result = self.prefilter.search(query, exec_compiled, k)
        elif plan.route == ROUTE_POST_FILTER:
            result = self.postfilter.search(
                query, exec_compiled, k, ef_search=ef_search
            )
        else:
            target = (
                self.index
                if plan.route == ROUTE_ACORN_GAMMA
                else self.acorn_one
            )
            monitor = None
            if self.policy == "adaptive" and self.walk_budget is not None:
                monitor = self._make_monitor(k, ef_search, target)
            if monitor is None:
                result = target.search(
                    query, exec_compiled, k, ef_search=ef_search
                )
            else:
                result = target.search(
                    query, exec_compiled, k, ef_search=ef_search,
                    monitor=monitor,
                )
            if monitor is not None and monitor.aborted:
                # RACORN-1 recovery: discard the degenerate walk and
                # answer exactly.  The walk stays a child of the
                # query's record — its counters are the realized price
                # of the misroute.
                reason = f"fallback from {plan.route}: {monitor.abort_reason}"
                walk = result
                result = self.prefilter.search(query, exec_compiled, k)

        fallback = walk is not None
        routed = SearchResult(
            ids=result.ids,
            distances=result.distances,
            est_selectivity=float(estimate),
            **fold_telemetry(
                (walk, result) if fallback else (result,),
                route_chosen=ROUTE_PRE_FILTER if fallback else plan.route,
                route_reason=reason,
                fallback_triggered=fallback,
                estimator_error=float(estimate - exact),
            ),
        )

        if self.policy == "adaptive":
            # Bill the *attempted* route with the query's full realized
            # cost (walk + any fallback): that is what choosing it
            # cost.  Raw counts convert to the model's units per leg,
            # so observations stay comparable to predictions.
            attempt = walk if fallback else result
            observed = self.cost_model.observed_units(
                plan.route, attempt.distance_computations,
            )
            scan_units = (
                result.distance_computations
                * self.cost_model.unit_cost(ROUTE_PRE_FILTER)
            )
            if fallback:
                observed += scan_units
            self.feedback.record(
                signature,
                plan.route,
                observed,
                model_cost=plan.predicted_costs.get(plan.route),
                hops=routed.hops,
            )
            if fallback:
                # The fallback leg doubles as an unbiased pre-filter
                # observation for this signature.
                self.feedback.record(signature, ROUTE_PRE_FILTER, scan_units)

        return routed

    # ``search_batch`` comes from BatchSearchMixin: batches run through
    # repro.engine, which calls ``begin_batch`` before fanning out and
    # surfaces the routing fields in per-query QueryStats.
