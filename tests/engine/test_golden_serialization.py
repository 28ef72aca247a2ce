"""Golden regression: pinned serialization of the instrumentation.

``QueryStats.to_dict()``, ``BatchResult.summary()``, and the sweep CSV
header feed downstream dashboards and ``benchmarks/e2e``, so their
shape must not drift silently.  These goldens pin field names,
ordering, and exact values (the inputs are hand-crafted, so every
number below is arithmetically forced).  If a deliberate schema change
moves them, update the goldens here in the same commit.
"""

import dataclasses

import pytest

from repro.engine.engine import BatchResult
from repro.engine.instrumentation import QueryStats
from repro.eval.runner import MethodSweep, SweepPoint

QUERY_STATS_FIELDS = (
    "query_index",
    "distance_computations",
    "hops",
    "visited_nodes",
    "predicate_cache_hit",
    "wall_time_s",
    "shards_probed",
    "shards_pruned",
    "route_chosen",
    "route_reason",
    "fallback_triggered",
    "estimator_error",
    "queue_wait_ms",
    "batch_size_served",
    "tenant_id",
    "epoch",
)

SUMMARY_KEYS = (
    "queries",
    "num_workers",
    "wall_time_s",
    "qps",
    "latency_s",
    "distance_computations",
    "total_distance_computations",
    "cache_hits",
    "cache_misses",
    "shards_probed",
    "shards_pruned",
    "route_counts",
    "fallbacks_triggered",
    "mean_abs_estimator_error",
    "mean_queue_wait_ms",
    "mean_batch_size_served",
    "tenant_counts",
    "max_epoch",
)

CSV_HEADER = (
    "method,effort,recall,qps,mean_distance_computations,"
    "mean_latency_s,p50_latency_s,p95_latency_s,p99_latency_s,"
    "mean_shards_probed,mean_shards_pruned,"
    "fallback_fraction,mean_abs_estimator_error,"
    "mean_queue_wait_ms,mean_batch_size_served"
)


def _stats_pair():
    plain = QueryStats(
        query_index=0, distance_computations=120, hops=40,
        visited_nodes=55, predicate_cache_hit=False, wall_time_s=0.002,
        shards_probed=3, shards_pruned=1,
    )
    served = QueryStats(
        query_index=1, distance_computations=80, hops=25,
        visited_nodes=30, predicate_cache_hit=True, wall_time_s=0.004,
        shards_probed=2, shards_pruned=2,
        route_chosen="pre-filter",
        route_reason="fallback from acorn-gamma: hop budget exhausted",
        fallback_triggered=True, estimator_error=-0.05,
        queue_wait_ms=4.0, batch_size_served=2, tenant_id="acme",
        epoch=7,
    )
    return plain, served


class TestQueryStatsGolden:
    def test_field_names_and_order_pinned(self):
        assert tuple(
            f.name for f in dataclasses.fields(QueryStats)
        ) == QUERY_STATS_FIELDS

    def test_to_dict_golden(self):
        plain, _ = _stats_pair()
        assert plain.to_dict() == {
            "query_index": 0,
            "distance_computations": 120,
            "hops": 40,
            "visited_nodes": 55,
            "predicate_cache_hit": False,
            "wall_time_s": 0.002,
            "shards_probed": 3,
            "shards_pruned": 1,
            "route_chosen": "",
            "route_reason": "",
            "fallback_triggered": False,
            "estimator_error": 0.0,
            "queue_wait_ms": 0.0,
            "batch_size_served": 0,
            "tenant_id": "",
            "epoch": 0,
        }

    def test_routing_fields_default_to_unrouted(self):
        plain, _ = _stats_pair()
        assert plain.route_chosen == ""
        assert plain.route_reason == ""
        assert plain.fallback_triggered is False
        assert plain.estimator_error == 0.0


class TestBatchSummaryGolden:
    def _summary(self):
        plain, served = _stats_pair()
        batch = BatchResult(
            results=[None, None], stats=[plain, served],
            wall_time_s=0.01, num_workers=2,
        )
        return batch.summary()

    def test_key_set_and_order_pinned(self):
        assert tuple(self._summary().keys()) == SUMMARY_KEYS

    def test_summary_values_golden(self):
        summary = self._summary()
        assert summary["queries"] == 2
        assert summary["num_workers"] == 2
        assert summary["qps"] == pytest.approx(200.0)
        assert summary["total_distance_computations"] == 200
        assert summary["cache_hits"] == 1
        assert summary["cache_misses"] == 1
        assert summary["shards_probed"] == 5
        assert summary["shards_pruned"] == 3
        # Only the second query carries a route; the first ran
        # unrouted and must not appear in the tally.
        assert summary["route_counts"] == {"pre-filter": 1}
        assert summary["fallbacks_triggered"] == 1
        assert summary["mean_abs_estimator_error"] == pytest.approx(0.025)
        # Only the second query rode a coalesced serving batch; the
        # first was a direct engine call contributing zeros to both
        # means and no tenant to the tally.
        assert summary["mean_queue_wait_ms"] == pytest.approx(2.0)
        assert summary["mean_batch_size_served"] == pytest.approx(1.0)
        assert summary["tenant_counts"] == {"acme": 1}
        # The second query ran at lifecycle epoch 7; the first was
        # un-epoched (0), and the summary reports the newest seen.
        assert summary["max_epoch"] == 7
        assert summary["latency_s"] == pytest.approx({
            "count": 2, "mean": 0.003, "p50": 0.003, "p95": 0.0039,
            "p99": 0.00398, "min": 0.002, "max": 0.004,
        })
        assert summary["distance_computations"] == pytest.approx({
            "count": 2, "mean": 100.0, "p50": 100.0, "p95": 118.0,
            "p99": 119.6, "min": 80.0, "max": 120.0,
        })


class TestSweepCsvGolden:
    def test_header_pinned(self):
        sweep = MethodSweep(method="m", points=[])
        assert sweep.to_csv() == CSV_HEADER

    def test_row_golden(self):
        point = SweepPoint(
            effort=40, recall=0.95, qps=1234.5,
            mean_distance_computations=321.0, mean_latency_s=0.0008,
            p50_latency_s=0.0007, p95_latency_s=0.0011,
            p99_latency_s=0.0013, mean_shards_probed=3.5,
            mean_shards_pruned=0.5, fallback_fraction=0.125,
            mean_abs_estimator_error=0.015625,
            mean_queue_wait_ms=1.25, mean_batch_size_served=3.75,
        )
        sweep = MethodSweep(method="acorn", points=[point])
        assert sweep.to_csv().splitlines()[1] == (
            "acorn,40,0.950000,1234.500,321.00,0.000800,0.000700,"
            "0.001100,0.001300,3.50,0.50,"
            "0.1250,0.015625,1.250,3.75"
        )

    def test_failure_columns_default_to_healthy(self):
        point = SweepPoint(
            effort=10, recall=0.5, qps=1.0,
            mean_distance_computations=1.0, mean_latency_s=0.1,
        )
        assert point.mean_shards_probed == 0.0
        assert point.mean_shards_pruned == 0.0
        assert point.fallback_fraction == 0.0
        assert point.mean_abs_estimator_error == 0.0
        assert point.mean_queue_wait_ms == 0.0
        assert point.mean_batch_size_served == 0.0
