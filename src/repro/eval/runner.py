"""Recall-QPS sweep runner.

The paper's figures plot recall@10 against queries-per-second, tracing
one curve per method by sweeping the search-effort parameter (efs for
the graph methods, L for the Vamana family, nprobe for IVF; §7.2).
:class:`SweepRunner` reproduces that protocol for any object exposing
``search(query, predicate, k, ef_search=...) -> SearchResult``.

Every operating point executes through the batch engine
(:class:`repro.engine.SearchEngine`), so per-query costs come from the
engine's ``QueryStats`` instrumentation — in particular, Table 3's
distance-computation counts are read from ``QueryStats`` rather than
re-derived from raw results — and latency percentiles use the shared
:func:`repro.eval.stats.percentile_summary` aggregation.  A
``num_workers`` knob turns the same sweep into a concurrent-throughput
measurement.

Because pure-Python wall-clock QPS also measures interpreter overhead,
each sweep point additionally records mean *distance computations per
query* — the paper's own dominant-cost model (§3.2) — and comparative
assertions in the benchmark suite may consult either measure
(see DESIGN.md §3).
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Sequence

import numpy as np

from repro.datasets.base import HybridDataset
from repro.engine.engine import QueryBatch, SearchEngine
from repro.eval.metrics import recall_at_k
from repro.eval.stats import percentile_summary


def _column(
    fmt: str,
    source: str | None = None,
    default=dataclasses.MISSING,
    reducer=np.mean,
):
    """One sweep column: its CSV format spec and, for telemetry
    columns, the :class:`~repro.telemetry.QueryStats` field that
    ``reducer`` folds over the point's queries."""
    return dataclasses.field(
        default=default,
        metadata={"fmt": fmt, "source": source, "reducer": reducer},
    )


@dataclasses.dataclass
class SweepPoint:
    """One operating point of a method's recall-QPS curve.

    The field list *is* the sweep schema: CSV header, row format and
    the per-point telemetry reduction are all read from it.
    """

    effort: int = _column("d")
    recall: float = _column(".6f")
    qps: float = _column(".3f")
    mean_distance_computations: float = _column(".2f", "distance_computations")
    mean_latency_s: float = _column(".6f")
    p50_latency_s: float = _column(".6f", default=0.0)
    p95_latency_s: float = _column(".6f", default=0.0)
    p99_latency_s: float = _column(".6f", default=0.0)
    mean_shards_probed: float = _column(".2f", "shards_probed", 0.0)
    mean_shards_pruned: float = _column(".2f", "shards_pruned", 0.0)
    mean_shards_failed: float = _column(".2f", "shards_failed", 0.0)
    mean_shards_timed_out: float = _column(".2f", "shards_timed_out", 0.0)
    degraded_fraction: float = _column(".4f", "degraded", 0.0)
    mean_recall_ceiling: float = _column(".4f", "recall_ceiling", 1.0)
    fallback_fraction: float = _column(".4f", "fallback_triggered", 0.0)
    mean_abs_estimator_error: float = _column(
        ".6f", "estimator_error", 0.0, reducer=lambda v: np.mean(np.abs(v))
    )
    mean_quantized_distances: float = _column(
        ".2f", "quantized_distances", 0.0
    )
    mean_rerank_distances: float = _column(".2f", "rerank_distances", 0.0)
    mean_queue_wait_ms: float = _column(".3f", "queue_wait_ms", 0.0)
    mean_batch_size_served: float = _column(".2f", "batch_size_served", 0.0)


_COLUMNS = dataclasses.fields(SweepPoint)


@dataclasses.dataclass
class MethodSweep:
    """A method's full curve plus convenience lookups."""

    method: str
    points: list[SweepPoint]

    def to_csv(self) -> str:
        """The curve as CSV (header + one row per operating point),
        ready for external plotting tools."""
        lines = [",".join(["method", *(c.name for c in _COLUMNS)])]
        for p in self.points:
            lines.append(",".join([self.method, *(
                format(getattr(p, c.name), c.metadata["fmt"])
                for c in _COLUMNS
            )]))
        return "\n".join(lines)

    def qps_at_recall(self, target: float) -> float | None:
        """Best QPS among points meeting ``recall >= target`` (paper's
        "QPS at 0.9 recall" headline metric); None if never reached."""
        eligible = [p.qps for p in self.points if p.recall >= target]
        return max(eligible) if eligible else None

    def distance_computations_at_recall(self, target: float) -> float | None:
        """Fewest distance computations reaching ``target`` recall
        (Table 3's metric); None if never reached."""
        eligible = [
            p.mean_distance_computations
            for p in self.points
            if p.recall >= target
        ]
        return min(eligible) if eligible else None

    def max_recall(self) -> float:
        """Highest recall the method attains anywhere on its curve."""
        return max(p.recall for p in self.points)


class SweepRunner:
    """Runs recall-QPS sweeps for one dataset and K.

    Predicates are compiled once per workload and shared across methods
    and sweep points, so curves differ only in search behaviour (the
    paper's baselines likewise amortize filter bitmaps; §7.2).

    Args:
        dataset: the hybrid workload to sweep.
        k: neighbors per query.
        num_workers: engine worker threads per operating point; the
            default 1 preserves the paper's single-threaded QPS
            semantics, higher values measure concurrent throughput.
    """

    def __init__(
        self, dataset: HybridDataset, k: int = 10, num_workers: int = 1
    ) -> None:
        self.dataset = dataset
        self.k = int(k)
        self.num_workers = int(num_workers)
        self.ground_truth = dataset.ground_truth(self.k)
        self.compiled = dataset.compiled_predicates()
        self._query_matrix = np.stack(
            [np.asarray(q.vector, dtype=np.float32) for q in dataset.queries]
        )

    def sweep(
        self,
        method_name: str,
        searcher,
        efforts: Sequence[int] = (10, 20, 40, 80, 160, 320),
    ) -> MethodSweep:
        """Trace one method's curve over the effort values."""
        points = [self.run_point(searcher, effort) for effort in efforts]
        return MethodSweep(method=method_name, points=points)

    def run_point(self, searcher, effort: int) -> SweepPoint:
        """Measure one operating point (all queries once, via the engine)."""
        batch = QueryBatch.build(
            self._query_matrix, list(self.compiled),
            k=self.k, ef_search=int(effort),
        )
        start = time.perf_counter()
        with SearchEngine(searcher, num_workers=self.num_workers) as engine:
            outcome = engine.search_batch(batch)
        elapsed = time.perf_counter() - start

        recalls = [
            recall_at_k(result.ids, gt, self.k)
            for result, gt in zip(outcome.results, self.ground_truth)
        ]
        latency = percentile_summary(s.wall_time_s for s in outcome.stats)
        n_queries = len(batch)
        return SweepPoint(
            effort=int(effort),
            recall=float(np.mean(recalls)),
            qps=n_queries / elapsed if elapsed > 0 else float("inf"),
            mean_latency_s=elapsed / n_queries,
            p50_latency_s=latency.p50,
            p95_latency_s=latency.p95,
            p99_latency_s=latency.p99,
            # Table 3's cost measure and every other telemetry column
            # come from the engine's per-query instrumentation.
            **{
                c.name: float(c.metadata["reducer"](
                    [getattr(s, c.metadata["source"]) for s in outcome.stats]
                ))
                for c in _COLUMNS if c.metadata["source"]
            },
        )
