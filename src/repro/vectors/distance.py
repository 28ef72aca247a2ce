"""Distance metrics with exact computation counting.

All search structures in this library compare vectors through a
:class:`DistanceComputer`.  The computer is bound to one base dataset and
counts every query-to-base distance it evaluates, which gives us the
hardware-independent cost measure used throughout the paper (Table 3,
§3.2's "distance computations dominate search performance").

Distances are *rank-preserving* rather than true metrics where that is
cheaper: ``l2`` returns squared Euclidean distance and ``cosine`` returns
``1 - cos``.  Nearest-neighbor order is identical to the true metric.
"""

from __future__ import annotations

import enum
import threading

import numpy as np


class Metric(enum.Enum):
    """Supported vector comparison metrics."""

    L2 = "l2"
    INNER_PRODUCT = "ip"
    COSINE = "cosine"


METRICS = tuple(m.value for m in Metric)


def resolve_metric(metric: "Metric | str") -> Metric:
    """Normalize a metric name or enum member into a :class:`Metric`.

    Raises:
        ValueError: if ``metric`` is not one of ``l2``, ``ip``, ``cosine``.
    """
    if isinstance(metric, Metric):
        return metric
    try:
        return Metric(metric)
    except ValueError:
        raise ValueError(
            f"unknown metric {metric!r}; expected one of {METRICS}"
        ) from None


def _l2_sq(base: np.ndarray, query: np.ndarray) -> np.ndarray:
    diff = base - query
    return np.einsum("ij,ij->i", diff, diff)


def _neg_ip(base: np.ndarray, query: np.ndarray) -> np.ndarray:
    # Negated so that "smaller is closer" holds for every metric.
    return -(base @ query)


def _cosine_dist(base: np.ndarray, query: np.ndarray) -> np.ndarray:
    qn = np.linalg.norm(query)
    bn = np.linalg.norm(base, axis=1)
    denom = np.maximum(bn * qn, np.finfo(np.float32).tiny)
    return 1.0 - (base @ query) / denom


_KERNELS = {
    Metric.L2: _l2_sq,
    Metric.INNER_PRODUCT: _neg_ip,
    Metric.COSINE: _cosine_dist,
}


def pairwise_distances(
    base: np.ndarray, queries: np.ndarray, metric: "Metric | str" = Metric.L2
) -> np.ndarray:
    """Return the full ``(len(queries), len(base))`` distance matrix.

    Used by ground-truth computation and the pre-filter baseline, where a
    single vectorized pass over the candidate set is the whole algorithm.
    """
    metric = resolve_metric(metric)
    base = np.asarray(base, dtype=np.float32)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    if metric is Metric.L2:
        b_sq = np.einsum("ij,ij->i", base, base)
        q_sq = np.einsum("ij,ij->i", queries, queries)
        cross = queries @ base.T
        out = q_sq[:, None] + b_sq[None, :] - 2.0 * cross
        return np.maximum(out, 0.0)
    if metric is Metric.INNER_PRODUCT:
        return -(queries @ base.T)
    qn = np.linalg.norm(queries, axis=1)
    bn = np.linalg.norm(base, axis=1)
    denom = np.maximum(np.outer(qn, bn), np.finfo(np.float32).tiny)
    return 1.0 - (queries @ base.T) / denom


class _GlobalTally:
    """Process-wide, thread-safe running total of distance evaluations.

    Every :class:`DistanceComputer` reports its evaluations here in
    addition to its own per-computer count.  The tally is monotonic —
    per-computer :meth:`DistanceComputer.reset` calls do not rewind it —
    so concurrency tests can assert that the tally's delta across a
    workload equals the sum of per-query counts (a mismatch means a
    counter increment raced and was lost).
    """

    __slots__ = ("_lock", "_total")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._total = 0

    def add(self, n: int) -> None:
        """Atomically record ``n`` distance evaluations."""
        with self._lock:
            self._total += int(n)

    @property
    def total(self) -> int:
        """Total evaluations recorded since process start."""
        with self._lock:
            return self._total


GLOBAL_TALLY = _GlobalTally()
"""The process-wide distance-evaluation tally shared by all computers."""


def _cosine_from_norms(
    rows: np.ndarray, norms: np.ndarray, query: np.ndarray
) -> np.ndarray:
    """Cosine distance using precomputed base-row norms."""
    qn = np.linalg.norm(query)
    denom = np.maximum(norms * qn, np.finfo(np.float32).tiny)
    return 1.0 - (rows @ query) / denom


class DistanceComputer:
    """Batched query-to-base distances over one dataset, with counting.

    One computer is bound to a base matrix; search code calls
    :meth:`distances_to` with node ids to get distances from the current
    query to those base vectors.  ``count`` accumulates the number of
    individual distance evaluations, which the evaluation harness reads
    to reproduce Table 3.

    Counting is thread-safe: increments go through a lock (and are
    mirrored into :data:`GLOBAL_TALLY`), so a computer shared by the
    concurrent batch engine never loses increments to races.  A search
    path that owns its computer exclusively can instead switch to
    *deferred* counting (:meth:`defer_counts`): evaluations accumulate
    in a plain local integer and :meth:`flush_counts` settles them into
    ``count`` and :data:`GLOBAL_TALLY` once per query — two lock
    acquisitions per query instead of two per graph hop.

    For the cosine metric, base-vector norms are computed once at
    construction (or passed in precomputed by
    :class:`~repro.vectors.store.VectorStore`) instead of being
    recomputed on every :meth:`distances_to`/:meth:`distance_one` call.

    Attributes:
        count: total distances computed since construction or last
            :meth:`reset` (deferred-but-unflushed evaluations included).
    """

    def __init__(
        self,
        base: np.ndarray,
        metric: "Metric | str" = Metric.L2,
        base_norms: np.ndarray | None = None,
    ) -> None:
        base = np.asarray(base, dtype=np.float32)
        if base.ndim != 2:
            raise ValueError(f"base must be 2-D, got shape {base.shape}")
        self.base = base
        self.metric = resolve_metric(metric)
        self._kernel = _KERNELS[self.metric]
        if self.metric is Metric.COSINE:
            if base_norms is None:
                base_norms = np.linalg.norm(base, axis=1)
            elif base_norms.shape[0] != base.shape[0]:
                raise ValueError(
                    f"base_norms covers {base_norms.shape[0]} rows, base "
                    f"has {base.shape[0]}"
                )
            self._base_norms = base_norms
        else:
            self._base_norms = None
        self._count_lock = threading.Lock()
        self._count = 0
        self._deferred = False
        self._pending = 0

    @property
    def count(self) -> int:
        """Distances evaluated since construction or last :meth:`reset`."""
        return self._count + self._pending

    @count.setter
    def count(self, value: int) -> None:
        with self._count_lock:
            self._count = int(value)
            self._pending = 0

    def add_count(self, n: int) -> None:
        """Record ``n`` distance evaluations.

        Thread-safe by default (lock + :data:`GLOBAL_TALLY` mirror); in
        deferred mode the increment is a plain local addition settled by
        :meth:`flush_counts`.  Use this instead of ``computer.count +=
        n`` (a racy read-modify-write) when accounting for evaluations
        performed outside the computer — e.g. quantized-code distances.
        """
        if self._deferred:
            self._pending += int(n)
            return
        with self._count_lock:
            self._count += int(n)
        GLOBAL_TALLY.add(n)

    def defer_counts(self) -> None:
        """Switch to per-query local counting (see class docstring).

        Only valid while the computer is used by a single thread — the
        per-query computers the indices create qualify; a computer
        shared across engine workers does not.
        """
        self._deferred = True

    def flush_counts(self) -> int:
        """Settle deferred evaluations into ``count``/:data:`GLOBAL_TALLY`.

        Idempotent; returns the number of evaluations flushed.  Search
        paths call this exactly once per query, in a ``finally`` block,
        so the global tally stays exact even on error paths.
        """
        pending = self._pending
        if pending:
            self._pending = 0
            with self._count_lock:
                self._count += pending
            GLOBAL_TALLY.add(pending)
        return pending

    @property
    def dim(self) -> int:
        """Dimensionality of the base vectors."""
        return self.base.shape[1]

    def __len__(self) -> int:
        return self.base.shape[0]

    def reset(self) -> None:
        """Zero the distance-computation counter (pending included).

        Per-computer only: :data:`GLOBAL_TALLY` is monotonic and keeps
        its running total.
        """
        self.count = 0

    def set_query(self, query: np.ndarray) -> np.ndarray:
        """Validate and coerce ``query``; returns the float32 view."""
        query = np.asarray(query, dtype=np.float32).reshape(-1)
        if query.shape[0] != self.dim:
            raise ValueError(
                f"query has dim {query.shape[0]}, base has dim {self.dim}"
            )
        return query

    def distances_to(self, query: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Distances from ``query`` to base rows ``ids`` (counted).

        ``ids`` is gathered with ``take`` rather than fancy indexing:
        for a non-``intp`` index array (the CSR is int32) fancy indexing
        first casts the whole index, roughly doubling a small gather.
        """
        if not isinstance(ids, np.ndarray):
            ids = np.asarray(ids, dtype=np.intp)
        self.add_count(ids.size)
        rows = self.base.take(ids, axis=0)
        if self._base_norms is not None:
            return _cosine_from_norms(rows, self._base_norms.take(ids), query)
        if self.metric is Metric.L2 and query.dtype == rows.dtype:
            # ``rows`` is a private copy: subtract in place instead of
            # allocating ``rows - query`` (same arithmetic, same bytes).
            np.subtract(rows, query, out=rows)
            return np.einsum("ij,ij->i", rows, rows)
        return self._kernel(rows, query)

    def distance_one(self, query: np.ndarray, node_id: int) -> float:
        """Distance from ``query`` to a single base row (counted).

        Raises:
            IndexError: if ``node_id`` is outside the base (indexing
                the row directly, where a slice would be silently
                empty).
        """
        self.add_count(1)
        row = self.base[node_id][None, :]
        if self._base_norms is not None:
            return float(_cosine_from_norms(
                row, self._base_norms[node_id][None], query
            )[0])
        return float(self._kernel(row, query)[0])

    def distances_to_all(self, query: np.ndarray) -> np.ndarray:
        """Distances from ``query`` to every base vector (counted)."""
        self.add_count(self.base.shape[0])
        if self._base_norms is not None:
            return _cosine_from_norms(self.base, self._base_norms, query)
        return self._kernel(self.base, query)
