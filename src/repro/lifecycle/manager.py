"""The streaming index lifecycle: delta writes, epochs, online compaction.

:class:`LifecycleIndex` turns a frozen ACORN-family index into a
continuously writable one with LSM-style structure:

- **writes** (``insert``/``delete``) land in a small mutable
  :class:`~repro.lifecycle.delta.DeltaIndex` and an external tombstone
  set, under a single writer lock;
- **readers** search published :class:`~repro.lifecycle.epoch
  .EpochSnapshot` objects — immutable (base, base_ids, delta views,
  tombstones) tuples swapped in atomically by ``publish()``;
- **compaction** (:meth:`compact`) seals the delta, folds it and the
  cut's deletes into a *copy* of the base graph
  (:func:`repro.core.maintenance.fold`: copy the surviving adjacency,
  repair around the removed nodes, ``add()`` the sealed rows) and
  installs the result as the next epoch without ever blocking readers
  or touching the old base — with the id-remap contract of
  :func:`repro.core.maintenance.rebuild`.  Only a cut that removes at
  least as many base nodes as survive is rebuilt from scratch.

Compaction contract (``tests/lifecycle/test_fold_compaction.py`` and
the lifecycle-equivalence harness pin it): external ids are allocated
in write order and the merge input is in ascending external-id order.
An insert-only cut is byte-identical to ``rebuild()`` and to one
sequential build of all the rows, because the fold carries the base's
level stream; a cut with deletes yields a different graph that equals
brute force in the exhaustive regime and stays inside a fresh build's
recall / distance-computation bounds; the rebuild branch is
byte-identical to offline ``rebuild()`` for equal seed and worker
count.  Two lifecycles replaying the same op sequence publish
identical epochs.

Crash safety: a compaction that dies after the cut leaves its sealed
segment in place — readers keep the old epoch (every entity still
reachable) and a respawned compactor
re-seals and retries.  No partially built epoch is ever visible.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np

from repro.attributes.table import concat_tables
from repro.core.acorn import AcornIndex
from repro.core.maintenance import build_like, fold
from repro.core.searcher import Searcher
from repro.lifecycle.delta import DeltaIndex, table_schema
from repro.lifecycle.epoch import EpochSnapshot, alive_mask
from repro.telemetry import SearchResult
from repro.utils.clock import Clock, SystemClock

__all__ = [
    "CompactionInProgress", "CompactionReport", "LifecycleConfig",
    "LifecycleIndex",
]


class CompactionInProgress(RuntimeError):
    """Raised by :meth:`LifecycleIndex.compact` when another compaction
    holds the merge.  A :class:`RuntimeError` subclass so existing
    callers keep working; schedulers (``maybe_compact``, the background
    compactor's ``tick``) catch it and treat the attempt as a no-op —
    losing the race is routine, not a failure."""


@dataclasses.dataclass(frozen=True)
class LifecycleConfig:
    """Knobs of the streaming lifecycle.

    Attributes:
        auto_publish: publish a new epoch after every successful write
            (the strict read-your-writes mode the equivalence harness
            uses).  False batches writes until an explicit
            :meth:`LifecycleIndex.publish`.
        build_seed: level-assignment seed for compactions that rebuild
            (a fold continues the base's own stream); part of the
            determinism contract with offline ``rebuild()``.
        n_workers: compatibility field that nothing reads — the frozen
            ``benchmarks/e2e/workloads.py`` still passes ``n_workers=1``.
            Construction has one path (``add()``), so any other value
            is rejected rather than silently ignored.
        compact_delta_fraction: delta size as a fraction of base size
            beyond which the compaction policy fires.
        compact_min_delta: absolute delta size floor for the policy.
        compact_tombstone_fraction: tombstoned fraction of the base
            beyond which the policy fires.
        min_compaction_interval_s: policy cool-down between compactions
            (measured on the lifecycle's pluggable clock).
    """

    auto_publish: bool = True
    build_seed: int = 0
    n_workers: int = 1
    compact_delta_fraction: float = 0.25
    compact_min_delta: int = 64
    compact_tombstone_fraction: float = 0.25
    min_compaction_interval_s: float = 0.0

    def __post_init__(self) -> None:
        if self.n_workers != 1:
            raise ValueError(
                f"n_workers must be 1 (construction is sequential; the "
                f"field is inert), got {self.n_workers}"
            )
        if self.compact_min_delta < 1:
            raise ValueError(
                f"compact_min_delta must be >= 1, got {self.compact_min_delta}"
            )


@dataclasses.dataclass(frozen=True)
class CompactionReport:
    """Outcome of one successful online compaction.

    Attributes:
        epoch_before: epoch current when the cut was taken.
        epoch_after: epoch that published the new base.
        n_live: entities in the new base.
        n_dropped: tombstoned entities physically removed.
        n_merged: delta entries folded into the base.
        id_map: int64 array over the external-id space at the cut;
            ``id_map[external_id]`` is the entity's internal id in the
            new base, or -1 if it was dead at the cut — the same remap
            contract :func:`repro.core.maintenance.rebuild` returns for
            offline rebuilds.
        duration_s: clock time the compaction took.
    """

    epoch_before: int
    epoch_after: int
    n_live: int
    n_dropped: int
    n_merged: int
    id_map: np.ndarray
    duration_s: float


class LifecycleIndex(Searcher):
    """A log-structured, epoch-published view over an ACORN-family base.

    Args:
        base: the initial graph index (any ``AcornIndex`` subclass).
            Existing tombstones on it are folded into the lifecycle's
            tombstone set.  The lifecycle owns the base from here on.
        config: lifecycle knobs (:class:`LifecycleConfig`).
        clock: time source for compaction policy and reports; a
            :class:`~repro.utils.clock.FakeClock` makes every timing
            decision deterministic.
    """

    def __init__(
        self,
        base: AcornIndex,
        config: LifecycleConfig | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.config = config or LifecycleConfig()
        self.clock = clock or SystemClock()
        self._lock = threading.RLock()
        self._base = base
        self._base_ids = np.arange(len(base), dtype=np.int64)
        self._schema = table_schema(base.table)
        self._metric = base.metric
        self._dim = base.store.dim
        self._sealed: list[DeltaIndex] = []
        self._delta = self._fresh_delta()
        self._tombstones: set[int] = {
            int(node) for node in range(len(base)) if base.is_deleted(node)
        }
        self._next_external_id = len(base)
        self._epoch = 0
        self._compacting = False
        self._compactions = 0
        self._last_compaction_s: float | None = None
        self._published = self._make_snapshot(0)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        vectors,
        table,
        params=None,
        metric="l2",
        seed: int = 0,
        index_cls: type[AcornIndex] = AcornIndex,
        config: LifecycleConfig | None = None,
        clock: Clock | None = None,
    ) -> "LifecycleIndex":
        """Build a lifecycle from scratch over an initial dataset."""
        base = index_cls.build(
            vectors, table, params=params, metric=metric, seed=seed,
        )
        return cls(base, config=config, clock=clock)

    def _fresh_delta(self) -> DeltaIndex:
        return DeltaIndex(self._dim, self._schema, metric=self._metric)

    # ------------------------------------------------------------------
    # Introspection (engine integration)
    # ------------------------------------------------------------------

    @property
    def table(self):
        """The current base's attribute table (predicate compilation
        target for the batch engine; delta rows recompile per
        snapshot)."""
        return self._published.table

    @property
    def metric(self):
        return self._metric

    @property
    def current_epoch(self) -> int:
        return self._published.epoch

    @property
    def next_external_id(self) -> int:
        return self._next_external_id

    def __len__(self) -> int:
        """Live entity count at the published epoch."""
        return self._published.live_count()

    def delta_size(self) -> int:
        """Rows awaiting compaction (active delta + sealed segments)."""
        with self._lock:
            return len(self._delta) + sum(len(s) for s in self._sealed)

    def tombstone_count(self) -> int:
        """Deletes not yet folded away by a compaction."""
        with self._lock:
            return len(self._tombstones)

    def live_ids(self) -> np.ndarray:
        """Sorted external ids live at the published epoch."""
        return self._published.live_ids()

    def get_vector(self, external_id: int) -> np.ndarray:
        """The vector of ``external_id`` (live or tombstoned)."""
        external_id = int(external_id)
        with self._lock:
            pos = np.searchsorted(self._base_ids, external_id)
            if (pos < self._base_ids.shape[0]
                    and self._base_ids[pos] == external_id):
                return np.array(self._base.store.vectors[pos])
            for segment in (*self._sealed, self._delta):
                if external_id in segment:
                    return np.array(segment.vector_of(external_id))
        raise KeyError(
            f"external id {external_id} is not resident (never inserted, "
            "or deleted and compacted away)"
        )

    def get_row(self, external_id: int) -> dict:
        """The attribute row of ``external_id``."""
        external_id = int(external_id)
        with self._lock:
            pos = np.searchsorted(self._base_ids, external_id)
            if (pos < self._base_ids.shape[0]
                    and self._base_ids[pos] == external_id):
                return self._base.table.row(int(pos))
            for segment in (*self._sealed, self._delta):
                if external_id in segment:
                    return segment.row_of(external_id)
        raise KeyError(
            f"external id {external_id} is not resident (never inserted, "
            "or deleted and compacted away)"
        )

    def is_deleted(self, external_id: int) -> bool:
        """Whether ``external_id`` is currently tombstoned."""
        with self._lock:
            return int(external_id) in self._tombstones

    def stats(self) -> dict:
        """Operational counters for dashboards and the bench CLI."""
        with self._lock:
            snap = self._published
            return {
                "epoch": snap.epoch,
                "base_size": int(self._base_ids.shape[0]),
                "delta_size": len(self._delta) + sum(
                    len(s) for s in self._sealed
                ),
                "sealed_segments": len(self._sealed),
                "tombstones": len(self._tombstones),
                "live": snap.live_count(),
                "next_external_id": self._next_external_id,
                "compactions": self._compactions,
                "compacting": self._compacting,
                "readers": snap.readers,
            }

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def insert(self, vector, row: dict | None = None) -> int:
        """Admit one entity; returns its stable external id."""
        with self._lock:
            external_id = self._next_external_id
            self._delta.insert(external_id, vector, row or {})
            self._next_external_id += 1
            if self.config.auto_publish:
                self._publish_locked()
            return external_id

    def delete(self, external_id: int) -> bool:
        """Tombstone one entity.  Returns False if already deleted —
        including ids whose tombstone a past compaction already folded
        away (the entity is gone; re-tombstoning it would poison the
        next compaction's ledger).

        Raises:
            KeyError: if ``external_id`` was never allocated.
        """
        external_id = int(external_id)
        with self._lock:
            if not 0 <= external_id < self._next_external_id:
                raise KeyError(
                    f"external id {external_id} was never inserted "
                    f"(ids run [0, {self._next_external_id}))"
                )
            if external_id in self._tombstones:
                return False
            if not self._is_resident_locked(external_id):
                return False
            self._tombstones.add(external_id)
            if self.config.auto_publish:
                self._publish_locked()
            return True

    def _is_resident_locked(self, external_id: int) -> bool:
        """True when the entity physically exists in base or a delta."""
        pos = np.searchsorted(self._base_ids, external_id)
        if (pos < self._base_ids.shape[0]
                and self._base_ids[pos] == external_id):
            return True
        return any(
            external_id in segment
            for segment in (*self._sealed, self._delta)
        )

    # ------------------------------------------------------------------
    # Epoch publication
    # ------------------------------------------------------------------

    def _make_snapshot(
        self, epoch: int, previous: EpochSnapshot | None = None
    ) -> EpochSnapshot:
        views = tuple(
            segment.freeze()
            for segment in (*self._sealed, self._delta)
            if len(segment)
        )
        return EpochSnapshot(
            epoch=epoch,
            base=self._base,
            base_ids=self._base_ids,
            deltas=views,
            tombstones=frozenset(self._tombstones),
            previous=previous,
        )

    def _publish_locked(self) -> EpochSnapshot:
        self._epoch += 1
        snapshot = self._make_snapshot(self._epoch, self._published)
        self._published = snapshot
        return snapshot

    def publish(self) -> EpochSnapshot:
        """Publish the current write-side state as a new epoch."""
        with self._lock:
            return self._publish_locked()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def acquire_read_snapshot(self) -> EpochSnapshot:
        """Pin the published epoch for a batch of reads.

        The batch engine calls this per :class:`QueryBatch` so every
        query in the batch sees one consistent epoch even while writes
        publish newer ones concurrently.
        """
        with self._lock:
            snapshot = self._published
            snapshot._readers += 1
            return snapshot

    def release_read_snapshot(self, snapshot: EpochSnapshot) -> None:
        """Drop the reader refcount taken by ``acquire_read_snapshot``."""
        with self._lock:
            if snapshot._readers <= 0:
                raise RuntimeError(
                    "release_read_snapshot without matching acquire"
                )
            snapshot._readers -= 1

    def freeze(self) -> None:
        """Engine hook: warm the published base's frozen adjacency."""
        base = self._published.base
        if len(base):
            base.freeze()

    def search(
        self, query, predicate, k: int, ef_search: int = 64
    ) -> SearchResult:
        """Search the currently published epoch.  Ids are external."""
        return self._published.search(query, predicate, k,
                                      ef_search=ef_search)

    # ------------------------------------------------------------------
    # Online compaction
    # ------------------------------------------------------------------

    def should_compact(self) -> bool:
        """Whether the size/tombstone policy asks for a compaction."""
        with self._lock:
            if self._compacting:
                return False
            base_n = int(self._base_ids.shape[0])
            delta_n = len(self._delta) + sum(len(s) for s in self._sealed)
            if delta_n >= max(
                self.config.compact_min_delta,
                int(self.config.compact_delta_fraction * max(base_n, 1)),
            ):
                return True
            # Only tombstones in the base count, and there are at most
            # len(tombstones) of them: below the fraction, skip the scan.
            fraction = self.config.compact_tombstone_fraction
            if base_n == 0 or len(self._tombstones) / base_n < fraction:
                return False
            dead = np.fromiter(self._tombstones, dtype=np.int64,
                               count=len(self._tombstones))
            dead_in_base = int(np.isin(dead, self._base_ids).sum())
            return dead_in_base / base_n >= fraction

    def compact(
        self,
        seed: int | None = None,
        on_stage=None,
    ) -> CompactionReport:
        """Merge sealed deltas + live base into a fresh base, online.

        Readers are never blocked: the build runs off to the side over
        an immutable cut, and the new epoch installs atomically at the
        end.  If the build dies (compactor crash, injected fault), the
        cut's sealed segment stays sealed and the old epoch remains
        fully live — a respawned compactor simply calls ``compact()``
        again.

        The new base is a :func:`~repro.core.maintenance.fold` of the
        old one, or a from-scratch build when the cut removes at least
        as many base nodes as survive (module docstring: what each
        branch guarantees).

        Args:
            seed: build seed of the rebuild branch (default
                ``config.build_seed``); a fold continues the base's
                own level stream.
            on_stage: optional hook called with ``"cut"``, ``"build"``,
                ``"install"`` as the compaction passes each stage —
                the chaos harness's fault-injection point.

        Raises:
            CompactionInProgress: if a compaction is already in
                progress.
        """
        seed = self.config.build_seed if seed is None else int(seed)
        started = self.clock.monotonic()
        with self._lock:
            if self._compacting:
                raise CompactionInProgress(
                    "compaction already in progress"
                )
            self._compacting = True
        try:
            # Stage 1 — cut: seal the active delta and snapshot the
            # merge inputs.  Everything after this reads only the cut.
            with self._lock:
                if len(self._delta):
                    self._sealed.append(self._delta)
                    self._delta = self._fresh_delta()
                sealed = list(self._sealed)
                base = self._base
                base_ids = self._base_ids
                cut_tombstones = frozenset(self._tombstones)
                cut_next = self._next_external_id
                epoch_before = self._published.epoch
            if on_stage is not None:
                on_stage("cut")

            # Assemble the merge input in ascending external-id order:
            # base-internal order (base_ids is sorted), then sealed
            # segments oldest-first (ids only ever grow) — the order
            # rebuild() feeds the builder for an offline index with the
            # same history.
            dead = np.fromiter(cut_tombstones, dtype=np.int64,
                               count=len(cut_tombstones))
            keep = np.flatnonzero(alive_mask(base_ids, dead))
            if base.num_deleted:
                keep = keep[[not base.is_deleted(node)
                             for node in keep.tolist()]]
            merged = [
                (view, np.flatnonzero(alive_mask(view.external_ids, dead)))
                for view in (segment.freeze() for segment in sealed)
            ]
            if on_stage is not None:
                on_stage("build")

            vectors = np.concatenate([
                base.store.vectors[keep],
                *(view.vectors[rows] for view, rows in merged),
            ])
            new_table = concat_tables([
                (base.table, keep),
                *((view.table, rows) for view, rows in merged),
            ])
            if len(base) - keep.shape[0] >= keep.shape[0]:
                # Measured (EXPERIMENTS.md, "Where a fold stops paying"):
                # a fold is never slower, but from half the base removed
                # its one-hop repair pool thins and recall trails a build.
                new_base = build_like(base, vectors, new_table, seed=seed)
            else:
                new_base = fold(base, keep, vectors, new_table)
            # Freeze the raw CSR here, off the reader path; each node's
            # candidate row is left to the first walk that expands it.
            new_base.freeze()
            if on_stage is not None:
                on_stage("install")

            id_map = np.full(cut_next, -1, dtype=np.int64)
            new_base_ids = np.concatenate([
                base_ids[keep],
                *(view.external_ids[rows] for view, rows in merged),
            ])
            id_map[new_base_ids] = np.arange(
                new_base_ids.shape[0], dtype=np.int64
            )

            # Stage 3 — install: atomically swap the base, drop the
            # consumed segments and the physically removed tombstones,
            # publish.  Old snapshots keep their own arrays untouched.
            with self._lock:
                consumed = {id(segment) for segment in sealed}
                self._sealed = [
                    segment for segment in self._sealed
                    if id(segment) not in consumed
                ]
                self._base = new_base
                self._base_ids = new_base_ids
                self._tombstones -= set(cut_tombstones)
                self._compactions += 1
                self._last_compaction_s = self.clock.monotonic()
                snapshot = self._publish_locked()
            n_dropped = sum(1 for t in cut_tombstones if t < cut_next)
            return CompactionReport(
                epoch_before=epoch_before,
                epoch_after=snapshot.epoch,
                n_live=int(new_base_ids.shape[0]),
                n_dropped=n_dropped,
                n_merged=int(new_base_ids.shape[0] - keep.shape[0]),
                id_map=id_map,
                duration_s=self.clock.monotonic() - started,
            )
        finally:
            with self._lock:
                self._compacting = False

    def maybe_compact(self, **kwargs) -> CompactionReport | None:
        """Run :meth:`compact` if the policy fires (cool-down aware).

        Returns None when the policy holds it back — including losing
        the admission race to a concurrent compaction (the policy check
        drops the lock before :meth:`compact` reacquires it)."""
        with self._lock:
            if self._compacting:
                return None
            if self._last_compaction_s is not None and (
                self.clock.monotonic() - self._last_compaction_s
                < self.config.min_compaction_interval_s
            ):
                return None
        if not self.should_compact():
            return None
        try:
            return self.compact(**kwargs)
        except CompactionInProgress:
            return None

    # ------------------------------------------------------------------
    # Persistence handoff (see repro.persistence)
    # ------------------------------------------------------------------

    @classmethod
    def _restore(
        cls,
        base: AcornIndex,
        base_ids: np.ndarray,
        delta_entries: list[tuple[int, np.ndarray, dict]],
        tombstones: set[int],
        next_external_id: int,
        epoch: int,
        config: LifecycleConfig,
    ) -> "LifecycleIndex":
        """Reconstruct a lifecycle from persisted state (internal): built
        through ``__init__`` (so it runs on a
        :class:`~repro.utils.clock.SystemClock`), then given the saved
        ids, delta rows, tombstones and epoch."""
        lifecycle = cls(base, config=config)
        lifecycle._base_ids = np.asarray(base_ids, dtype=np.int64)
        for ext, vec, row in delta_entries:
            lifecycle._delta.insert(ext, vec, row)
        lifecycle._tombstones = set(int(t) for t in tombstones)
        lifecycle._next_external_id = int(next_external_id)
        lifecycle._epoch = int(epoch)
        lifecycle._published = lifecycle._make_snapshot(int(epoch))
        return lifecycle
