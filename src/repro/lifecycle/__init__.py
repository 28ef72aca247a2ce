"""Streaming index lifecycle: delta writes, epoch snapshots, compaction.

The update-heavy serving story for the ACORN reproduction: a mutable
:class:`DeltaIndex` absorbs inserts, an external tombstone set absorbs
deletes, readers search immutable published :class:`EpochSnapshot`
objects, and a :class:`BackgroundCompactor` folds the delta and the
deletes into a copy of the graph base
(:func:`repro.core.maintenance.fold`; a from-scratch build once half
the base is gone) — the online counterpart of
:func:`repro.core.maintenance.rebuild`, with the same id-remap contract.
Insert-only folds are byte-identical to a sequential ``rebuild()``;
folds with deletes are oracle-equal and quality-bounded instead.

See ``docs/lifecycle.md`` for epoch semantics, the write path,
compaction triggers, and the determinism contract.
"""

from repro.lifecycle.compactor import (
    BackgroundCompactor,
    CompactorFaultPlan,
    CompactorKilled,
    COMPACTION_STAGES,
)
from repro.lifecycle.delta import DeltaIndex, DeltaView
from repro.lifecycle.epoch import EpochSnapshot
from repro.lifecycle.journal import DeltaJournal, JournalError
from repro.lifecycle.manager import (
    CompactionInProgress,
    CompactionReport,
    LifecycleConfig,
    LifecycleIndex,
)
from repro.lifecycle.persistence import (
    LifecycleLoadError,
    load_lifecycle,
    save_lifecycle,
)
from repro.lifecycle.sharded import ShardedLifecycleIndex

__all__ = [
    "BackgroundCompactor",
    "COMPACTION_STAGES",
    "CompactionInProgress",
    "CompactionReport",
    "CompactorFaultPlan",
    "CompactorKilled",
    "DeltaIndex",
    "DeltaJournal",
    "DeltaView",
    "EpochSnapshot",
    "JournalError",
    "LifecycleConfig",
    "LifecycleIndex",
    "LifecycleLoadError",
    "ShardedLifecycleIndex",
    "load_lifecycle",
    "save_lifecycle",
]
