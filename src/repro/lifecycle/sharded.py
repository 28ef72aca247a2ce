"""Per-shard streaming lifecycles with attribute-range shard splitting.

:class:`ShardedLifecycleIndex` range-partitions the dataset on one int
attribute and runs an independent
:class:`~repro.lifecycle.manager.LifecycleIndex` per shard — each shard
has its own delta, tombstones, epochs, and compaction schedule, so a
write-hot range compacts without touching cold shards.  Reads
scatter-gather over the shards and fold the per-shard external-id
streams through the same streaming top-k merge the flat shard layer
uses.

When inserts concentrate into one attribute range, that shard's live
count outgrows the rest; :meth:`maybe_split` is the rebalance hook —
it splits the hottest shard at the **median** of its live route-key
values into two fresh lifecycles (built deterministically from the
live entities in global-id order) and rewrites the routing table.
Global external ids are stable across splits; only the internal
(shard, local) placement moves.
"""

from __future__ import annotations

import numpy as np

from repro.attributes.table import AttributeTable, ColumnKind
from repro.lifecycle.manager import LifecycleConfig, LifecycleIndex
from repro.lifecycle.delta import build_table, table_schema
from repro.shard.sharded import merge_topk
from repro.telemetry import SearchResult, fold_telemetry
from repro.utils.clock import Clock

__all__ = ["ShardedLifecycleIndex"]


def _check_monotone_rev(rev: dict[int, int], where: str) -> None:
    """Enforce that a shard's local→global id mapping is strictly
    increasing in local id.

    The scatter-gather top-k contract rests on this invariant: each
    shard selects its k survivors on ``(distance, local external id)``
    ties, and only a strictly increasing mapping makes that selection
    identical to a selection on ``(distance, global id)`` — otherwise,
    when equal distances straddle the shard's k cut, the shard could
    drop the tie member with the *smallest* global id and the merged
    result would differ from the brute-force/``exact_search``
    tie-break contract.  The mapping is monotone by construction
    (inserts append on both sides; splits re-home members in ascending
    global order), so this check is a cheap structural tripwire at the
    two places the mapping is (re)built.
    """
    ordered = [rev[local] for local in sorted(rev)]
    if any(b <= a for a, b in zip(ordered, ordered[1:])):
        raise RuntimeError(
            f"shard local→global id mapping is not strictly increasing "
            f"after {where}; per-shard tie-breaking would no longer "
            "match the global (distance, global_id) selection contract"
        )


class ShardedLifecycleIndex:
    """Range-sharded lifecycles over one int route-key column.

    Build through :meth:`build`; the constructor wires pre-built
    pieces.  Not thread-safe for concurrent writers (one writer, many
    readers — the same contract as a single lifecycle).
    """

    def __init__(
        self,
        shards: list[LifecycleIndex],
        bounds: list[float],
        route_key: str,
        config: LifecycleConfig | None = None,
        clock: Clock | None = None,
    ) -> None:
        if len(bounds) != len(shards) - 1:
            raise ValueError(
                f"{len(shards)} shards need {len(shards) - 1} bounds, "
                f"got {len(bounds)}"
            )
        self.shards = shards
        self.bounds = [float(b) for b in bounds]  # ascending cut points
        self.route_key = route_key
        self.config = config or LifecycleConfig()
        self.clock = clock
        self._next_global = 0
        self._route: dict[int, tuple[int, int]] = {}   # global -> (shard, local)
        self._rev: list[dict[int, int]] = [dict() for _ in shards]
        self._dead: set[int] = set()   # globals physically dropped by splits
        self.splits = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        vectors: np.ndarray,
        table: AttributeTable,
        route_key: str,
        n_shards: int = 4,
        params=None,
        metric="l2",
        seed: int = 0,
        config: LifecycleConfig | None = None,
        clock: Clock | None = None,
    ) -> "ShardedLifecycleIndex":
        """Range-partition on ``route_key`` quantiles and build shards."""
        if table.column_kind(route_key) is not ColumnKind.INT:
            raise ValueError(
                f"route_key {route_key!r} must be an int column"
            )
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        keys = np.asarray(table.column(route_key))
        if n_shards > 1:
            qs = np.linspace(0, 1, n_shards + 1)[1:-1]
            bounds = sorted(set(float(b) for b in np.quantile(keys, qs)))
        else:
            bounds = []
        schema = table_schema(table)
        rows = [table.row(i) for i in range(len(table))]

        buckets: list[list[int]] = [[] for _ in range(len(bounds) + 1)]
        for i, key in enumerate(keys.tolist()):
            buckets[int(np.searchsorted(bounds, key, side="right"))].append(i)

        shards: list[LifecycleIndex] = []
        sharded = cls.__new__(cls)
        sharded.bounds = list(bounds)
        sharded.route_key = route_key
        sharded.config = config or LifecycleConfig()
        sharded.clock = clock
        sharded._next_global = vectors.shape[0]
        sharded._route = {}
        sharded._rev = []
        sharded._dead = set()
        sharded.splits = 0
        for s, bucket in enumerate(buckets):
            sub_vectors = (
                vectors[np.asarray(bucket, dtype=np.intp)]
                if bucket else np.empty((0, vectors.shape[1]),
                                        dtype=np.float32)
            )
            sub_table = build_table(schema, [rows[i] for i in bucket])
            shard = LifecycleIndex.build(
                sub_vectors, sub_table, params=params, metric=metric,
                seed=seed, config=sharded.config, clock=clock,
            )
            shards.append(shard)
            rev: dict[int, int] = {}
            for local, global_id in enumerate(bucket):
                sharded._route[global_id] = (s, local)
                rev[local] = global_id
            _check_monotone_rev(rev, f"build of shard {s}")
            sharded._rev.append(rev)
        sharded.shards = shards
        return sharded

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def _shard_for_key(self, key) -> int:
        return int(np.searchsorted(self.bounds, float(key), side="right"))

    def live_count(self) -> int:
        """Live entities across every shard."""
        return sum(len(shard) for shard in self.shards)

    def shard_live_counts(self) -> list[int]:
        """Per-shard live counts, in shard order (split policy input)."""
        return [len(shard) for shard in self.shards]

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def insert(self, vector, row: dict) -> int:
        """Route one insert by its route-key value; returns global id."""
        if self.route_key not in row:
            raise ValueError(
                f"insert row is missing route key {self.route_key!r}"
            )
        s = self._shard_for_key(row[self.route_key])
        local = self.shards[s].insert(vector, row)
        global_id = self._next_global
        self._next_global += 1
        self._route[global_id] = (s, local)
        # Both ids are fresh maxima, so the shard's local→global
        # mapping stays strictly increasing (the tie-break invariant
        # _check_monotone_rev pins at build/split time).
        self._rev[s][local] = global_id
        return global_id

    def delete(self, global_id: int) -> bool:
        """Tombstone one entity by its global id."""
        global_id = int(global_id)
        if global_id in self._dead:
            return False   # physically dropped by a split; already dead
        if global_id not in self._route:
            raise KeyError(f"global id {global_id} was never inserted")
        s, local = self._route[global_id]
        return self.shards[s].delete(local)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def search(self, query, predicate, k: int, ef_search: int = 64):
        """Scatter-gather search; result ids are **global** ids."""
        children = [
            shard.search(query, predicate, k, ef_search=ef_search)
            for shard in self.shards
        ]
        streams = [
            [(float(d), rev[int(local)])
             for d, local in zip(result.distances.tolist(),
                                 result.ids.tolist())]
            for rev, result in zip(self._rev, children)
        ]
        # Each shard selected its k survivors on (distance, local id)
        # ties; because every shard's local→global mapping is strictly
        # increasing (enforced by _check_monotone_rev wherever the
        # mapping is built), that selection is identical to selecting
        # on (distance, global id) — a shard never drops a tie member
        # the global top-k needs, so the standard scatter-gather merge
        # argument holds exactly.  The mapped streams are already
        # sorted under that invariant; the re-sort is cheap insurance.
        streams = [sorted(stream) for stream in streams]
        merged = merge_topk(streams, k)
        return SearchResult.from_pairs(
            merged,
            # The composite's epoch is the *sum* of its shards' epochs —
            # a version counter that moves when any shard publishes
            # (their max would hide every other shard's writes).
            **fold_telemetry(
                children, epoch=sum(child.epoch for child in children)
            ),
        )

    def live_global_ids(self) -> np.ndarray:
        """Sorted global ids of every live entity."""
        out = []
        for s, shard in enumerate(self.shards):
            rev = self._rev[s]
            out.extend(rev[int(local)] for local in shard.live_ids().tolist())
        return np.asarray(sorted(out), dtype=np.int64)

    # ------------------------------------------------------------------
    # Compaction + split/rebalance
    # ------------------------------------------------------------------

    def compact_all(self, **kwargs):
        """Run the compaction policy on every shard (hot ones compact)."""
        return [shard.maybe_compact(**kwargs) for shard in self.shards]

    def maybe_split(
        self,
        max_live: int,
        seed: int = 0,
    ) -> dict | None:
        """Split the hottest shard when it outgrows ``max_live``.

        The split point is the median live route-key value; the two
        halves are rebuilt as fresh lifecycles over their live entities
        in ascending global-id order (deterministic for a fixed seed).
        Returns a report dict, or None when no shard is hot.
        """
        sizes = self.shard_live_counts()
        hottest = int(np.argmax(sizes))
        if sizes[hottest] <= max_live:
            return None
        return self.split_shard(hottest, seed=seed)

    def split_shard(self, shard_idx: int, seed: int = 0) -> dict:
        """Split shard ``shard_idx`` at its live median route-key value."""
        shard = self.shards[shard_idx]
        rev = self._rev[shard_idx]
        live_local = shard.live_ids().tolist()
        if len(live_local) < 2:
            raise ValueError(
                f"shard {shard_idx} has {len(live_local)} live entities; "
                "nothing to split"
            )
        pairs = sorted(
            (rev[int(local)], int(local)) for local in live_local
        )
        keys = [
            float(shard.get_row(local)[self.route_key])
            for _, local in pairs
        ]
        cut = float(np.median(keys))
        lo_bound = self.bounds[shard_idx - 1] if shard_idx > 0 else None
        hi_bound = (self.bounds[shard_idx]
                    if shard_idx < len(self.bounds) else None)
        if (lo_bound is not None and cut <= lo_bound) or (
                hi_bound is not None and cut >= hi_bound):
            raise ValueError(
                f"median route key {cut} of shard {shard_idx} does not "
                f"fall strictly inside its range [{lo_bound}, {hi_bound}); "
                "the shard is hot on a single key and cannot be range-split"
            )
        # Routing is left-closed ([bound, next_bound)), so the left half
        # takes keys strictly below the cut.
        left = [(g, local) for (g, local), key in zip(pairs, keys)
                if key < cut]
        right = [(g, local) for (g, local), key in zip(pairs, keys)
                 if key >= cut]
        if not left or not right:
            raise ValueError(
                f"median split of shard {shard_idx} left an empty half "
                "(all live keys equal); cannot range-split"
            )

        schema = shard._schema
        halves: list[LifecycleIndex] = []
        half_revs: list[dict[int, int]] = []
        for members in (left, right):
            vectors = np.stack([
                shard.get_vector(local) for _, local in members
            ]).astype(np.float32)
            table = build_table(
                schema, [shard.get_row(local) for _, local in members]
            )
            half = LifecycleIndex.build(
                vectors, table, params=shard._base.params,
                metric=shard.metric, seed=seed,
                config=self.config, clock=self.clock,
            )
            halves.append(half)
            half_rev = {
                new_local: g for new_local, (g, _) in enumerate(members)
            }
            _check_monotone_rev(
                half_rev, f"split of shard {shard_idx}"
            )
            half_revs.append(half_rev)

        # The split shard's tombstoned entities are physically dropped
        # (splits rebuild from the live set); remember them so a repeat
        # delete stays an idempotent no-op.
        live_globals = {g for g, _ in pairs}
        for g in rev.values():
            if g not in live_globals:
                self._dead.add(g)
                self._route.pop(g, None)

        self.shards[shard_idx:shard_idx + 1] = halves
        self._rev[shard_idx:shard_idx + 1] = half_revs
        self.bounds.insert(shard_idx, cut)
        # Rewrite the global routing: shards after the split point move
        # one slot right; the split shard's members re-home.
        for s in range(shard_idx + 2, len(self.shards)):
            for local, g in self._rev[s].items():
                self._route[g] = (s, local)
        for offset, members in enumerate((left, right)):
            for new_local, (g, _) in enumerate(members):
                self._route[g] = (shard_idx + offset, new_local)
        self.splits += 1
        return {
            "shard": shard_idx,
            "cut": cut,
            "left_live": len(left),
            "right_live": len(right),
            "n_shards": len(self.shards),
        }

    def stats(self) -> dict:
        """Topology and per-shard counters for dashboards."""
        return {
            "n_shards": len(self.shards),
            "bounds": list(self.bounds),
            "route_key": self.route_key,
            "live": self.live_count(),
            "shard_live": self.shard_live_counts(),
            "splits": self.splits,
            "shards": [shard.stats() for shard in self.shards],
        }
