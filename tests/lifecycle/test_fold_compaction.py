"""The compaction contract once compaction folds instead of rebuilding.

``LifecycleIndex.compact`` copies the live graph, repairs around the
removed nodes and ``add()``\\ s the sealed delta
(:func:`repro.core.maintenance.fold`); it rebuilds from scratch only
when the cut removes at least as many base nodes as survive.  What that
must guarantee, strongest first:

* insert-only cuts are *byte-identical* to ``rebuild()`` and to one
  sequential build over all the rows (the level stream is carried);
* cuts with deletes leave a structurally sound graph — and never touch
  the old base or a snapshot a reader still holds;
* chained folds do not drift: recall and distance computations stay
  with a fresh ``rebuild()`` of the same live set;
* everything is deterministic per op tape, crashes included.

Oracle equality in the exhaustive regime is the unchanged job of
``test_equivalence_harness.py`` / ``test_chaos_compactor.py``.
"""

import copy

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.lifecycle.manager as manager
from repro.attributes.table import AttributeTable
from repro.core.acorn import AcornIndex, AcornOneIndex
from repro.core.flat import FlatAcornIndex
from repro.core.maintenance import rebuild
from repro.core.params import AcornParams
from repro.lifecycle import (
    COMPACTION_STAGES,
    BackgroundCompactor,
    CompactorKilled,
    LifecycleConfig,
    LifecycleIndex,
    load_lifecycle,
    save_lifecycle,
)
from repro.predicates import Equals, TruePredicate
from repro.shard.partition import subset_table
from repro.utils.clock import FakeClock

from tests.lifecycle.conftest import (
    DIM,
    PARAMS,
    RebuildOracle,
    apply_ops,
    assert_matches_oracle,
    make_world,
)
from tests.lifecycle.test_equivalence_harness import (
    graph_fingerprint,
    ops_tape,
)

pytestmark = pytest.mark.lifecycle

# Small enough that caps bind and level 0 re-prunes at a few dozen rows.
TIGHT = AcornParams(m=4, gamma=3, m_beta=6, ef_construction=24)

BUILDERS = {
    "gamma": lambda v, t, **kw: AcornIndex.build(v, t, params=TIGHT, **kw),
    "acorn1": lambda v, t, **kw: AcornOneIndex.build(
        v, t, m=6, ef_construction=24, **kw),
    "flat": lambda v, t, **kw: FlatAcornIndex.build(v, t, params=TIGHT, **kw),
}


@pytest.fixture
def branches(monkeypatch):
    """Which of fold / rebuild each compaction took, in order."""
    taken = []
    for name in ("fold", "build_like"):
        real = getattr(manager, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            taken.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(manager, name, spy)
    return taken


def check_structure(index):
    """Every invariant construction keeps, on a (folded) index."""
    graph = index.graph
    graph.validate()
    n, top = len(index), graph.max_level
    assert len(graph) == n
    assert 0 <= graph.entry_point < n
    assert graph.node_level(graph.entry_point) == top
    computer = index.store.computer()
    for level in range(top + 1):
        cap = index._cap0 if level == 0 else index.params.max_degree
        nodes = graph.nodes_at_level(level)
        assert nodes, f"level {level} is empty"
        assert set(index._edge_dists[level]) == set(nodes)
        for node in nodes:
            neighbors = graph.neighbors(node, level)
            dists = index._edge_dists[level][node]
            assert len(neighbors) == len(dists) <= cap
            assert dists == sorted(dists)
            if neighbors:
                query = computer.set_query(index.store.get(node))
                np.testing.assert_allclose(
                    dists, computer.distances_to(query, neighbors),
                    rtol=1e-5, atol=1e-6,
                )
    assert len(index._edge_dists) == top + 1


def check_rows(lifecycle, oracle):
    """The base holds exactly the oracle's live rows, nothing removed."""
    base, base_ids = lifecycle._base, lifecycle._base_ids
    assert base_ids.tolist() == oracle.live_ids().tolist()
    for node, ext in enumerate(base_ids.tolist()):
        assert np.array_equal(base.store.vectors[node], oracle.vectors[ext])
        assert base.table.row(node) == oracle.rows[ext]


class TestInsertOnlyFoldIsTheSequentialBuild:
    """(a) With nothing removed, copy + add() *is* the sequential build."""

    @pytest.mark.parametrize("metric", ["l2", "cosine"])
    @pytest.mark.parametrize("variant", sorted(BUILDERS))
    def test_fold_equals_rebuild_equals_sequential(
        self, variant, metric, branches
    ):
        n_base, n_total, seed = 70, 110, 9
        vectors, table, _ = make_world(17, n_total)
        build = BUILDERS[variant]
        lc = LifecycleIndex(build(vectors[:n_base],
                                  subset_table(table, np.arange(n_base)),
                                  metric=metric, seed=seed))
        # Two chained folds: the second carries the stream the first left.
        for stop in (90, n_total):
            for i in range(lc.next_external_id, stop):
                lc.insert(vectors[i], table.row(i))
            report = lc.compact(seed=seed)
            assert np.array_equal(report.id_map, np.arange(stop))
        assert branches == ["fold", "fold"]

        sequential = build(vectors, table, metric=metric, seed=seed)
        rebuilt, _ = rebuild(lc._base, seed=seed)
        folded = graph_fingerprint(lc._base)
        assert folded == graph_fingerprint(sequential)
        assert folded == graph_fingerprint(rebuilt)
        assert lc._base._edge_dists == sequential._edge_dists
        assert lc._base._frozen is not None  # installed frozen


class TestFoldStructure:
    """(b) Folds with deletes: sound graph, old base and readers untouched."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        n_initial=st.integers(30, 90),
        n_ops=st.integers(10, 45),
        variant=st.sampled_from(sorted(BUILDERS)),
    )
    def test_invariants_after_two_folds(self, seed, n_initial, n_ops, variant):
        vectors, table, rng = make_world(seed, n_initial)
        lc = LifecycleIndex(BUILDERS[variant](vectors, table, seed=seed % 97))
        oracle = RebuildOracle(vectors, table)
        queries = rng.standard_normal((3, DIM)).astype(np.float32)
        for _ in range(2):
            apply_ops(lc, oracle,
                      ops_tape(rng, lc.next_external_id, n_ops, 0.45))
            survivors = np.isin(lc._base_ids, oracle.live_ids()).sum()
            assume(2 * survivors > len(lc._base_ids))  # the fold branch

            old_base = lc._base
            before = (graph_fingerprint(old_base),
                      copy.deepcopy(old_base._edge_dists),
                      copy.deepcopy(old_base._levels))
            snap = lc.acquire_read_snapshot()
            held = [snap.search(q, Equals("v", 1), 5, ef_search=64)
                    for q in queries]

            lc.compact()

            check_structure(lc._base)
            check_rows(lc, oracle)
            assert lc._base is not old_base
            assert graph_fingerprint(old_base) == before[0]
            assert old_base._edge_dists == before[1]
            if variant != "flat":
                assert old_base._levels.state == before[2].state
            for q, want in zip(queries, held):
                got = snap.search(q, Equals("v", 1), 5, ef_search=64)
                assert got.ids.tolist() == want.ids.tolist()
                assert got.distances.tolist() == want.distances.tolist()
            lc.release_read_snapshot(snap)


class TestEdgeCuts:
    """(c) The cuts a repair could get wrong; exhaustive regime, so the
    result must also equal the brute-force oracle."""

    def _world(self, seed=101, n=40):
        vectors, table, rng = make_world(seed, n)
        lc = LifecycleIndex.build(vectors, table, params=PARAMS, seed=3)
        oracle = RebuildOracle(vectors, table)
        queries = rng.standard_normal((3, DIM)).astype(np.float32)
        return lc, oracle, rng, queries

    def _settle(self, lc, oracle, queries):
        report = lc.compact()
        if len(lc._base):
            check_structure(lc._base)
        check_rows(lc, oracle)
        assert_matches_oracle(lc, oracle, queries,
                              [TruePredicate(), Equals("v", 2)])
        return report

    def test_entry_point_deleted(self, branches):
        lc, oracle, rng, queries = self._world()
        entry = lc._base.graph.entry_point
        apply_ops(lc, oracle, [("delete", entry)]
                  + ops_tape(rng, 40, 6, delete_fraction=0.0))
        report = self._settle(lc, oracle, queries)
        assert branches == ["fold"]
        assert report.id_map[entry] == -1

    def test_whole_top_level_deleted(self, branches):
        lc, oracle, rng, queries = self._world()
        graph = lc._base.graph
        top = graph.max_level
        assert top >= 1, "pick a seed whose base has a hierarchy"
        apply_ops(lc, oracle,
                  [("delete", node) for node in graph.nodes_at_level(top)])
        self._settle(lc, oracle, queries)
        assert branches == ["fold"]
        assert lc._base.graph.max_level < top
        assert len(lc._base._edge_dists) == lc._base.graph.max_level + 1

    def test_every_base_node_deleted_takes_the_rebuild_branch(self, branches):
        lc, oracle, rng, queries = self._world()
        tape = ops_tape(rng, 40, 8, delete_fraction=0.0)
        apply_ops(lc, oracle, tape + [("delete", i) for i in range(40)])
        self._settle(lc, oracle, queries)
        assert branches == ["build_like"]
        fresh = AcornIndex.build(
            np.stack([op[1] for op in tape]), lc._base.table,
            params=PARAMS, seed=lc.config.build_seed,
        )
        assert graph_fingerprint(lc._base) == graph_fingerprint(fresh)

    def test_half_the_base_deleted_takes_the_rebuild_branch(self, branches):
        lc, oracle, rng, queries = self._world()
        apply_ops(lc, oracle, [("delete", i) for i in range(19)])
        self._settle(lc, oracle, queries)
        apply_ops(lc, oracle, [("delete", i) for i in range(19, 30)])
        self._settle(lc, oracle, queries)  # 11 of 21 gone: survivors 10
        assert branches == ["fold", "build_like"]

    def test_non_finite_insert_is_refused_before_the_delta(self, branches):
        """A NaN row used to sit in the delta and poison the base only
        at the next fold; now ``insert`` refuses it and nothing moves."""
        lc, oracle, rng, queries = self._world()
        apply_ops(lc, oracle, ops_tape(rng, 40, 4, delete_fraction=0.0))
        before = (lc.next_external_id, lc.delta_size(), lc.current_epoch,
                  len(lc))
        for bad in (np.nan, np.inf):
            poison = np.ones(DIM, dtype=np.float32)
            poison[1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                lc.insert(poison, {"v": 1})
        assert (lc.next_external_id, lc.delta_size(), lc.current_epoch,
                len(lc)) == before
        apply_ops(lc, oracle, ops_tape(rng, 44, 2, delete_fraction=0.0))
        self._settle(lc, oracle, queries)
        assert branches == ["fold"]

    def test_deletes_only_empty_delta(self, branches):
        lc, oracle, rng, queries = self._world()
        apply_ops(lc, oracle, [("delete", i) for i in (0, 7, 8, 21, 39)])
        report = self._settle(lc, oracle, queries)
        assert branches == ["fold"]
        assert (report.n_merged, report.n_live) == (0, 35)

    def test_delete_of_a_row_still_in_the_sealed_delta(self, branches):
        lc, oracle, rng, queries = self._world()
        apply_ops(lc, oracle, ops_tape(rng, 40, 6, delete_fraction=0.0))

        def kill(stage):
            if stage == "build":
                raise CompactorKilled("leave the segment sealed")

        with pytest.raises(CompactorKilled):
            lc.compact(on_stage=kill)
        assert lc.stats()["sealed_segments"] == 1
        apply_ops(lc, oracle, [("delete", 42), ("delete", 3)])
        report = self._settle(lc, oracle, queries)
        assert branches == ["fold"]
        assert report.n_merged == 5
        assert report.id_map[42] == -1 and report.id_map[3] == -1


class TestNoDrift:
    """(d) Ten chained 5% + 5% cycles stay with a fresh rebuild().

    With ``maintenance._repair`` stubbed out this very test reads
    recall 0.974 against the rebuild's 1.0 (level-0 degree 43 -> 32):
    the repair is what holds the line.
    """

    def test_recall_and_distance_computations_track_a_rebuild(self, branches):
        n, dim, cycles, k, ef, n_labels = 1500, 16, 10, 10, 32, 8
        writes = n * 5 // 100
        rng = np.random.default_rng(2)
        total = n + cycles * writes
        vectors = rng.standard_normal((total, dim)).astype(np.float32)
        labels = rng.integers(0, n_labels, size=total)
        table = AttributeTable(n)
        table.add_int_column("v", labels[:n])
        params = AcornParams(m=12, gamma=8, m_beta=24, ef_construction=40)
        lc = LifecycleIndex.build(vectors[:n], table, params=params, seed=1)

        live = list(range(n))
        for _ in range(cycles):
            for _ in range(writes):
                j = int(rng.integers(0, len(live)))
                live[j], live[-1] = live[-1], live[j]
                assert lc.delete(live.pop())
            for _ in range(writes):
                row = lc.next_external_id
                live.append(lc.insert(vectors[row], {"v": int(labels[row])}))
            lc.compact()
        assert branches == ["fold"] * cycles
        assert len(lc._base) == n and lc.delta_size() == 0
        check_structure(lc._base)

        folded = lc._base
        fresh, _ = rebuild(folded, seed=1)
        queries = rng.standard_normal((120, dim)).astype(np.float32)

        def quality(index):
            hits = comps = 0
            for i, q in enumerate(queries):
                pred = Equals("v", i % n_labels)
                mask = np.asarray(pred.mask(index.table), dtype=bool)
                dists = np.sum((index.store.vectors - q) ** 2, axis=1)
                dists[~mask] = np.inf
                truth = np.argsort(dists, kind="stable")[:k].tolist()
                res = index.search(q, pred, k, ef_search=ef)
                hits += len(set(truth).intersection(res.ids.tolist()))
                comps += res.distance_computations
            return hits / (k * len(queries)), comps / len(queries)

        fold_recall, fold_comps = quality(folded)
        fresh_recall, fresh_comps = quality(fresh)
        assert abs(fold_recall - fresh_recall) <= 0.01, (
            fold_recall, fresh_recall)
        assert abs(fold_comps - fresh_comps) <= 0.03 * fresh_comps, (
            fold_comps, fresh_comps)


class TestFoldDeterminism:
    """(e) One tape, one sequence of published graphs — crashes included."""

    def _replay(self, kill_stage=None):
        vectors, table, rng = make_world(59, 80)
        clock = FakeClock()
        lc = LifecycleIndex.build(
            vectors, table, params=TIGHT, seed=3,
            config=LifecycleConfig(compact_min_delta=6,
                                   compact_delta_fraction=0.05),
            clock=clock,
        )
        compactor = BackgroundCompactor(lc, interval_s=0.2, clock=clock)
        published = []
        for op in ops_tape(rng, 80, 60):
            if op[0] == "insert":
                lc.insert(op[1], op[2])
            else:
                lc.delete(op[1])
            clock.advance(0.05)
            if kill_stage is not None and lc.should_compact():
                def kill(stage):
                    if stage == kill_stage:
                        raise CompactorKilled(f"injected at {stage}")

                with pytest.raises(CompactorKilled):
                    lc.compact(on_stage=kill)
            if compactor.tick() is not None:
                published.append((lc.current_epoch,
                                  graph_fingerprint(lc._base),
                                  lc._base_ids.tolist()))
        return published

    def test_two_replays_publish_identical_graphs(self, branches):
        first = self._replay()
        assert len(first) >= 3 and set(branches) == {"fold"}
        assert self._replay() == first

    def test_fold_after_a_save_load_round_trip_replays(self, tmp_path,
                                                       branches):
        """The saved level stream makes a loaded lifecycle fold the
        graph the never-saved one folds."""
        def mutated():
            vectors, table, rng = make_world(67, 60)
            lc = LifecycleIndex.build(vectors, table, params=TIGHT, seed=4)
            apply_ops(lc, RebuildOracle(vectors, table),
                      ops_tape(rng, 60, 40))
            return lc

        stayed, saved = mutated(), mutated()
        loaded = load_lifecycle(save_lifecycle(saved, tmp_path / "archive"))
        stayed.compact()
        loaded.compact()
        assert branches == ["fold", "fold"]
        assert graph_fingerprint(loaded._base) == graph_fingerprint(
            stayed._base)
        assert loaded._base_ids.tolist() == stayed._base_ids.tolist()

    @pytest.mark.parametrize("stage", COMPACTION_STAGES)
    def test_killed_then_retried_equals_never_killed(self, stage):
        clean = self._replay()
        crashed = self._replay(kill_stage=stage)
        # A crash may re-publish the old state, so epochs can differ;
        # the graphs and their id spaces may not.
        assert [p[1:] for p in crashed] == [p[1:] for p in clean]


class TestInertBuildOption:
    """``LifecycleConfig.n_workers`` outlived the wave builder only
    because the frozen ``benchmarks/e2e/workloads.py`` passes
    ``n_workers=1``; nothing reads it, so no other value is accepted."""

    def test_one_still_constructs(self):
        assert LifecycleConfig(n_workers=1) == LifecycleConfig()

    @pytest.mark.parametrize("value", [0, 2, 4])
    def test_any_other_value_raises(self, value):
        with pytest.raises(ValueError, match="n_workers must be 1"):
            LifecycleConfig(n_workers=value)
