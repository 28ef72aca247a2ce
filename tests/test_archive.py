"""Every persistable index saves to and loads from one image file.

Round trips keep answers, tombstones and each kind's own state; every
corruption (a flipped byte in any member class or the manifest, a
truncated file, a dropped member, another format version, a format-1
zip, a CSR the kernel cannot read, a directory) raises
:class:`ArchiveError` naming the file and, where there is one, the
member.  Loading never unpickles.
"""

import os
import pickle
import re

import numpy as np
import pytest

from repro import persistence
from repro.persistence import image_layout, read_image
from repro import (
    AcornIndex,
    AcornOneIndex,
    AcornParams,
    ArchiveError,
    AttributeRangePartitioner,
    Between,
    FlatAcornIndex,
    HashPartitioner,
    HnswIndex,
    LifecycleConfig,
    LifecycleIndex,
    ShardedAcornIndex,
    TruePredicate,
    load_index,
    save_index,
)
from tests.shard.conftest import make_world

N, DIM = 120, 8
EF = 2 * N
PARAMS = AcornParams(m=6, gamma=4, m_beta=8, ef_construction=24)
CONFIG = LifecycleConfig(auto_publish=False, compact_min_delta=7,
                         compact_delta_fraction=0.5)
VECTORS, TABLE = make_world(n=N, dim=DIM, seed=9)
QUERIES = np.random.default_rng(5).standard_normal((3, DIM)).astype(np.float32)
ROW = {"year": 2005, "score": 0.5, "cat": "c1", "tags": ["common", "t1"]}


def _build(kind):
    if kind.startswith("lifecycle"):
        lc = LifecycleIndex.build(VECTORS, TABLE, params=PARAMS, seed=0,
                                  config=CONFIG)
        rng = np.random.default_rng(4)
        for _ in range(6):
            lc.insert(rng.standard_normal(DIM).astype(np.float32), ROW)
        for ext in (3, 40, N + 2):
            lc.delete(ext)
        lc.publish()
        return lc
    if kind.endswith("sharded"):
        index = ShardedAcornIndex.build(
            VECTORS, TABLE, params=PARAMS, seed=0,
            partitioner=(HashPartitioner(4, seed=2) if kind == "hash-sharded"
                         else AttributeRangePartitioner("year", n_shards=3)))
        index.mark_deleted(17)
        return index
    head = VECTORS[:-2]  # the table keeps two rows for add() after a load
    if kind == "hnsw":
        return HnswIndex.build(head, m=6, ef_construction=24, seed=0)
    if kind == "acorn1":
        index = AcornOneIndex.build(head, TABLE, m=8, ef_construction=24,
                                    seed=0)
    else:
        cls = FlatAcornIndex if kind == "flat" else AcornIndex
        index = cls.build(head, TABLE, params=PARAMS, seed=0)
    index.mark_deleted(3)
    return index


KINDS = ["hnsw", "acorn", "acorn1", "flat", "range-sharded", "hash-sharded",
         "lifecycle", "lifecycle-sealed"]


def _state(index):
    """What a round trip must keep: answers, tombstones, own state."""
    if isinstance(index, HnswIndex):
        answers = [index.search(q, 5, ef_search=EF) for q in QUERIES]
    else:
        answers = [index.search(q, p, 5, ef_search=EF) for q in QUERIES
                   for p in (TruePredicate(), Between("year", 2003, 2012))]
    state = {"type": type(index),
             "answers": [(r.ids.tolist(), r.distances.tolist())
                         for r in answers]}
    if isinstance(index, AcornIndex):
        state.update(deleted=sorted(index._deleted), params=index.params)
    if isinstance(index, ShardedAcornIndex):
        state.update(
            partitioner=index.partitioner.spec(),
            deleted=[sorted(s._deleted) for s in index.shards],
        )
    if isinstance(index, LifecycleIndex):
        state.update(
            epoch=index.current_epoch, next_id=index.next_external_id,
            live=index.live_ids().tolist(), config=index.config,
            tombstones=sorted(index._tombstones),
            delta_size=index.delta_size(),
        )
    return state


@pytest.fixture(scope="module", params=KINDS)
def saved(request, tmp_path_factory):
    """(kind, path, state at save time) for every archive kind."""
    kind = request.param
    index = _build(kind)
    path = tmp_path_factory.mktemp(kind) / "index.npz"
    state = _state(index)
    if kind == "lifecycle-sealed":
        def on_stage(stage):
            if stage == "build":
                assert index._sealed and not len(index._delta)
                save_index(index, path)
        index.compact(on_stage=on_stage)
    else:
        save_index(index, path)
    return kind, path, state


class TestRoundTrip:
    def test_state_survives(self, saved):
        _, path, state = saved
        assert _state(load_index(path)) == state

    def test_writes_continue_after_load(self, saved):
        kind, path, state = saved
        loaded = load_index(path)
        if isinstance(loaded, LifecycleIndex):
            new_id = loaded.insert(VECTORS[0] + 0.01, ROW)
            assert new_id == state["next_id"]
            assert loaded.current_epoch == state["epoch"]  # config kept
            loaded.publish()
            loaded.compact()
            assert loaded.delta_size() == 0
            assert new_id in loaded.live_ids()
        elif isinstance(loaded, ShardedAcornIndex):
            pytest.skip("a sharded index takes no writes")
        else:
            new_id = loaded.add(VECTORS[-1])
            loaded.graph.validate()
            hit = (loaded.search(VECTORS[-1], 1, ef_search=EF)
                   if kind == "hnsw" else
                   loaded.search(VECTORS[-1], TruePredicate(), 1,
                                 ef_search=EF))
            assert hit.ids.tolist() == [new_id]


def _image(path):
    """``(meta, arrays)`` of the image file at ``path`` (arrays copied)."""
    meta, arrays = read_image(np.fromfile(path, dtype=np.uint8), path)
    return meta, {name: np.array(array) for name, array in arrays.items()}


def _write(target, meta, arrays):
    """A well-formed image file of ``meta`` and ``arrays`` (every sha256
    recomputed)."""
    size, pieces = image_layout(meta, arrays)
    block = np.zeros(size, dtype=np.uint8)
    for offset, raw in pieces:
        block[offset:offset + raw.size] = raw
    block.tofile(target)
    return target


def _rewrite(path, target, drop=None, replace=None):
    """A well-formed copy of the image without member ``drop`` or with
    ``replace`` (a ``{name: array}`` dict) swapped in."""
    meta, arrays = _image(path)
    arrays.pop(drop, None)
    return _write(target, meta, {**arrays, **(replace or {})})


def _member_offsets(path):
    """``{name: (offset, size)}`` of each member's bytes in the file, for
    the first non-empty member of each class (digits in names collapse)."""
    data = np.fromfile(path, dtype=np.uint8)
    start = data.__array_interface__["data"][0]
    seen = {}
    for name, array in read_image(data, path)[1].items():
        if array.size:
            seen.setdefault(re.sub(r"\d+", "N", name), (
                name, array.__array_interface__["data"][0] - start,
                array.nbytes))
    return list(seen.values())


def _raises(path, member=None):
    pattern = re.escape(str(path))
    if member is not None:
        pattern += f".*member '{re.escape(member)}'"
    return pytest.raises(ArchiveError, match=pattern)


class TestCorruption:
    def test_flipped_byte_in_every_member_class(self, saved, tmp_path):
        _, path, _ = saved
        blob = path.read_bytes()
        target = tmp_path / "flipped.npz"
        for name, offset, size in _member_offsets(path):
            broken = bytearray(blob)
            broken[offset + size // 2] ^= 0xFF
            target.write_bytes(bytes(broken))
            with _raises(target, name):
                load_index(target)
        broken = bytearray(blob)
        broken[100] ^= 0xFF  # inside the JSON manifest
        target.write_bytes(bytes(broken))
        with pytest.raises(ArchiveError, match="manifest failed its sha256"):
            load_index(target)

    def test_truncated_file(self, saved, tmp_path):
        _, path, _ = saved
        target = tmp_path / "half.npz"
        target.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with _raises(target):
            load_index(target)

    def test_dropped_member(self, saved, tmp_path):
        kind, path, _ = saved
        member = {"range-sharded": "shard1.vectors",
                  "hash-sharded": "shard_of", "lifecycle": "delta_vectors",
                  "lifecycle-sealed": "base.L0.indices"}.get(kind, "vectors")
        target = _rewrite(path, tmp_path / "dropped.npz", drop=member)
        with _raises(target, member):
            load_index(target)

    def test_other_format_version(self, saved, tmp_path, monkeypatch):
        _, path, _ = saved
        meta, arrays = _image(path)
        monkeypatch.setattr(persistence, "_FORMAT_VERSION", 3)
        target = _write(tmp_path / "v3.npz", meta, arrays)
        monkeypatch.undo()
        with pytest.raises(ArchiveError, match=re.escape(str(target))
                           + ".*format version 3 \\(expected 2\\)"):
            load_index(target)

    def test_format_one_zip_is_refused(self, tmp_path):
        """A zip ``.npz`` from before the image format is named, not read."""
        target = tmp_path / "old.npz"
        np.savez_compressed(target, format_version=np.asarray([1]))
        with pytest.raises(ArchiveError, match=re.escape(str(target))
                           + ".*format-1 \\(zip\\) archive"):
            load_index(target)

    def test_base_ids_must_cover_the_base(self, tmp_path):
        path = tmp_path / "lifecycle.npz"
        save_index(_build("lifecycle"), path)
        target = _rewrite(path, tmp_path / "short.npz",
                          replace={"base_ids": np.arange(N - 1)})
        with _raises(target, "base_ids"):
            load_index(target)

    def test_directory_is_refused(self, tmp_path):
        with pytest.raises(ArchiveError, match="is a directory"):
            load_index(tmp_path)

    def test_missing_file_is_named(self, tmp_path):
        with _raises(tmp_path / "absent.npz"):
            load_index(tmp_path / "absent.npz")


def _bad_edge(arrays):
    arrays["L0.indices"][0] = N + 5


def _negative_edge(arrays):
    # A kernel ``take`` would wrap -1 to the last row without a word.
    arrays["L0.indices"][0] = -1


def _decreasing_indptr(arrays):
    indptr = arrays["L0.indptr"]
    indptr[1], indptr[2] = indptr[2], indptr[1] - 1


def _level_disagrees(arrays):
    levels = arrays["node_levels"]
    levels[np.flatnonzero(levels == 0)[0]] = 1


def _short_dists(arrays):
    arrays["L0.dists"] = arrays["L0.dists"][:-1]


class TestCsrValidation:
    """The kernel reads the loaded CSR as it is, so every image is
    checked first; each fault names its member (the sha256 of the
    re-packed image is valid)."""

    @pytest.mark.parametrize("edit, member", [
        (_bad_edge, "L0.indices"),
        (_negative_edge, "L0.indices"),
        (_decreasing_indptr, "L0.indptr"),
        (_level_disagrees, "L1.node_ids"),
        (_short_dists, "L0.dists"),
    ])
    def test_bad_csr_is_refused(self, tmp_path, edit, member):
        path = tmp_path / "acorn.npz"
        save_index(_build("acorn"), path)
        meta, arrays = _image(path)
        assert meta["levels"] >= 2
        edit(arrays)
        target = _write(tmp_path / "bad.npz", meta, arrays)
        with _raises(target, member):
            load_index(target)


class TestNoPickle:
    def test_load_never_unpickles(self, saved, monkeypatch):
        """Only numbers, bools and JSON: a load runs with pickle gone."""
        kind, path, state = saved

        def refuse(*args, **kwargs):
            raise AssertionError("load_index unpickled something")

        monkeypatch.setattr(pickle, "loads", refuse)
        monkeypatch.setattr(pickle, "load", refuse)
        assert _state(load_index(path)) == state


class TestExactState:
    @pytest.mark.parametrize("metric", ["l2", "ip", "cosine"])
    def test_edge_distances_round_trip_exactly(self, tmp_path, metric):
        """Edge distances are stored as float32: every one the build
        computed is a float32 value, so the round trip is exact."""
        index = AcornIndex.build(VECTORS, TABLE, params=PARAMS, seed=0,
                                 metric=metric)
        save_index(index, tmp_path / "index.npz")
        loaded = load_index(tmp_path / "index.npz")
        assert loaded._edge_dists == index._edge_dists
        assert loaded.graph.checksum() == index.graph.checksum()

    def test_edge_distances_round_trip_exactly_after_a_fold(self, tmp_path):
        lc = _build("lifecycle")
        lc.compact()
        assert lc.delta_size() == 0
        save_index(lc, tmp_path / "folded.npz")
        loaded = load_index(tmp_path / "folded.npz")
        assert loaded._base._edge_dists == lc._base._edge_dists

    def test_every_param_survives(self, tmp_path):
        """All of AcornParams round-trips, ``flatten_levels`` too (the
        format-1 archive dropped it, so adds after a load drew levels
        at the wrong rate)."""
        params = AcornParams(m=6, gamma=4, m_beta=8, ef_construction=24,
                             flatten_levels=True)
        index = AcornIndex.build(VECTORS[:-2], TABLE, params=params, seed=0)
        save_index(index, tmp_path / "flat-levels.npz")
        loaded = load_index(tmp_path / "flat-levels.npz")
        assert loaded.params == params
        for vector in VECTORS[-2:]:
            index.add(vector)
            loaded.add(vector)
        assert loaded.graph.checksum() == index.graph.checksum()

    def test_loaded_lifecycle_has_every_field_of_a_fresh_one(self, tmp_path):
        """The loader builds through ``__init__``: a field added there
        cannot be missing from a loaded lifecycle."""
        lc = _build("lifecycle")
        save_index(lc, tmp_path / "lc.npz")
        fresh = LifecycleIndex(AcornIndex.build(VECTORS, TABLE,
                                                params=PARAMS, seed=0))
        assert sorted(vars(load_index(tmp_path / "lc.npz"))) == sorted(
            vars(fresh))

    def test_loaded_index_reads_its_image_in_place(self, tmp_path):
        """The store wraps the image's vectors and the frozen snapshot
        is its CSR — read-only, not copied, not re-frozen — and the
        first add() grows into a fresh buffer."""
        save_index(_build("acorn"), tmp_path / "index.npz")
        loaded = load_index(tmp_path / "index.npz")
        frozen = loaded._frozen
        assert frozen is not None and loaded.freeze() is frozen
        assert not loaded.store._data.flags.owndata
        assert not loaded.store._data.flags.writeable
        assert all(not level.indices.flags.writeable for level in frozen)
        loaded.add(VECTORS[-1])
        assert loaded.store._data.flags.writeable


class TestSaveTarget:
    def test_saves_exactly_the_path(self, tmp_path):
        """No suffix is appended: the file lands where it was asked."""
        index = _build("acorn")
        save_index(index, tmp_path / "idx")
        assert os.listdir(tmp_path) == ["idx"]
        assert _state(load_index(tmp_path / "idx")) == _state(index)

    def test_interrupted_save_keeps_the_previous_archive(self, tmp_path,
                                                         monkeypatch):
        path = tmp_path / "index.npz"
        save_index(_build("acorn"), path)
        before = path.read_bytes()
        layout = persistence.image_layout

        def dies_midway(meta, arrays):
            size, pieces = layout(meta, arrays)

            def first_piece_then_interrupt():
                yield pieces[0]
                raise KeyboardInterrupt

            return size, first_piece_then_interrupt()

        monkeypatch.setattr(persistence, "image_layout", dies_midway)
        with pytest.raises(KeyboardInterrupt):
            save_index(_build("hnsw"), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["index.npz"]
