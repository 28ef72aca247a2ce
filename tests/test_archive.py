"""Every persistable index saves to and loads from one ``.npz`` file.

Round trips keep answers, tombstones and each kind's own state; every
corruption (a flipped byte in any member class, a truncated file, a
dropped member, a directory) raises :class:`ArchiveError` naming the
file and, where there is one, the member.
"""

import os
import re
import zipfile

import numpy as np
import pytest

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
            partitioner=index.partitioner.spec(), scale_ef=index.scale_ef,
            summaries=[s.to_dict() for s in index.router.summaries],
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


def _member_classes(path):
    """The first member of each class: digits in names collapse."""
    seen = {}
    with zipfile.ZipFile(path) as archive:
        for info in archive.infolist():
            seen.setdefault(re.sub(r"\d+", "N", info.filename), info)
    return list(seen.values())


def _rewrite(path, target, drop=None, replace=None):
    """A well-formed copy of the archive without member ``drop`` or with
    ``replace`` (a ``{name: array}`` dict) swapped in."""
    with np.load(path, allow_pickle=True) as archive:
        members = {name: archive[name] for name in archive.files}
    members.pop(drop, None)
    np.savez_compressed(target, **{**members, **(replace or {})})
    return target


def _raises(path, member=None):
    pattern = re.escape(str(path))
    if member is not None:
        pattern += f".*member '{re.escape(member)}'"
    return pytest.raises(ArchiveError, match=pattern)


class TestCorruption:
    def test_flipped_byte_in_every_member_class(self, saved, tmp_path):
        _, path, _ = saved
        blob = path.read_bytes()
        for info in _member_classes(path):
            # The local header is 30 bytes plus the name and extra field.
            header = blob[info.header_offset: info.header_offset + 30]
            start = (info.header_offset + 30
                     + int.from_bytes(header[26:28], "little")
                     + int.from_bytes(header[28:30], "little"))
            broken = bytearray(blob)
            broken[start + info.compress_size // 2] ^= 0xFF
            target = tmp_path / "flipped.npz"
            target.write_bytes(bytes(broken))
            with _raises(target, info.filename[: -len(".npy")]):
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
                  "lifecycle-sealed": "base.level0_edges"}.get(kind, "vectors")
        target = _rewrite(path, tmp_path / "dropped.npz", drop=member)
        with _raises(target, member):
            load_index(target)

    def test_other_format_version(self, saved, tmp_path):
        _, path, _ = saved
        target = _rewrite(path, tmp_path / "v2.npz",
                          replace={"format_version": np.asarray([2])})
        with _raises(target, "format_version"):
            load_index(target)

    def test_base_ids_must_cover_the_base(self, tmp_path):
        path = tmp_path / "lifecycle.npz"
        save_index(_build("lifecycle"), path)
        target = _rewrite(path, tmp_path / "short.npz",
                          replace={"base_ids": np.arange(N - 1)})
        with _raises(target, "base_ids"):
            load_index(target)

    def test_directory_is_refused(self, tmp_path):
        with pytest.raises(ArchiveError, match="now single .npz files"):
            load_index(tmp_path)

    def test_missing_file_is_named(self, tmp_path):
        with _raises(tmp_path / "absent.npz"):
            load_index(tmp_path / "absent.npz")


class TestSaveTarget:
    def test_saves_exactly_the_path(self, tmp_path):
        """No ``.npz`` is appended: the file lands where it was asked."""
        index = _build("acorn")
        save_index(index, tmp_path / "idx")
        assert os.listdir(tmp_path) == ["idx"]
        assert _state(load_index(tmp_path / "idx")) == _state(index)

    def test_interrupted_save_keeps_the_previous_archive(self, tmp_path,
                                                         monkeypatch):
        path = tmp_path / "index.npz"
        save_index(_build("acorn"), path)
        before = path.read_bytes()

        def dies_midway(handle, **members):
            handle.write(b"PK\x03\x04 partial")
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "savez_compressed", dies_midway)
        with pytest.raises(KeyboardInterrupt):
            save_index(_build("hnsw"), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["index.npz"]
