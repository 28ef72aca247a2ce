"""SnapshotArena packing, canonicalization fixups, and manager lifecycle."""

import warnings

import numpy as np
import pytest

from repro.parallel import (
    COPY_FIXUPS,
    ArenaManager,
    SnapshotArena,
    attach_arena,
    canonical_array,
    parallel_available,
    reset_fixup_counters,
)
from repro.persistence import (
    ArchiveError,
    encode_index,
    read_image,
    save_index,
)


def sample_arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "vectors": rng.standard_normal((20, 6)).astype(np.float32),
        "L0.indptr": np.arange(21, dtype=np.int32),
        "tombstones": rng.random(20) < 0.2,
    }


def sample_image(seed=0):
    return {"seed": seed}, sample_arrays(seed)


def _block(arena):
    """A writable byte view of the whole block."""
    return np.ndarray((arena.nbytes,), dtype=np.uint8, buffer=arena.shm.buf)


def _offset(arena, name):
    """Byte offset of ``name``'s payload inside the block."""
    return (arena.view(name).__array_interface__["data"][0]
            - _block(arena).__array_interface__["data"][0])


class TestCanonicalArray:
    def test_canonical_input_is_returned_unchanged(self):
        reset_fixup_counters()
        arr = np.zeros((4, 3), dtype=np.float32)
        assert canonical_array("vectors", arr, dtype=np.float32) is arr
        assert COPY_FIXUPS == {}

    def test_fortran_float64_input_is_repaired_once(self):
        """The satellite regression: a Fortran-ordered float64 matrix
        smuggled into a freeze is copied (and counted) exactly once."""
        reset_fixup_counters()
        bad = np.asfortranarray(
            np.arange(12, dtype=np.float64).reshape(3, 4)
        )
        with pytest.warns(RuntimeWarning, match="copied once at freeze"):
            fixed = canonical_array("vectors", bad, dtype=np.float32)
        assert fixed.flags.c_contiguous
        assert fixed.dtype == np.float32
        assert np.array_equal(fixed, bad.astype(np.float32))
        assert COPY_FIXUPS["vectors"] == 1

    def test_repeat_offender_counts_but_warns_once(self):
        reset_fixup_counters()
        bad = np.zeros((3, 4), dtype=np.float64, order="F")
        with pytest.warns(RuntimeWarning):
            canonical_array("vectors", bad, dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            canonical_array("vectors", bad, dtype=np.float32)
        assert COPY_FIXUPS["vectors"] == 2

    def test_strided_view_is_repaired(self):
        reset_fixup_counters()
        base = np.arange(40, dtype=np.int32).reshape(10, 4)
        view = base[::2]
        with pytest.warns(RuntimeWarning, match="non-contiguous"):
            fixed = canonical_array("L0.indices", view, dtype=np.int32)
        assert fixed.flags.c_contiguous
        assert np.array_equal(fixed, view)
        assert COPY_FIXUPS["L0.indices"] == 1


class TestSnapshotArena:
    def test_pack_attach_roundtrip(self):
        arrays = sample_arrays()
        arena = SnapshotArena.create(({"seed": 0}, arrays), "tok-roundtrip")
        try:
            attached = attach_arena(arena.handle())
            try:
                assert attached.meta == {"seed": 0}
                for name, arr in arrays.items():
                    view = attached.view(name)
                    assert view.dtype == arr.dtype
                    assert np.array_equal(view, arr)
                    assert not view.flags.writeable
            finally:
                attached.close()
        finally:
            arena.unlink()

    def test_offsets_are_cache_line_aligned(self):
        arena = SnapshotArena.create(sample_image(), "tok-align")
        try:
            for name in arena.views():
                assert _offset(arena, name) % 64 == 0
            assert arena.nbytes >= sum(
                view.nbytes for view in arena.views().values()
            )
        finally:
            arena.unlink()

    def test_views_reject_writes(self):
        arena = SnapshotArena.create(sample_image(), "tok-ro")
        try:
            with pytest.raises(ValueError, match="read-only"):
                arena.view("vectors")[0, 0] = 1.0
        finally:
            arena.unlink()

    def test_tampered_manifest_is_rejected(self):
        arena = SnapshotArena.create(sample_image(), "tok-sha")
        try:
            _block(arena)[60] ^= 0xFF  # inside the JSON manifest
            with pytest.raises(ValueError, match="manifest failed its sha256"):
                attach_arena(arena.handle())
        finally:
            arena.unlink()

    def test_corrupted_bytes_fail_verification(self):
        arena = SnapshotArena.create(sample_image(), "tok-corrupt")
        try:
            _block(arena)[_offset(arena, "L0.indptr")] ^= 0xFF
            with pytest.raises(ArchiveError, match="L0.indptr"):
                arena.verify()
        finally:
            arena.unlink()

    def test_file_and_block_hold_one_image(self, acorn_index, tmp_path):
        """save_index's file and the process executor's block are one
        image: equal manifests and equal payload bytes."""
        path = tmp_path / "index.npz"
        save_index(acorn_index, path)
        blob = path.read_bytes()
        arena = SnapshotArena.create(encode_index(acorn_index), "tok-file")
        try:
            assert bytes(arena.shm.buf[:len(blob)]) == blob
            meta, arrays = read_image(blob, path)
            assert arena.views().keys() == arrays.keys()
            assert arena.meta == meta
            for name, array in arrays.items():
                assert arena.view(name).tobytes() == array.tobytes()
        finally:
            arena.unlink()

    def test_unlink_is_idempotent(self):
        arena = SnapshotArena.create(sample_image(), "tok-unlink")
        arena.unlink()
        arena.unlink()
        arena.close()

    def test_parallel_available_on_this_platform(self):
        assert parallel_available() is True


class TestArenaManager:
    def test_publish_retires_and_unlinks_unread_epoch(self):
        manager = ArenaManager()
        manager.publish("epoch-1", sample_image(0))
        manager.publish("epoch-2", sample_image(1))
        assert manager.current.token == "epoch-2"
        assert manager.published == 2
        assert manager.retired_unlinked == 1
        assert manager.live_arenas() == 1
        manager.close()

    def test_inflight_reader_defers_unlink_until_release(self):
        manager = ArenaManager()
        old = manager.publish("epoch-1", sample_image(0))
        manager.acquire(old)
        manager.publish("epoch-2", sample_image(1))
        assert old.retired
        assert manager.live_arenas() == 2
        assert manager.retired_unlinked == 0
        manager.release(old)
        assert manager.live_arenas() == 1
        assert manager.retired_unlinked == 1
        manager.close()

    def test_refs_pin_source_objects(self):
        manager = ArenaManager()
        source = np.zeros(8, dtype=np.float32)
        record = manager.publish(
            "epoch-1", ({}, {"vectors": source}), refs=(source,)
        )
        assert source is record.refs[0]
        manager.close()

    def test_close_unlinks_everything_and_is_idempotent(self):
        manager = ArenaManager()
        held = manager.publish("epoch-1", sample_image(0))
        manager.acquire(held)
        manager.publish("epoch-2", sample_image(1))
        manager.close()
        assert manager.live_arenas() == 0
        assert manager.current is None
        manager.close()
