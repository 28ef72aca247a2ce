"""The image a worker decodes: equivalence, zero-copy, and the registry.

Workers rebuild an index with :func:`~repro.persistence.decode_index`
over an arena's views of the :func:`~repro.persistence.encode_index`
image.  The in-process half of the zero-copy contract lives here
(buffer identity via ``np.shares_memory`` against the encoded arrays
and an attached arena); the in-worker half is the pool's
``introspect`` op, exercised by the equivalence matrix.
"""

import numpy as np
import pytest

from repro.core.acorn import AcornIndex
from repro.core.params import AcornParams
from repro.hnsw import HnswIndex
from repro.parallel import (
    COPY_FIXUPS,
    SnapshotArena,
    UnsupportedSearcher,
    reset_fixup_counters,
    snapshot_token,
)
from repro.persistence import decode_index, encode_index
from repro.predicates import Equals, TruePredicate
from repro.predicates.base import CompiledPredicate

from tests.parallel.conftest import make_labeled_world


def _search_pair(original, clone, table, query, predicate, k=5, ef=32):
    """Search the real index and its decoded clone identically.

    The clone gets the predicate pre-compiled to a mask — exactly what
    workers receive.
    """
    mask = predicate.compile(table).mask
    got = original.search(query, predicate, k, ef_search=ef)
    cloned = clone.search(query, CompiledPredicate(None, mask), k,
                          ef_search=ef)
    return got, cloned


def assert_identical(got, cloned):
    assert np.array_equal(got.ids, cloned.ids)
    assert np.array_equal(got.distances, cloned.distances)
    assert got.distance_computations == cloned.distance_computations


class TestMaterializeEquivalence:
    def test_materialized_clone_matches_byte_for_byte(
        self, acorn_index, labeled_table, small_vectors
    ):
        clone = decode_index(*encode_index(acorn_index))
        rng = np.random.default_rng(17)
        for label in range(4):
            query = small_vectors[0][rng.integers(0, 500)]
            got, cloned = _search_pair(
                acorn_index, clone, labeled_table, query,
                Equals("label", label),
            )
            assert_identical(got, cloned)

    def test_tombstones_survive_the_roundtrip(self):
        vectors, table = make_labeled_world(seed=21)
        index = AcornIndex.build(
            vectors, table,
            params=AcornParams(m=8, gamma=3, m_beta=8, ef_construction=40),
            seed=4,
        )
        index.mark_deleted(5)
        index.mark_deleted(17)
        clone = decode_index(*encode_index(index))
        assert clone._deleted == {5, 17}
        # ef 24 · Mβ 8 < 238 live rows: the clone's graph is walked.
        got, cloned = _search_pair(
            index, clone, table, vectors[5], TruePredicate(), k=8, ef=24
        )
        assert got.hops > 0
        assert_identical(got, cloned)
        assert 5 not in got.ids


class TestZeroCopy:
    def test_freeze_produces_no_canonicalization_copies(self, acorn_index):
        reset_fixup_counters()
        encode_index(acorn_index)
        assert sum(COPY_FIXUPS.values()) == 0

    def test_clone_arrays_share_freeze_buffers(self, acorn_index):
        meta, arrays = encode_index(acorn_index)
        clone = decode_index(meta, arrays)
        assert np.shares_memory(clone.store._data, arrays["vectors"])
        for lev, level in enumerate(clone._frozen):
            assert np.shares_memory(level.indices,
                                    arrays[f"L{lev}.indices"])
            assert np.shares_memory(level.indptr,
                                    arrays[f"L{lev}.indptr"])

    def test_arena_backed_clone_reads_the_shared_block(self, acorn_index):
        arena = SnapshotArena.create(encode_index(acorn_index),
                                     "tok-zero-copy")
        try:
            views = arena.views()
            clone = decode_index(arena.meta, views)
            assert np.shares_memory(clone.store._data,
                                    arena.view("vectors"))
            assert not clone.store._data.flags.writeable
            assert np.shares_memory(clone._frozen[0].indices,
                                    arena.view("L0.indices"))
        finally:
            arena.unlink()

    def test_fortran_float64_store_is_repaired_at_freeze(self):
        """Satellite regression: a mis-dtyped, Fortran-ordered vector
        buffer smuggled into the store is copied once (counted, warned)
        and the snapshot still searches identically."""
        vectors, table = make_labeled_world(seed=31)
        index = AcornIndex.build(
            vectors, table,
            params=AcornParams(m=8, gamma=3, m_beta=8, ef_construction=40),
            seed=4,
        )
        baseline = index.search(vectors[0], TruePredicate(), 5,
                                ef_search=24)
        assert baseline.hops > 0
        index.store._data = np.asfortranarray(
            index.store.vectors.astype(np.float64)
        )
        reset_fixup_counters()
        with pytest.warns(RuntimeWarning, match="copied once at freeze"):
            meta, arrays = encode_index(index)
        assert COPY_FIXUPS["vectors"] == 1
        assert arrays["vectors"].dtype == np.float32
        assert arrays["vectors"].flags.c_contiguous
        clone = decode_index(meta, arrays)
        mask = TruePredicate().compile(table).mask
        cloned = clone.search(vectors[0], CompiledPredicate(None, mask),
                              5, ef_search=24)
        assert_identical(baseline, cloned)


class TestTokens:
    def test_token_is_stable_across_calls(self, acorn_index):
        assert snapshot_token(acorn_index) == snapshot_token(acorn_index)

    def test_token_changes_on_delete(self):
        vectors, table = make_labeled_world(seed=41)
        index = AcornIndex.build(
            vectors, table,
            params=AcornParams(m=8, gamma=3, m_beta=8, ef_construction=40),
            seed=4,
        )
        before = snapshot_token(index)
        index.mark_deleted(0)
        assert snapshot_token(index) != before


class TestRegistry:
    def test_non_acorn_searcher_is_unsupported(self, small_vectors):
        hnsw = HnswIndex.build(small_vectors[0][:100], m=8,
                               ef_construction=32, seed=1)
        with pytest.raises(UnsupportedSearcher, match="HnswIndex"):
            snapshot_token(hnsw)

    def test_subclass_is_unsupported(self):
        """Exact-type registry: a subclass may carry Python-side state
        the image would drop, so it must run inline."""

        class Tweaked(AcornIndex):
            pass

        vectors, table = make_labeled_world(n=120, seed=61)
        index = Tweaked.build(
            vectors, table,
            params=AcornParams(m=8, gamma=3, m_beta=8, ef_construction=32),
            seed=3,
        )
        with pytest.raises(UnsupportedSearcher, match="Tweaked"):
            snapshot_token(index)

    def test_empty_index_is_unsupported(self, labeled_table):
        index = AcornIndex(
            dim=8, table=labeled_table,
            params=AcornParams(m=8, gamma=3, m_beta=8, ef_construction=32),
        )
        with pytest.raises(UnsupportedSearcher, match="empty"):
            snapshot_token(index)
