"""Frozen search vs its references: byte-identical results.

The CSR layout, the materialized expansions and the frozen beam kernel
are pure performance changes; these tests pin the contract that makes
them safe.  Full searches: for every index type the production path
returns *exactly* what the same descent returns through the reference
kernel (``search_layer`` + ``_neighbor_fn``; ``tests/conftest.py``) —
same ids, same distance bytes, same distance-computation counts, same
hop and visited-node counters.  Lookups: every vectorized strategy
returns exactly what Figure 4a–c, read literally as a sequential loop
over the live adjacency lists, returns.

("legacy"/"dict" in test names dates from when the reference was the
pre-CSR dict-of-arrays kernel; ``search_layer`` was byte-identical to it
when it was retired, so the anchor is transitive.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AcornParams, FlatAcornIndex
from repro.core.search import (
    attach_expansion,
    compressed_neighbors,
    expanded_neighbors,
    filtered_neighbors,
    freeze_graph,
    truncated_neighbors,
)
from repro.engine import QueryBatch, SearchEngine
from repro.predicates import Equals, Not, TruePredicate
from tests.conftest import (
    assert_results_identical,
    reference_hnsw_search,
    reference_search,
)

K = 10
# Small enough that the scan cutoff max(EF, K)·M/2 (40 at M = 8, 80 for
# the M = 16 ACORN-1 fixture) stays below every label's passing count
# (≥ 97 of 600): these searches walk, they do not scan.
EF = 10


@pytest.fixture(scope="module")
def flat_index(small_vectors, labeled_table):
    params = AcornParams(m=8, gamma=6, m_beta=16, ef_construction=32)
    return FlatAcornIndex.build(
        small_vectors[0], labeled_table, params=params, seed=3
    )


def _queries(small_vectors, n=12, seed=424):
    vectors, _ = small_vectors
    gen = np.random.default_rng(seed)
    picks = gen.choice(vectors.shape[0], size=n, replace=False)
    return vectors[picks] + 0.05 * gen.standard_normal(
        (n, vectors.shape[1])
    ).astype(np.float32)


def _predicates(n=12):
    preds = [Equals("label", i % 6) for i in range(n - 1)]
    preds.append(TruePredicate())
    return preds


def level_lists(graph) -> list[dict[int, list[int]]]:
    """Each level's live adjacency lists, ``{node: stored list}``."""
    return [
        {node: list(graph.neighbors(node, lev))
         for node in graph.nodes_at_level(lev)}
        for lev in range(graph.max_level + 1)
    ]


def fig4_filter(lists, node, mask):
    """Figure 4a: the stored list, entries failing the predicate dropped."""
    return [v for v in lists[node] if mask[v]]


def fig4_compress(lists, node, mask, m_beta):
    """Figure 4b, one entry at a time (4c is ``m_beta = 0``).

    The first ``m_beta`` stored entries are filtered as they are; each
    later entry contributes itself and then its own stored list, keeping
    the first occurrence of every passing id.
    """
    out = fig4_filter({node: lists[node][:m_beta]}, node, mask)
    seen = set(out)
    for hop in lists[node][m_beta:]:
        for cand in [hop, *lists[hop]]:
            if mask[cand] and cand not in seen:
                seen.add(cand)
                out.append(cand)
    return out


class ReferenceSearcher:
    """An index whose ``search`` runs the reference kernel (engine-ready)."""

    def __init__(self, index) -> None:
        self.index = index
        self.table = index.table

    def search(self, query, predicate, k, ef_search=64):
        return reference_search(self.index, query, predicate, k,
                                ef_search=ef_search)


class TestSearchEquivalence:
    """Full searches, production vs reference kernel, byte for byte."""

    def test_acorn_gamma(self, acorn_index, small_vectors):
        for query, pred in zip(_queries(small_vectors), _predicates()):
            csr = acorn_index.search(query, pred, K, ef_search=EF)
            assert csr.hops > 0
            legacy = reference_search(acorn_index, query, pred, K,
                                      ef_search=EF)
            assert_results_identical(csr, legacy)

    def test_acorn_one(self, acorn_one_index, small_vectors):
        for query, pred in zip(_queries(small_vectors), _predicates()):
            csr = acorn_one_index.search(query, pred, K, ef_search=EF)
            assert csr.hops > 0
            legacy = reference_search(acorn_one_index, query, pred, K,
                                      ef_search=EF)
            assert_results_identical(csr, legacy)

    def test_flat_acorn(self, flat_index, small_vectors):
        for query, pred in zip(_queries(small_vectors), _predicates()):
            csr = flat_index.search(query, pred, K, ef_search=EF)
            assert csr.hops > 0
            legacy = reference_search(flat_index, query, pred, K,
                                      ef_search=EF)
            assert_results_identical(csr, legacy)

    def test_hnsw(self, hnsw_index, small_vectors):
        for query in _queries(small_vectors):
            csr = hnsw_index.search(query, K, ef_search=EF)
            legacy = reference_hnsw_search(hnsw_index, query, K,
                                           ef_search=EF)
            assert_results_identical(csr, legacy, counters=False)

    def test_acorn_with_tombstones(self, small_vectors, labeled_table):
        params = AcornParams(m=8, gamma=6, m_beta=16, ef_construction=32)
        from repro.core import AcornIndex

        # A table larger than the vector set is allowed (spare rows
        # serve later inserts), so the 600-row table works for 200 nodes.
        index = AcornIndex.build(
            small_vectors[0][:200], labeled_table, params=params, seed=4,
        )
        for node in (3, 17, 42, 99):
            index.mark_deleted(node)
        # ≈ 33 rows per label here: negate them so every search walks.
        preds = [Not(Equals("label", i)) for i in range(5)]
        for query, pred in zip(_queries(small_vectors, n=6),
                               preds + [TruePredicate()]):
            csr = index.search(query, pred, K, ef_search=EF)
            assert csr.hops > 0
            legacy = reference_search(index, query, pred, K, ef_search=EF)
            assert_results_identical(csr, legacy)

    def test_batched_legacy_adapter_matches_csr_engine(
        self, acorn_index, small_vectors
    ):
        """The engine fanning the reference kernel equals production."""
        queries = _queries(small_vectors)
        batch = QueryBatch.build(queries, _predicates(), k=K, ef_search=EF)
        with SearchEngine(acorn_index, num_workers=2) as engine:
            csr_results = engine.search_batch(batch)
        adapter = ReferenceSearcher(acorn_index)
        with SearchEngine(adapter, num_workers=2) as engine:
            legacy_results = engine.search_batch(batch)
        for csr, legacy in zip(csr_results, legacy_results):
            assert csr.hops > 0
            assert_results_identical(csr, legacy)


class TestStrategyEquivalence:
    """Vectorized CSR strategies vs the sequential Figure 4 loops."""

    @pytest.fixture(scope="class")
    def levels(self, acorn_index):
        csr = freeze_graph(acorn_index.graph)
        dicts = level_lists(acorn_index.graph)
        return csr, dicts

    def _masks(self, acorn_index):
        n = len(acorn_index)
        gen = np.random.default_rng(5)
        yield np.ones(n, dtype=bool)
        yield np.zeros(n, dtype=bool)
        for density in (0.05, 0.3, 0.7):
            yield gen.random(n) < density

    def test_filtered(self, acorn_index, levels):
        csr, dicts = levels
        for mask in self._masks(acorn_index):
            for node in dicts[0]:
                assert (
                    filtered_neighbors(csr[0], node, mask).tolist()
                    == fig4_filter(dicts[0], node, mask)
                )

    @pytest.mark.parametrize("m_beta", [0, 2, 8, 16, 64])
    def test_compressed(self, acorn_index, levels, m_beta):
        csr, dicts = levels
        for mask in self._masks(acorn_index):
            for node in list(dicts[0])[::7]:
                assert (
                    compressed_neighbors(csr[0], node, mask, m_beta).tolist()
                    == fig4_compress(dicts[0], node, mask, m_beta)
                )

    def test_expanded(self, acorn_index, levels):
        csr, dicts = levels
        for mask in self._masks(acorn_index):
            for node in list(dicts[0])[::7]:
                assert (
                    expanded_neighbors(csr[0], node, mask).tolist()
                    == fig4_compress(dicts[0], node, mask, 0)
                )

    @pytest.mark.parametrize("m", [0, 1, 4, 99])
    def test_truncated(self, levels, m):
        csr, dicts = levels
        for node in dicts[0]:
            assert (
                truncated_neighbors(csr[0], node, m).tolist()
                == dicts[0][node][:m]
            )

    def test_upper_levels_too(self, acorn_index, levels):
        csr, dicts = levels
        mask = np.ones(len(acorn_index), dtype=bool)
        for lev in range(1, len(dicts)):
            for node in dicts[lev]:
                assert (
                    filtered_neighbors(csr[lev], node, mask).tolist()
                    == fig4_filter(dicts[lev], node, mask)
                )


class TestFrozenLevelContract:
    def test_csr_arrays_read_only(self, acorn_index):
        for level in acorn_index.freeze():
            assert not level.indptr.flags.writeable
            assert not level.indices.flags.writeable
            assert not level.node_ids.flags.writeable

    def test_level_len_and_contains(self, acorn_index):
        csr = freeze_graph(acorn_index.graph)
        dicts = level_lists(acorn_index.graph)
        for level_csr, level_dict in zip(csr, dicts):
            assert len(level_csr) == len(level_dict)
            for node in level_dict:
                assert node in level_csr

    def test_absent_nodes_have_empty_slices(self, acorn_index):
        csr = freeze_graph(acorn_index.graph)
        if len(csr) < 2:
            pytest.skip("graph has a single level")
        top = csr[-1]
        dicts = level_lists(acorn_index.graph)
        absent = set(dicts[0]) - set(dicts[-1])
        if not absent:
            pytest.skip("all nodes reach the top level")
        node = next(iter(absent))
        assert node not in top
        assert top[node].size == 0


class TestMaterializedExpansion:
    """attach_expansion's fast path vs the dynamic path vs Figure 4b.

    The materialized lists must be invisible at the result level: for
    every mask, slicing the precomputed deduplicated sequence and
    gathering the mask yields exactly what the dynamic per-hop
    expansion (and the sequential reference loop) yields.
    """

    @pytest.fixture()
    def fresh_level(self, acorn_index):
        # A private snapshot so attaching here never leaks into the
        # module-scoped fixtures used by the other test classes.
        return freeze_graph(acorn_index.graph)[0]

    @pytest.mark.parametrize("m_beta", [0, 2, 8, 16])
    def test_fast_path_matches_dynamic_and_dict(
        self, acorn_index, fresh_level, m_beta
    ):
        dict_level = level_lists(acorn_index.graph)[0]
        dynamic = {}
        n = len(acorn_index)
        gen = np.random.default_rng(11)
        masks = [np.ones(n, dtype=bool), np.zeros(n, dtype=bool),
                 gen.random(n) < 0.3]
        nodes = list(dict_level)[::5]
        for i, mask in enumerate(masks):
            for node in nodes:
                dynamic[i, node] = compressed_neighbors(
                    fresh_level, node, mask, m_beta
                ).tolist()
        assert attach_expansion(fresh_level, m_beta)
        assert m_beta in fresh_level._expansions
        for i, mask in enumerate(masks):
            for node in nodes:
                fast = compressed_neighbors(
                    fresh_level, node, mask, m_beta
                ).tolist()
                assert fast == dynamic[i, node]
                assert fast == fig4_compress(dict_level, node, mask, m_beta)

    def test_attach_is_idempotent(self, fresh_level):
        assert attach_expansion(fresh_level, 4)
        first = fresh_level._expansions[4]
        assert attach_expansion(fresh_level, 4)
        assert fresh_level._expansions[4] is first

    def test_budget_rejection_leaves_level_unchanged(self, fresh_level):
        # An absurdly small bound must refuse to materialize; the
        # dynamic path still answers correctly afterwards.
        assert not attach_expansion(fresh_level, 4, max_ratio=0.01)
        assert 4 not in fresh_level._expansions
        mask = np.ones(fresh_level.num_ids, dtype=bool)
        node = int(fresh_level.node_ids[0])
        got = compressed_neighbors(fresh_level, node, mask, 4)
        assert isinstance(got, np.ndarray)

    def test_expansion_arrays_read_only(self, fresh_level):
        assert attach_expansion(fresh_level, 8)
        exp_indptr, exp_indices = fresh_level._expansions[8]
        assert not exp_indptr.flags.writeable
        assert not exp_indices.flags.writeable

    def test_production_acorn_gamma_attaches(self, acorn_index):
        frozen = acorn_index.freeze()
        assert acorn_index.params.m_beta in frozen[0]._expansions
