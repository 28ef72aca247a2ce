"""Property-based tests: sharded search equals the single-index reference.

For random data, predicates, k, and shard counts 1-8, the sharded
index must return exactly the ids and distances of an unsharded index
built from the same rows, and its plan must account for every shard
(``shards_probed + shards_pruned == n_shards``), pruning exactly the
shards whose slice of the compiled mask is empty.

Runs in the exhaustive regime: ``ef_search = n`` with ``M * gamma >= n``
so predicate subgraphs stay connected and graph search is exact over
passing rows on both sides — making exact equality a theorem, not a
statistical accident.  ``derandomize=True`` keeps example selection
deterministic: the suite's verdict never depends on hypothesis' RNG.
The merge itself (``merge_topk``) is pinned against a global
``(distance, id)`` sort, duplicate distances included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attributes.table import AttributeTable
from repro.core.acorn import AcornIndex
from repro.core.params import AcornParams
from repro.predicates import (
    Between,
    ContainsAny,
    Equals,
    Not,
    Or,
    RegexMatch,
    TruePredicate,
)
from repro.shard import (
    AttributeRangePartitioner,
    HashPartitioner,
    ShardedAcornIndex,
    merge_topk,
)

PARAMS = AcornParams(m=8, gamma=8, m_beta=16, ef_construction=48)
DIM = 8
TOKENS = ["a", "b", "c", "d", "e"]


def make_random_world(seed: int, n: int):
    """Random vectors + a table with an int and a keywords column."""
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, DIM)).astype(np.float32)
    table = AttributeTable(n)
    table.add_int_column("v", rng.integers(0, 4, size=n))
    table.add_keywords_column(
        "kw",
        [list(rng.choice(TOKENS, size=2, replace=False)) for _ in range(n)],
    )
    table.add_string_column("s", list(rng.choice(TOKENS, size=n)))
    return vectors, table, rng


predicate_specs = st.one_of(
    st.just(("true",)),
    st.integers(0, 3).map(lambda v: ("equals", v)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
        lambda ab: ("between", min(ab), max(ab))
    ),
    st.lists(st.sampled_from(TOKENS), min_size=1, max_size=2,
             unique=True).map(lambda kws: ("contains", tuple(kws))),
    st.integers(0, 3).map(lambda v: ("not-equals", v)),
)

#: The shapes above plus a regex, a ``Not`` over a range and an ``Or``.
mask_specs = st.one_of(
    predicate_specs,
    st.sampled_from(["a", "b", "^[ab]$", "z"]).map(
        lambda pattern: ("regex", pattern)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
        lambda ab: ("not-between", min(ab), max(ab))),
    st.tuples(st.integers(0, 3), st.sampled_from(TOKENS)).map(
        lambda pair: ("or", *pair)),
)


def build_predicate(spec):
    """Materialize one drawn predicate spec."""
    kind = spec[0]
    if kind == "true":
        return TruePredicate()
    if kind == "equals":
        return Equals("v", spec[1])
    if kind == "between":
        return Between("v", spec[1], spec[2])
    if kind == "contains":
        return ContainsAny("kw", spec[1])
    if kind == "regex":
        return RegexMatch("s", spec[1])
    if kind == "not-between":
        return Not(Between("v", spec[1], spec[2]))
    if kind == "or":
        return Or(Equals("v", spec[1]), ContainsAny("kw", (spec[2],)))
    return Not(Equals("v", spec[1]))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(30, 60),
    n_shards=st.integers(1, 8),
    k=st.integers(1, 8),
    use_range=st.booleans(),
    spec=predicate_specs,
)
def test_sharded_equals_reference(seed, n, n_shards, k, use_range, spec):
    vectors, table, _ = make_random_world(seed, n)
    predicate = build_predicate(spec)
    partitioner = (
        AttributeRangePartitioner("v", n_shards=n_shards)
        if use_range else HashPartitioner(n_shards, seed=seed)
    )
    reference = AcornIndex.build(vectors, table, params=PARAMS, seed=seed)
    sharded = ShardedAcornIndex.build(
        vectors, table, partitioner=partitioner, params=PARAMS, seed=seed
    )
    query = np.random.default_rng(seed + 1).standard_normal(
        DIM
    ).astype(np.float32)

    expected = reference.search(query, predicate, k, ef_search=n)
    got = sharded.search(query, predicate, k, ef_search=n)

    assert got.shards_probed + got.shards_pruned == n_shards
    assert np.array_equal(got.ids, expected.ids)
    assert np.allclose(got.distances, expected.distances)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(20, 50),
    n_shards=st.integers(1, 8),
    spec=predicate_specs,
)
def test_plan_accounting_invariant(seed, n, n_shards, spec):
    """Every plan covers each shard exactly once, probe xor prune."""
    vectors, table, _ = make_random_world(seed, n)
    sharded = ShardedAcornIndex.build(
        vectors, table,
        partitioner=AttributeRangePartitioner("v", n_shards=n_shards),
        params=PARAMS, seed=seed,
    )
    plan = sharded.plan(build_predicate(spec), ef_search=32)
    assert plan.n_shards == n_shards
    assert plan.n_probed + plan.n_pruned == n_shards
    assert sorted(d.shard_id for d in plan.decisions) == list(range(n_shards))


def brute_force_per_shard(vectors, mask, assignment, query, k):
    """The oracle: each shard's exact top-k over its passing rows, then
    the global top-k of those by (distance, id)."""
    found = []
    for gids in assignment.global_ids:
        passing = gids[mask[gids]]
        dists = ((vectors[passing] - query) ** 2).sum(axis=1)
        order = np.lexsort((passing, dists))[:k]
        found += zip(dists[order].tolist(), passing[order].tolist())
    found.sort()
    return [i for _, i in found[:k]], [d for d, _ in found[:k]]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(30, 60),
    n_shards=st.integers(1, 8),
    k=st.integers(1, 8),
    use_range=st.booleans(),
    spec=mask_specs,
)
def test_plan_prunes_exactly_the_empty_mask_slices(
    seed, n, n_shards, k, use_range, spec
):
    """The plan prunes a shard iff its slice of the mask is empty, and
    the answer equals the per-shard brute-force oracle."""
    vectors, table, _ = make_random_world(seed, n)
    predicate = build_predicate(spec)
    partitioner = (
        AttributeRangePartitioner("v", n_shards=n_shards)
        if use_range else HashPartitioner(n_shards, seed=seed)
    )
    sharded = ShardedAcornIndex.build(
        vectors, table, partitioner=partitioner, params=PARAMS, seed=seed
    )
    mask = predicate.compile(table).mask
    plan = sharded.plan(predicate, ef_search=n)
    empty = [not mask[gids].any() for gids in sharded.assignment.global_ids]
    assert [d.pruned for d in plan.decisions] == empty
    assert plan.n_probed + plan.n_pruned == n_shards

    query = np.random.default_rng(seed + 1).standard_normal(
        DIM
    ).astype(np.float32)
    got = sharded.search(query, predicate, k, ef_search=n)
    assert got.shards_probed + got.shards_pruned == n_shards
    assert got.shards_pruned == sum(empty)
    ids, dists = brute_force_per_shard(
        vectors, mask, sharded.assignment, query, k)
    assert got.ids.tolist() == ids
    assert np.allclose(got.distances, dists, rtol=1e-4, atol=1e-5)


def _parts(streams):
    """``(distances, ids)`` arrays from ``(distance, id)`` pair lists."""
    return [(np.asarray([d for d, _ in s], dtype=np.float32),
             np.asarray([i for _, i in s], dtype=np.int64)) for s in streams]


def _pairs(merged):
    distances, ids = merged
    return list(zip(distances.tolist(), ids.tolist()))


@settings(max_examples=60, deadline=None)
@given(
    streams=st.lists(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, 2.0]),
                st.integers(0, 99),
            ),
            max_size=8,
        ),
        max_size=5,
    ),
    k=st.integers(0, 12),
)
def test_merge_topk_matches_global_sort_under_ties(streams, k):
    """The merge equals sorting the concatenation by (distance, id) —
    including duplicate distances across and within parts, in any
    order inside a part — then truncating to k."""
    merged = _pairs(merge_topk(_parts(streams), k))
    flat = sorted(pair for s in streams for pair in s)
    assert merged == flat[:k]


def test_merge_topk_tie_break_is_deterministic_across_stream_order():
    streams_a = [[(0.5, 7), (1.0, 1)], [(0.5, 3), (0.5, 9)]]
    streams_b = [[(0.5, 3), (0.5, 9)], [(0.5, 7), (1.0, 1)]]
    merged = _pairs(merge_topk(_parts(streams_a), 3))
    assert merged == _pairs(merge_topk(_parts(streams_b), 3))
    assert merged == [(0.5, 3), (0.5, 7), (0.5, 9)]
