"""Golden regression: pinned instrumentation counters across shard counts.

These totals are a tripwire, not a spec: any change to graph
construction, traversal, routing, or shard accounting moves them and
should be *noticed*.  If a deliberate algorithm change shifts the
numbers, regenerate the table by running this file's ``main`` guard::

    PYTHONPATH=src:. python tests/shard/test_golden_stats.py

and paste the printed ``GOLDEN`` block over the one below, explaining
the shift in the commit message.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.params import AcornParams
from repro.predicates import Between, ContainsAny, Equals, TruePredicate
from repro.shard import AttributeRangePartitioner, ShardedAcornIndex

from tests.shard.conftest import make_world

PARAMS = AcornParams(m=8, gamma=6, m_beta=12, ef_construction=40)
N, DIM, SEED = 180, 10, 1234
K, EF = 10, 48


@dataclasses.dataclass(frozen=True)
class GoldenCounters:
    """Aggregated per-batch counters pinned for one shard count."""

    distance_computations: int
    hops: int
    shards_probed: int
    shards_pruned: int


# Every probe passes at most N = 180 rows, within the scan cutoff
# max(EF, K)·M/2 = 192, so each is one exact scan: the pins are the
# passing counts summed, identical across shard counts, with no hops.
GOLDEN = {
    1: GoldenCounters(distance_computations=1256, hops=0,
                      shards_probed=16, shards_pruned=0),
    2: GoldenCounters(distance_computations=1256, hops=0,
                      shards_probed=28, shards_pruned=4),
    3: GoldenCounters(distance_computations=1256, hops=0,
                      shards_probed=40, shards_pruned=8),
}


def _workload():
    vectors, table = make_world(n=N, dim=DIM, seed=SEED)
    queries = np.random.default_rng(77).standard_normal(
        (4, DIM)
    ).astype(np.float32)
    predicates = [
        TruePredicate(),
        Between("year", 2002, 2006),
        Equals("cat", "c1"),
        ContainsAny("tags", ("t2", "t5")),
    ]
    return vectors, table, queries, predicates


def _measure(n_shards: int) -> GoldenCounters:
    vectors, table, queries, predicates = _workload()
    index = ShardedAcornIndex.build(
        vectors, table,
        partitioner=AttributeRangePartitioner("year", n_shards=n_shards),
        params=PARAMS, seed=SEED,
    )
    comps = hops = probed = pruned = 0
    for predicate in predicates:
        for query in queries:
            result = index.search(query, predicate, K, ef_search=EF)
            comps += result.distance_computations
            hops += result.hops
            probed += result.shards_probed
            pruned += result.shards_pruned
    return GoldenCounters(
        distance_computations=comps, hops=hops,
        shards_probed=probed, shards_pruned=pruned,
    )


@pytest.mark.parametrize("n_shards", sorted(GOLDEN))
def test_counters_match_golden(n_shards):
    measured = _measure(n_shards)
    assert measured == GOLDEN[n_shards], (
        f"instrumentation counters drifted for n_shards={n_shards}: "
        f"measured {measured}, pinned {GOLDEN[n_shards]}; if the change "
        "is deliberate, regenerate via this file's __main__ guard"
    )


def test_golden_accounting_balances():
    """The pinned values themselves must satisfy the shard invariant."""
    n_queries = 16  # 4 predicates x 4 queries
    for n_shards, golden in GOLDEN.items():
        assert golden.shards_probed + golden.shards_pruned == (
            n_queries * n_shards
        )


def main() -> None:
    """Regenerate and print the GOLDEN table."""
    print("GOLDEN = {")
    for n_shards in sorted(GOLDEN):
        print(f"    {n_shards}: {_measure(n_shards)!r},")
    print("}")


if __name__ == "__main__":
    main()
