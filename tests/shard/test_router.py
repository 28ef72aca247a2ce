"""Shard-plan tests: which shards a query probes, read from its mask.

``ShardedAcornIndex.plan`` counts the compiled mask's passing rows per
shard and prunes exactly the shards with none.  These tests pin that
rule against each shard's own table: a pruned shard has no passing row,
a probed one has at least one, and every decision carries the exact
local selectivity and the caller's ``ef_search``.
"""

import functools

import numpy as np
import pytest

from repro.attributes.table import subset_table
from repro.core.params import AcornParams
from repro.predicates import (
    And,
    Between,
    ContainsAll,
    ContainsAny,
    Equals,
    Not,
    OneOf,
    Or,
    RegexMatch,
    TruePredicate,
)
from repro.shard import AttributeRangePartitioner, ShardedAcornIndex

from tests.shard.conftest import make_world

PARAMS = AcornParams(m=8, gamma=6, m_beta=12, ef_construction=24)


@functools.lru_cache(maxsize=None)
def sharded_world(n, seed, n_shards=None, boundaries=None):
    """A range-sharded index over ``make_world(n, seed)`` and each
    shard's attribute table."""
    vectors, table = make_world(n=n, seed=seed)
    partitioner = AttributeRangePartitioner(
        "year", n_shards=n_shards,
        boundaries=None if boundaries is None else list(boundaries))
    index = ShardedAcornIndex.build(vectors, table, partitioner,
                                    params=PARAMS, seed=seed)
    tables = [subset_table(table, gids)
              for gids in index.assignment.global_ids]
    return index, tables


class TestPruningSoundness:
    """A shard is pruned exactly when its slice of the mask is empty."""

    PREDICATES = [
        TruePredicate(),
        Equals("year", 2003),
        Equals("year", 1950),
        Equals("cat", "c2"),
        OneOf("year", (2001, 2002)),
        OneOf("year", (1800, 1801)),
        Between("year", 2000, 2004),
        Between("year", 1900, 1901),
        Between("score", 0.0, 0.2),
        ContainsAny("tags", ("t3", "zzz-missing")),
        ContainsAny("tags", ("zzz-missing",)),
        ContainsAll("tags", ("common", "t1")),
        ContainsAll("tags", ("common", "zzz-missing")),
        RegexMatch("cat", r"c[12]"),
        And(Between("year", 2000, 2005), ContainsAny("tags", ("t1",))),
        Or(Between("year", 1900, 1901), Equals("year", 1800)),
        Not(TruePredicate()),
        Not(Between("year", 1000, 3000)),
    ]

    @pytest.mark.parametrize(
        "predicate", PREDICATES, ids=[repr(p)[:50] for p in PREDICATES]
    )
    def test_pruned_shards_are_truly_empty(self, predicate):
        index, tables = sharded_world(200, 9, n_shards=4)
        plan = index.plan(predicate, ef_search=32)
        assert plan.n_pruned + plan.n_probed == plan.n_shards == 4
        for decision in plan.decisions:
            local_mask = predicate.compile(tables[decision.shard_id]).mask
            assert decision.pruned == (not local_mask.any()), (
                f"shard {decision.shard_id} ({decision.reason!r}) has "
                f"{int(local_mask.sum())} passing rows"
            )
            assert decision.reason == (
                "no passing rows" if decision.pruned else "probe")

    def test_disjoint_range_prunes(self):
        index, _ = sharded_world(200, 9, n_shards=4)
        plan = index.plan(Between("year", 2000, 2002), ef_search=32)
        assert plan.n_pruned >= 1

    def test_empty_shard_always_pruned(self):
        # Boundaries outside the column's range leave shards 0 and 2
        # without a row.
        index, _ = sharded_world(60, 4, boundaries=(1900.0, 2100.0))
        assert [len(shard) for shard in index.shards] == [0, 60, 0]
        plan = index.plan(TruePredicate(), ef_search=32)
        assert [d.pruned for d in plan.decisions] == [True, False, True]
        assert plan.decisions[0].reason == "no passing rows"

    def test_regex_prunes_on_its_mask(self):
        """A regex prunes like any other predicate: the plan reads the
        mask it compiled to, whatever its shape."""
        index, tables = sharded_world(100, 2, n_shards=3)
        plan = index.plan(RegexMatch("cat", r"nothing-matches"), ef_search=32)
        assert plan.n_pruned == 3
        # Every row's ``cat`` matches; ``year`` splits the shards, so
        # the conjunction passes rows of shard 0 only.
        first_year = int(np.asarray(tables[0].column("year")).min())
        plan = index.plan(And(RegexMatch("cat", r"c\d"),
                              Equals("year", first_year)), ef_search=32)
        assert [d.pruned for d in plan.decisions] == [False, True, True]


class TestEstimates:
    def test_estimates_in_unit_interval(self):
        """Each decision's selectivity is the shard's exact share of
        passing rows."""
        index, tables = sharded_world(150, 4, n_shards=3)
        for predicate in TestPruningSoundness.PREDICATES:
            plan = index.plan(predicate, ef_search=32)
            for decision in plan.decisions:
                local_mask = predicate.compile(tables[decision.shard_id]).mask
                assert 0.0 <= decision.est_selectivity <= 1.0
                assert decision.est_selectivity == local_mask.mean()

    def test_true_predicate_estimates_full(self):
        index, _ = sharded_world(60, 4, n_shards=1)
        (decision,) = index.plan(TruePredicate(), ef_search=32).decisions
        assert decision.est_selectivity == 1.0


class TestEfScaling:
    """The plan never scales effort: a probe runs at the caller's
    ``ef_search``, a pruned shard at none."""

    def test_scaling_off_keeps_caller_ef(self):
        index, _ = sharded_world(200, 9, n_shards=4)
        plan = index.plan(Between("year", 2000, 2010), ef_search=64)
        assert all(d.ef_search == 64 for d in plan.probed)
        assert all(d.ef_search == 0 for d in plan.decisions if d.pruned)
