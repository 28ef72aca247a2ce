"""Chaos suite: fault-tolerant scatter-gather under injected failures.

Every test runs on an injected :class:`~repro.utils.clock.FakeClock` —
an autouse fixture turns any real ``time.sleep`` into a test failure,
so the whole suite is wall-clock free and deterministic.  Tests build
their own small flat-variant worlds (cheap graphs) and create a fresh
fault-injected view per test, so nothing leaks between tests and the
suite passes under any execution order.
"""

import time as time_module

import numpy as np
import pytest

from repro.attributes.table import AttributeTable
from repro.predicates import Between, TruePredicate
from repro.shard import (
    AttributeRangePartitioner,
    BreakerState,
    CircuitBreaker,
    Fault,
    FaultInjector,
    FaultPlan,
    HashPartitioner,
    ResiliencePolicy,
    ShardedAcornIndex,
    merge_topk,
)
from repro.shard.faults import ShardFault
from repro.shard.resilience import (
    recall_ceiling,
    validate_shard_result,
)
from repro.utils.clock import FakeClock

N, DIM, SEED = 120, 8, 11
N_SHARDS = 4
K = 8


@pytest.fixture(autouse=True)
def forbid_real_sleep(monkeypatch):
    """Any real time.sleep in this suite is a bug — fail loudly."""

    def _no_sleep(seconds):
        raise AssertionError(
            f"real time.sleep({seconds}) called inside the chaos suite; "
            "all waiting must go through the injected FakeClock"
        )

    monkeypatch.setattr(time_module, "sleep", _no_sleep)


def _world(seed=SEED):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((N, DIM)).astype(np.float32)
    table = AttributeTable(N)
    table.add_int_column("year", rng.integers(2000, 2012, size=N))
    return vectors, table


PARTITIONERS = {
    "hash": lambda: HashPartitioner(N_SHARDS),
    "range": lambda: AttributeRangePartitioner("year", n_shards=N_SHARDS),
}


def _build(partitioner_name, policy):
    vectors, table = _world()
    index = ShardedAcornIndex.build(
        vectors, table,
        partitioner=PARTITIONERS[partitioner_name](),
        variant="flat", seed=SEED, resilience=policy,
    )
    return vectors, table, index


def _policy(clock, **overrides):
    kwargs = dict(
        shard_deadline_s=1.0,
        max_retries=1,
        backoff_base_s=0.05,
        breaker_threshold=100,  # keep breakers out of the matrix tests
        breaker_reset_s=50.0,
        clock=clock,
    )
    kwargs.update(overrides)
    return ResiliencePolicy(**kwargs)


def _survivor_reference(index, query, predicate, k, ef, dead):
    """Ground-truth scatter-gather restricted to surviving shards."""
    compiled = predicate.compile(index.table)
    plan = index.plan(compiled, k=k, ef_search=ef)
    parts = []
    for decision in plan.decisions:
        if decision.pruned or decision.shard_id in dead:
            continue
        gids = index.assignment.global_ids[decision.shard_id]
        local_mask = compiled.mask[gids]
        if not local_mask.any():
            continue
        shard = index.shards[decision.shard_id]
        found = shard.search(
            query, type(compiled)(compiled.predicate, local_mask),
            k, ef_search=decision.ef_search,
        )
        parts.append((found.distances, gids[found.ids]))
    return merge_topk(parts, k)


FAULT_MATRIX = {
    "timeout": Fault(kind="latency", latency_s=5.0),
    "exception": Fault(kind="error"),
    "corrupt": Fault(kind="corrupt"),
    "truncate": Fault(kind="truncate"),
}


class TestFailureMatrix:
    """(fault kind) x (partitioner): partial results stay correct and
    the failure accounting is exact."""

    @pytest.mark.parametrize("partitioner_name", sorted(PARTITIONERS))
    @pytest.mark.parametrize("fault_name", sorted(FAULT_MATRIX))
    def test_degraded_matches_survivors(self, fault_name, partitioner_name):
        clock = FakeClock()
        policy = _policy(clock)
        vectors, table, index = _build(partitioner_name, policy)
        dead = {1}
        plan = FaultPlan({1: (FAULT_MATRIX[fault_name],)})
        chaos = index.with_faults(FaultInjector(plan, clock=clock, seed=3))

        queries = vectors[[5, 40, 77]]
        for predicate in (TruePredicate(), Between("year", 2003, 2008)):
            for query in queries:
                result = chaos.search(query, predicate, K, ef_search=N)
                distances, ids = _survivor_reference(
                    index, query, predicate, K, N, dead
                )
                assert result.ids.tolist() == ids.tolist()
                assert result.distances.tobytes() == distances.tobytes()

                # Exact accounting: the one dead shard, when probed,
                # lands in exactly one failure bucket.
                probed_dead = sum(
                    1 for rec in result.per_shard
                    if not rec["pruned"] and rec["shard"] in dead
                )
                assert result.shards_probed + result.shards_pruned == N_SHARDS
                assert (result.shards_failed + result.shards_timed_out
                        == probed_dead)
                if probed_dead:
                    assert result.degraded
                    if fault_name == "timeout":
                        assert result.shards_timed_out == 1
                        assert result.shards_failed == 0
                    else:
                        assert result.shards_failed == 1
                        assert result.shards_timed_out == 0
                    assert 0.0 <= result.recall_ceiling < 1.0
                else:
                    assert not result.degraded
                    assert result.recall_ceiling == 1.0

    @pytest.mark.parametrize("partitioner_name", sorted(PARTITIONERS))
    def test_per_shard_records_carry_failure_details(self, partitioner_name):
        clock = FakeClock()
        policy = _policy(clock)
        vectors, _, index = _build(partitioner_name, policy)
        plan = FaultPlan({2: (Fault(kind="error"),)})
        chaos = index.with_faults(FaultInjector(plan, clock=clock))
        result = chaos.search(vectors[0], TruePredicate(), K, ef_search=N)
        record = next(r for r in result.per_shard if r["shard"] == 2)
        assert record["status"] == "failed"
        assert record["attempts"] == policy.max_retries + 1
        assert "ShardFault" in record["failure"]
        for rec in result.per_shard:
            if rec["shard"] != 2 and not rec["pruned"]:
                assert rec["status"] == "ok"
                assert rec["failure"] is None


class TestFlakyRecovery:
    def test_flaky_shard_recovers_on_schedule(self):
        clock = FakeClock()
        policy = _policy(clock)
        vectors, _, index = _build("hash", policy)
        # First two calls to shard 0 fail, then it recovers.  With one
        # retry, query 1 burns both faulty calls and degrades; query 2
        # hits the recovered shard and must match the full reference.
        plan = FaultPlan({0: (Fault(kind="error", last_call=1),)})
        injector = FaultInjector(plan, clock=clock)
        chaos = index.with_faults(injector)

        first = chaos.search(vectors[9], TruePredicate(), K, ef_search=N)
        assert first.degraded
        assert first.shards_failed == 1
        assert injector.calls_to(0) == 2

        second = chaos.search(vectors[9], TruePredicate(), K, ef_search=N)
        assert not second.degraded
        assert second.shards_failed == 0
        assert second.recall_ceiling == 1.0
        healthy = index.search(vectors[9], TruePredicate(), K, ef_search=N)
        assert second.ids.tolist() == healthy.ids.tolist()

    def test_retry_consumes_backoff_on_the_injected_clock(self):
        clock = FakeClock()
        policy = _policy(clock, max_retries=2, backoff_base_s=0.25,
                         backoff_multiplier=2.0)
        vectors, _, index = _build("hash", policy)
        plan = FaultPlan({0: (Fault(kind="error"),)})
        chaos = index.with_faults(FaultInjector(plan, clock=clock))
        before = clock.monotonic()
        chaos.search(vectors[0], TruePredicate(), K, ef_search=N)
        elapsed = clock.monotonic() - before
        # Two retries: backoffs of 0.25 and 0.5 virtual seconds.
        assert elapsed == pytest.approx(0.75)


class TestCircuitBreaker:
    def _breaker_setup(self, fault_window):
        clock = FakeClock()
        policy = _policy(clock, max_retries=0, breaker_threshold=2,
                         breaker_reset_s=10.0)
        vectors, _, index = _build("hash", policy)
        plan = FaultPlan({0: (Fault(kind="error", last_call=fault_window),)})
        injector = FaultInjector(plan, clock=clock)
        chaos = index.with_faults(injector)
        return clock, vectors, injector, chaos

    def test_breaker_opens_rejects_then_recloses_on_schedule(self):
        clock, vectors, injector, chaos = self._breaker_setup(fault_window=1)
        query = vectors[3]

        chaos.search(query, TruePredicate(), K, ef_search=N)  # failure 1
        assert chaos.breakers[0].state is BreakerState.CLOSED
        chaos.search(query, TruePredicate(), K, ef_search=N)  # failure 2
        assert chaos.breakers[0].state is BreakerState.OPEN

        # Open breaker rejects without touching the shard at all.
        rejected = chaos.search(query, TruePredicate(), K, ef_search=N)
        record = next(r for r in rejected.per_shard if r["shard"] == 0)
        assert record["status"] == "failed"
        assert record["attempts"] == 0
        assert record["failure"] == "circuit breaker open"
        assert injector.calls_to(0) == 2

        # Not yet: one virtual second short of the reset window.
        clock.advance(9.0)
        assert chaos.breakers[0].state is BreakerState.OPEN
        clock.advance(1.0)
        assert chaos.breakers[0].state is BreakerState.HALF_OPEN

        # Half-open trial hits the now-recovered shard and recloses.
        healed = chaos.search(query, TruePredicate(), K, ef_search=N)
        assert not healed.degraded
        assert chaos.breakers[0].state is BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        clock, vectors, injector, chaos = self._breaker_setup(fault_window=10)
        query = vectors[3]
        chaos.search(query, TruePredicate(), K, ef_search=N)
        chaos.search(query, TruePredicate(), K, ef_search=N)
        assert chaos.breakers[0].state is BreakerState.OPEN
        clock.advance(10.0)
        assert chaos.breakers[0].state is BreakerState.HALF_OPEN
        failed = chaos.search(query, TruePredicate(), K, ef_search=N)
        assert failed.shards_failed == 1
        assert chaos.breakers[0].state is BreakerState.OPEN

    def test_breaker_unit_state_machine(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=5.0,
                                 clock=clock)
        assert breaker.state is BreakerState.CLOSED
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.allow()  # the half-open trial slot
        assert not breaker.allow()  # only one trial in flight
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.consecutive_failures == 0


class TestBaseExceptionPropagation:
    """Poisoned shards raising BaseException must never be folded into
    failure accounting — interrupts propagate."""

    class PoisonShard:
        """A shard whose search raises a BaseException subclass."""

        def __init__(self, inner, exc_type):
            self.inner = inner
            self.exc_type = exc_type

        def search(self, *args, **kwargs):
            raise self.exc_type("poisoned shard")

        def __len__(self):
            return len(self.inner)

        def __getattr__(self, name):
            return getattr(self.inner, name)

    @pytest.mark.parametrize("exc_type", [KeyboardInterrupt, SystemExit])
    @pytest.mark.parametrize("with_policy", [True, False])
    def test_base_exception_propagates(self, exc_type, with_policy):
        clock = FakeClock()
        policy = _policy(clock) if with_policy else None
        vectors, table = _world()
        index = ShardedAcornIndex.build(
            vectors, table, partitioner=HashPartitioner(N_SHARDS),
            variant="flat", seed=SEED, resilience=policy,
        )
        index.shards[1] = self.PoisonShard(index.shards[1], exc_type)
        with pytest.raises(exc_type):
            index.search(vectors[0], TruePredicate(), K, ef_search=N)

    def test_plain_exception_still_propagates_without_policy(self):
        vectors, table = _world()
        index = ShardedAcornIndex.build(
            vectors, table, partitioner=HashPartitioner(N_SHARDS),
            variant="flat", seed=SEED,
        )
        clock = FakeClock()
        plan = FaultPlan({1: (Fault(kind="error"),)})
        chaos = index.with_faults(FaultInjector(plan, clock=clock))
        with pytest.raises(ShardFault):
            chaos.search(vectors[0], TruePredicate(), K, ef_search=N)


class TestValidation:
    def _result(self, ids, distances):
        from repro.hnsw.hnsw import SearchResult

        return SearchResult(
            ids=np.asarray(ids, dtype=np.intp),
            distances=np.asarray(distances, dtype=np.float32),
            distance_computations=0,
        )

    def test_valid_payload_passes(self):
        assert validate_shard_result(
            self._result([0, 2], [0.1, 0.4]), shard_len=5
        ) is None

    def test_empty_payload_passes(self):
        assert validate_shard_result(self._result([], []), shard_len=5) is None

    def test_length_mismatch_rejected(self):
        reason = validate_shard_result(
            self._result([0, 1], [0.1, 0.2, 0.3]), shard_len=5
        )
        assert "length mismatch" in reason

    def test_out_of_range_ids_rejected(self):
        assert "outside" in validate_shard_result(
            self._result([0, 7], [0.1, 0.2]), shard_len=5
        )

    def test_nan_distances_rejected(self):
        assert "non-finite" in validate_shard_result(
            self._result([0, 1], [0.1, np.nan]), shard_len=5
        )

    def test_unsorted_distances_rejected(self):
        assert "not sorted" in validate_shard_result(
            self._result([0, 1], [0.5, 0.2]), shard_len=5
        )


class TestRecallCeiling:
    def test_all_surviving_is_one(self):
        assert recall_ceiling([3.0, 5.0], [True, True]) == 1.0

    def test_share_of_estimated_rows(self):
        assert recall_ceiling([3.0, 1.0], [True, False]) == pytest.approx(0.75)

    def test_nothing_expected_is_one(self):
        assert recall_ceiling([0.0, 0.0], [False, True]) == 1.0

    def test_engine_threads_failure_fields_through_stats(self):
        from repro.engine import QueryBatch, SearchEngine

        clock = FakeClock()
        policy = _policy(clock)
        vectors, _, index = _build("hash", policy)
        plan = FaultPlan({2: (Fault(kind="error"),)})
        chaos = index.with_faults(FaultInjector(plan, clock=clock))
        batch = QueryBatch.build(vectors[:4], TruePredicate(), k=K,
                                 ef_search=N)
        with SearchEngine(chaos) as engine:
            outcome = engine.search_batch(batch)
        assert all(s.degraded for s in outcome.stats)
        summary = outcome.summary()
        assert summary["degraded_queries"] == 4
        assert summary["shards_failed"] == 4
        assert summary["shards_timed_out"] == 0
        assert 0.0 < summary["min_recall_ceiling"] < 1.0


class TestDeterminism:
    def _run_once(self):
        clock = FakeClock()
        policy = _policy(clock)
        vectors, _, index = _build("hash", policy)
        plan = FaultPlan.seeded(N_SHARDS, 0.5, seed=9,
                                kinds=("error", "latency", "corrupt"),
                                latency_s=5.0)
        chaos = index.with_faults(FaultInjector(plan, clock=clock, seed=9))
        trace = []
        for query in vectors[:5]:
            r = chaos.search(query, TruePredicate(), K, ef_search=N)
            trace.append((
                r.ids.tolist(), r.shards_failed, r.shards_timed_out,
                r.degraded, round(r.recall_ceiling, 9),
                tuple(rec["status"] for rec in r.per_shard),
            ))
        trace.append(clock.monotonic())
        return trace

    def test_three_consecutive_runs_identical(self):
        first = self._run_once()
        assert self._run_once() == first
        assert self._run_once() == first
