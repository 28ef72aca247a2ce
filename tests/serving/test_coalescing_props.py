"""Property: coalescing is invisible to results.

Whatever batches the serving layer composes — full ``max_batch``
flushes, deadline-triggered partial flushes, interleaved tenants — the
(ids, distances) each caller gets back must be exactly what a direct
single-query search returns.  Batching is a throughput optimization,
never a semantics change.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.clock import FakeClock

from tests.serving.conftest import make_service, replay, run

# Gaps straddle the 10ms budget: same-instant coalescing, mid-window
# arrivals, and gaps long enough to force a deadline flush in between.
GAPS_S = [0.0, 0.001, 0.004, 0.012]

arrival_specs = st.lists(
    st.tuples(
        st.sampled_from(GAPS_S),
        st.integers(min_value=0, max_value=11),  # query-pool index
        st.integers(min_value=0, max_value=2),   # tenant
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=30, deadline=None)
@given(arrival_specs, st.integers(min_value=1, max_value=4))
def test_batched_results_equal_per_query(serving_world, specs, max_batch):
    _, _, index, queries, predicates = serving_world
    clock = FakeClock()
    service = make_service(
        index, clock=clock, max_batch=max_batch, latency_budget_ms=10.0
    )

    t = 0.0
    arrivals = []
    for gap_s, query_index, tenant in specs:
        t += gap_s
        arrivals.append((t, f"tenant-{tenant}", query_index))

    responses = run(replay(service, arrivals, queries, predicates))

    assert len(responses) == len(arrivals)
    assert all(not r.rejected for r in responses)  # quotas are unlimited
    for (_, tenant_id, query_index), response in zip(arrivals, responses):
        direct = index.search(
            queries[query_index],
            predicates[query_index],
            service.config.k,
            ef_search=service.config.ef_search,
        )
        np.testing.assert_array_equal(response.result.ids, direct.ids)
        np.testing.assert_array_equal(
            response.result.distances, direct.distances
        )
        assert response.tenant_id == tenant_id
        assert 1 <= response.batch_size_served <= max_batch
        assert response.stats.batch_size_served == (
            response.batch_size_served
        )
