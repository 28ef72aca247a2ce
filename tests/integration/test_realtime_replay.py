"""Wall-clock open-loop replay (``replay_realtime``) end to end.

``tests/serving`` never sleeps — its conftest bans every real sleep, and
its realtime cases hold a batch in flight with an event instead — so the
one loadgen entry point that paces arrivals with
real ``asyncio.sleep`` is exercised here instead, on a trace short
enough (a handful of arrivals over 40 ms) not to matter to the suite.
"""

import asyncio

from repro.predicates import Equals, TruePredicate
from repro.serving import (
    AcornService,
    ArrivalSchedule,
    ServingConfig,
    generate_arrivals,
    replay_realtime,
    summarize_load,
)

BUDGET_MS = 500.0


def test_every_arrival_gets_exactly_one_response(acorn_index, small_vectors):
    arrivals = generate_arrivals(ArrivalSchedule(
        rate_qps=200.0, duration_s=0.04, n_tenants=2, query_pool=6, seed=4,
    ))
    assert 3 <= len(arrivals) <= 20
    queries = small_vectors[0][:6]
    predicates = [TruePredicate(), Equals("label", 1)] * 3

    async def go():
        # The budget outlasts the whole 40 ms trace: only the idle and
        # completion triggers (and max_batch) can move a query here.
        service = AcornService(acorn_index, ServingConfig(
            k=5, ef_search=32, max_batch=4, latency_budget_ms=BUDGET_MS,
            engine_workers=1,
        ))
        try:
            return await replay_realtime(service, arrivals, queries,
                                         predicates)
        finally:
            await service.aclose()

    responses = asyncio.run(go())

    assert len(responses) == len(arrivals)
    assert ([r.tenant_id for r in responses]
            == [a.tenant_id for a in arrivals])
    for response in responses:
        assert response.rejected or len(response.result) == 5
    summary = summarize_load(arrivals, responses)
    assert summary["offered"] == len(arrivals)
    assert (summary["ok"] + summary["degraded"] + summary["rejected"]
            == summary["offered"])
    assert summary["ok"] >= 1
    # The first arrival found the dispatch thread idle: it left alone, at
    # once, rather than waiting out the budget for company.
    assert responses[0].batch_size_served == 1
    assert responses[0].queue_wait_ms < BUDGET_MS / 2
    assert summary["latency_ms"]["p50"] < BUDGET_MS
