"""Property-based tests for the route planner.

At exhaustive ``ef_search`` the planner returns exactly the brute-force
top-k restricted to passing entities, and at any effort its results
keep the search contract.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attributes import AttributeTable
from repro.core import AcornIndex, AcornParams
from repro.predicates import Equals, OneOf
from repro.routing import ROUTE_ACORN_GAMMA, RoutePlanner

N, DIM, N_LABELS = 80, 6, 4

_gen = np.random.default_rng(5)
_vectors = _gen.standard_normal((N, DIM)).astype(np.float32)
_table = AttributeTable(N)
_table.add_int_column("label", _gen.integers(0, N_LABELS, size=N))
_index = AcornIndex.build(
    _vectors, _table,
    params=AcornParams(m=4, gamma=3, m_beta=8, ef_construction=16),
    seed=5,
)
# max(EF_WALK, k ≤ 8) · Mβ = 72 < N: at a larger ef every query would
# scan the whole index, so no walk would run.
EF_WALK = 9

predicates = st.one_of(
    st.integers(0, N_LABELS - 1).map(lambda v: Equals("label", v)),
    st.sets(st.integers(0, N_LABELS - 1), min_size=1, max_size=3).map(
        lambda vs: OneOf("label", tuple(sorted(vs)))
    ),
)


def _query(seed):
    return np.random.default_rng(seed).standard_normal(DIM).astype(np.float32)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 8), pred=predicates)
def test_exhaustive_ef_matches_brute_force(seed, k, pred):
    planner = RoutePlanner(_index, policy="adaptive")
    query = _query(seed)
    result = planner.search(query, pred, k, ef_search=N)

    mask = pred.compile(_table).mask
    passing = np.nonzero(mask)[0]
    # Independent oracle: full scan over the passing set.
    diffs = _vectors[passing] - query
    dists = np.einsum("ij,ij->i", diffs, diffs)
    order = np.argsort(dists, kind="stable")[:k]

    assert len(result) == min(k, passing.size)
    assert np.allclose(np.sort(result.distances), np.sort(dists[order]))
    assert mask[result.ids].all()
    assert len(set(result.ids.tolist())) == len(result)
    assert (np.diff(result.distances) >= -1e-5).all()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 6),
       ef=st.integers(4, EF_WALK), pred=predicates)
def test_search_contract_holds_on_every_route(seed, k, ef, pred):
    """Whatever the planner decides: unique, predicate-passing,
    distance-sorted results, at most k of them."""
    planner = RoutePlanner(_index, policy="adaptive")
    result = planner.search(_query(seed), pred, k, ef_search=ef)
    compiled = pred.compile(_table)
    assert result.route_chosen == ROUTE_ACORN_GAMMA
    assert len(result) <= k
    assert len(set(result.ids.tolist())) == len(result)
    if len(result):
        assert compiled.passes_many(result.ids).all()
        assert (np.diff(result.distances) >= -1e-5).all()
