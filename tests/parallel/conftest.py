"""Fixtures for the process-parallelism suite.

Spawning workers is the dominant cost here (each spawn re-imports numpy
and the library), so one warm session-scoped :class:`ProcessPool` is
shared by every test that does not specifically exercise pool
*lifetime*; those build their own short-lived pools.  Index fixtures
reuse the session-scoped dataset from the top-level conftest.  Every
test runs under a leak check: no shared-memory arena and no worker
process it started may outlive it.
"""

from __future__ import annotations

import glob
import multiprocessing

import numpy as np
import pytest

from repro.attributes.table import AttributeTable
from repro.parallel import ProcessPool


@pytest.fixture(scope="session")
def shared_pool():
    """A warm 2-slot worker pool shared across the suite."""
    pool = ProcessPool(2)
    yield pool
    pool.close()


def _arenas() -> set[str]:
    return set(glob.glob("/dev/shm/repro-arena-*"))


def _children() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


@pytest.fixture(autouse=True)
def no_leaks(request):
    """Fail a test that leaves behind a ``repro-arena-*`` segment it
    created or a child process it started; the session
    ``shared_pool``'s workers are exempt (they live for the session)."""
    arenas, children = _arenas(), _children()
    yield
    exempt = set()
    if "shared_pool" in request.fixturenames:
        exempt = set(request.getfixturevalue("shared_pool")
                     .worker_pids().values())
    assert _arenas() - arenas == set(), "leaked shared-memory arenas"
    assert _children() - children - exempt == set(), "leaked workers"


@pytest.fixture(scope="session")
def result_key():
    """Byte-level identity key for a BatchResult (ids, distances, counters)."""

    def key(outcome):
        return [
            (r.ids.tobytes(), r.distances.tobytes(),
             r.distance_computations, s.hops, s.visited_nodes)
            for r, s in zip(outcome.results, outcome.stats)
        ]

    return key


def make_labeled_world(n=240, dim=12, n_labels=3, seed=7):
    """Small clustered vectors + a single int ``label`` column."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_labels, dim)).astype(np.float32)
    assign = rng.integers(0, n_labels, size=n)
    vectors = (centers[assign]
               + 0.25 * rng.standard_normal((n, dim))).astype(np.float32)
    table = AttributeTable(n)
    table.add_int_column("label", assign)
    return vectors, table
