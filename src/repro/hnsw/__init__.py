"""Hierarchical Navigable Small World (HNSW) graph index.

This is the substrate ACORN modifies (paper §2.1): a from-scratch
implementation of Malkov & Yashunin's index with exponentially-decaying
level assignment, greedy layered descent, ef-bounded best-first search,
and RNG-heuristic neighbor selection.  The ACORN indices in
:mod:`repro.core` reuse this package's layered graph storage and
traversal loop and extend its index class (:class:`~repro.hnsw.hnsw.HnswBase`: insert
loop, frozen snapshot, descent and walk), exactly as the paper
implements ACORN by extending an HNSW library.
"""

from repro.hnsw.graph import LayeredGraph
from repro.hnsw.hnsw import HnswIndex
from repro.hnsw.heuristics import select_neighbors_heuristic
from repro.hnsw.levels import LevelGenerator
from repro.hnsw.scratch import TraversalScratch, thread_scratch
from repro.hnsw.traversal import (
    greedy_descent,
    search_frozen_level,
    search_layer,
    search_live_level,
)

__all__ = [
    "HnswIndex",
    "LayeredGraph",
    "LevelGenerator",
    "TraversalScratch",
    "greedy_descent",
    "search_frozen_level",
    "search_layer",
    "search_live_level",
    "select_neighbors_heuristic",
    "thread_scratch",
]
