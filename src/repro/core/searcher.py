"""The one search front door: what every ``search`` shares.

ACORN's contract is predicate-agnostic: one call, ``search(query,
predicate, k, ef_search)``, whatever the predicate (paper §3).  Every
index, composite and baseline in the library inherits
:class:`Searcher`, which owns the parts of that call they all share —
argument validation (:func:`check_search_args`), the one rule that
turns a raw or pre-compiled predicate into the mask a search filters
with (:meth:`Searcher._compile`), and batched search through the
engine — and declares the members the batch engine and the serving
layer call on any searcher: ``table``, ``freeze()`` and the read
snapshot pair.
"""

from __future__ import annotations

import operator

from repro.predicates.base import CompiledPredicate, Predicate


def check_search_args(k: int, ef_search: int) -> tuple[int, int]:
    """Refuse a non-integral or non-positive ``k`` or ``ef_search``;
    returns both as ``int``.

    Any integer type passes (``operator.index``: numpy integers too); a
    float is refused, never truncated.  Every entry widens its walk to
    ``max(ef_search, k)``, which would otherwise answer a nonsensical
    effort as if it were ``k``.
    """
    try:
        k = operator.index(k)
    except TypeError:
        raise TypeError(f"k must be an integer, got {k!r}") from None
    try:
        ef_search = operator.index(ef_search)
    except TypeError:
        raise TypeError(
            f"ef_search must be an integer, got {ef_search!r}"
        ) from None
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if ef_search <= 0:
        raise ValueError(f"ef_search must be positive, got {ef_search}")
    return k, ef_search


class Searcher:
    """Base of every class answering ``search(query, predicate, k,
    ef_search)``.

    Subclasses define ``search`` in their own class body, opening it
    with :func:`check_search_args` and :meth:`_compile`.
    """

    __slots__ = ()

    #: The attribute table raw predicates compile against; None for a
    #: searcher that accepts only compiled masks.
    table = None

    def freeze(self) -> None:
        """Materialize read-only search state before a batch runs."""

    def acquire_read_snapshot(self):
        """What a batch's queries run on, pinned until released."""
        return self

    def release_read_snapshot(self, snapshot) -> None:
        """Release what :meth:`acquire_read_snapshot` returned."""

    def search_batch(
        self,
        queries,
        predicates,
        k: int,
        ef_search: int = 64,
        with_stats: bool = False,
    ):
        """Answer many hybrid queries through the batch engine.

        Args:
            queries: (q, dim) query matrix (or a single vector).
            predicates: one predicate per query, or a single predicate
                shared by all queries (its mask is materialized once).
            k: neighbors per query.
            ef_search: search-effort knob forwarded to each search.
            with_stats: when True, return the engine's
                :class:`~repro.engine.engine.BatchResult` (per-query
                :class:`~repro.engine.instrumentation.QueryStats`,
                latency percentiles) instead of the bare result list.

        The batch runs inline on the calling thread; process fan-out
        belongs to a long-lived :class:`~repro.engine.engine.SearchEngine`
        (``executor="process"``), which keeps its shared-memory arena
        and warm workers across batches.

        Returns:
            ``list[SearchResult]`` in query order, or a ``BatchResult``
            when ``with_stats`` is set.
        """
        from repro.engine.engine import QueryBatch, SearchEngine

        batch = QueryBatch.build(queries, predicates, k=k, ef_search=ef_search)
        with SearchEngine(self) as engine:
            result = engine.search_batch(batch)
        return result if with_stats else result.results

    def _compile(
        self, predicate: "Predicate | CompiledPredicate"
    ) -> CompiledPredicate:
        """The mask ``predicate`` selects over ``self.table``.

        A raw predicate compiles against the table.  A mask compiled
        against this very table passes through; one compiled against
        any other table — even of equal length — is recompiled from
        its source predicate.  An ad-hoc mask (``table is None``: a
        shard's slice, a tombstone composition, a worker's copy) passes
        through when it covers exactly the table's rows.
        """
        table = self.table
        if not isinstance(predicate, CompiledPredicate):
            return predicate.compile(table)
        if predicate.table is table:
            return predicate
        if predicate.table is not None:
            return predicate.predicate.compile(table)
        if len(predicate) != len(table):
            raise ValueError(
                f"compiled predicate covers {len(predicate)} entities, "
                f"table has {len(table)}"
            )
        return predicate
