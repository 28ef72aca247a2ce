"""Beam-batched bottom-level traversal over quantized codes.

The float32 hot path (:func:`repro.hnsw.traversal.search_layer`) pays
Python heap maintenance per candidate; its distance math is already
vectorized, so swapping in cheaper quantized distances alone barely
moves QPS.  This kernel restructures the bottom-level search into
rounds: each round expands the ``beam`` best unexpanded results
*together* — one CSR multi-row gather, one mask gather, one batched
quantized distance evaluation, one stable merge — so the Python
interpreter runs once per round instead of once per hop.

The search is still best-first: a node is only expanded while it sits
in the current top-``ef`` (the classic stopping rule "terminate when
every kept result is expanded"), and all ranking inside the kernel uses
quantized distances.  Exact float32 ranks are restored afterwards by
:func:`exact_rerank`, which re-scores the top ``rerank_factor * k``
candidates with the index's real :class:`DistanceComputer` — so
reported distances (and the distance-computation counter's meaning) are
identical in kind to the float path.

Determinism: ties break on node id everywhere (``np.lexsort`` on
``(id, dist)``), batch dedup is order-free (``np.unique``), and the
kernel reads only a frozen CSR snapshot — two runs over the same index
return identical results.
"""

from __future__ import annotations

import numpy as np

from repro.hnsw.traversal import TraversalStats

_EMPTY_IDS = np.empty(0, dtype=np.intp)
_EMPTY_DISTS = np.empty(0, dtype=np.float32)

#: Results expanded together per round.  Larger beams amortize Python
#: overhead further but overshoot the best-first frontier more; 8 is
#: the empirical knee at bench scale (n=10k, dim=32).
DEFAULT_BEAM = 8


def quantized_search_layer(
    qcomp,
    seed_ids: np.ndarray,
    seed_dists: np.ndarray,
    ef: int,
    indptr: np.ndarray | None = None,
    indices: np.ndarray | None = None,
    mask: np.ndarray | None = None,
    neighbor_fn=None,
    num_ids: int = 0,
    beam: int = DEFAULT_BEAM,
    stats: TraversalStats | None = None,
    monitor=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Beam ef-search on one level, ranking by quantized distances.

    Args:
        qcomp: a :class:`~repro.vectors.quantized_store.QuantizedComputer`
            with ``set_query`` already called.
        seed_ids / seed_dists: entry points and their quantized
            distances (duplicates tolerated).
        ef: dynamic result-list size.
        indptr / indices: the level's candidate CSR — the raw adjacency
            for HNSW, or a materialized expansion CSR for ACORN's
            compressed lookups.  When None, ``neighbor_fn`` supplies
            per-node candidates instead (the dynamic-expansion
            fallback; still quantized, but gathered per node).
        mask: optional predicate mask applied to gathered candidates
            (the CSR fast path's analogue of the filtered lookups).
        num_ids: global id-space size (for the visited array).
        beam: results expanded together per round.
        stats: optional traversal counters (hops/visited), incremented
            in place.
        monitor: optional walk-budget hook — ``observe(n_passing)`` is
            called once per expanded node, and the walk stops early
            (returning the results found so far) when it returns False.

    Returns:
        ``(ids, dists)`` — up to ``ef`` candidates in ascending
        (quantized distance, id) order.
    """
    if ef <= 0:
        raise ValueError(f"ef must be positive, got {ef}")
    if indptr is None and neighbor_fn is None:
        raise ValueError("need either a candidate CSR or a neighbor_fn")
    if num_ids <= 0:
        num_ids = int(indptr.size - 1) if indptr is not None else 1
    seed_ids = np.asarray(seed_ids, dtype=np.intp)
    seed_dists = np.asarray(seed_dists, dtype=np.float32)
    visited = np.zeros(num_ids, dtype=bool)
    visited[seed_ids] = True

    order = np.lexsort((seed_ids, seed_dists))[:ef]
    res_ids = seed_ids[order]
    res_dists = seed_dists[order]
    res_expanded = np.zeros(res_ids.size, dtype=bool)

    while True:
        frontier_pos = np.flatnonzero(~res_expanded)[:beam]
        if frontier_pos.size == 0:
            break
        res_expanded[frontier_pos] = True
        frontier = res_ids[frontier_pos]
        if stats is not None:
            stats.hops += int(frontier.size)

        if indptr is not None:
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            total = int(counts.sum())
            if total:
                offsets = np.cumsum(counts) - counts
                flat = np.repeat(starts - offsets, counts)
                flat += np.arange(total)
                gathered = indices[flat]
            else:
                gathered = _EMPTY_IDS
            if monitor is not None:
                segments = np.repeat(
                    np.arange(frontier.size), counts
                )
            if mask is not None and gathered.size:
                keep = mask[gathered]
                gathered = gathered[keep]
                if monitor is not None:
                    segments = segments[keep]
            if monitor is not None:
                per_node = np.bincount(segments, minlength=frontier.size)
                if not all(monitor.observe(int(c)) for c in per_node):
                    break
        else:
            chunks = []
            stop = False
            for node in frontier.tolist():
                cand = neighbor_fn(node)
                if monitor is not None and not monitor.observe(len(cand)):
                    stop = True
                    break
                if len(cand):
                    chunks.append(np.asarray(cand))
            gathered = (np.concatenate(chunks) if chunks else _EMPTY_IDS)
            if stop:
                break

        if gathered.size:
            fresh = gathered[~visited[gathered]]
            fresh = np.unique(fresh)
        else:
            fresh = _EMPTY_IDS
        if fresh.size == 0:
            continue
        visited[fresh] = True
        if stats is not None:
            stats.visited += int(fresh.size)
        fresh_dists = qcomp.distances(fresh)

        cat_ids = np.concatenate([res_ids, fresh])
        cat_dists = np.concatenate([res_dists, fresh_dists])
        cat_expanded = np.concatenate(
            [res_expanded, np.zeros(fresh.size, dtype=bool)]
        )
        keep = np.lexsort((cat_ids, cat_dists))[:ef]
        res_ids = cat_ids[keep]
        res_dists = cat_dists[keep].astype(np.float32, copy=False)
        res_expanded = cat_expanded[keep]

    return res_ids, res_dists


def quantized_search_batch(
    qstore,
    queries: np.ndarray,
    seed_ids: np.ndarray,
    ef: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    eligible: np.ndarray,
    beam: int = DEFAULT_BEAM,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep beam ef-search for a whole query batch at once.

    The per-query kernel amortizes Python overhead over ``beam`` hops;
    this one amortizes it over the *entire batch* — each round expands
    every active query's beam together: one CSR gather, one eligibility
    gather, one batched quantized distance evaluation
    (:meth:`~repro.vectors.quantized_store.QuantizedStore.batched_distances`),
    and one segmented merge.  A query whose top-``ef`` is fully
    expanded simply stops contributing work; the loop ends when every
    query has converged.

    Args:
        qstore: the index's :class:`QuantizedStore`.
        queries: float32 ``(nq, dim)`` query matrix.
        seed_ids: one entry node per query (``(nq,)`` ints).
        ef: dynamic result-list size (shared by the batch).
        indptr / indices: the bottom level's candidate CSR.
        eligible: ``(nq, num_ids)`` bool — True where a node passes the
            query's predicate and has not been visited.  Mutated in
            place (pass a copy).
        beam: per-query results expanded per round.

    Returns:
        ``(res_ids, res_dists, hops, visited, quant_evals)`` —
        ``(nq, ef)`` result matrices in ascending (quantized distance,
        id) order per row, padded with id ``-1`` / dist ``inf``, plus
        per-query hop / visited / quantized-evaluation counters.
    """
    if ef <= 0:
        raise ValueError(f"ef must be positive, got {ef}")
    nq = int(queries.shape[0])
    num_ids = int(eligible.shape[1])
    seed_ids = np.asarray(seed_ids, dtype=np.int64)
    rows = np.arange(nq)
    ef_col = np.arange(ef)

    res_ids = np.full((nq, ef), -1, dtype=np.int64)
    res_dists = np.full((nq, ef), np.inf, dtype=np.float32)
    # Padding slots count as expanded so they are never selected as
    # frontier; the loop ends when every row is all-True.
    res_expanded = np.ones((nq, ef), dtype=bool)
    res_ids[:, 0] = seed_ids
    res_dists[:, 0] = qstore.batched_distances(queries, rows, seed_ids)
    res_expanded[:, 0] = False
    eligible[rows, seed_ids] = False

    hops = np.zeros(nq, dtype=np.int64)
    visited = np.ones(nq, dtype=np.int64)
    quant_evals = np.ones(nq, dtype=np.int64)

    while True:
        unexp = ~res_expanded
        if not unexp.any():
            break
        # Rows are distance-sorted, so a stable argsort on the expanded
        # flag lists each row's best unexpanded slots first.
        order = np.argsort(res_expanded, axis=1, kind="stable")[:, :beam]
        valid = np.take_along_axis(unexp, order, axis=1)
        fq, fcol = np.nonzero(valid)
        fpos = order[fq, fcol]
        res_expanded[fq, fpos] = True
        frontier = res_ids[fq, fpos]
        hops += np.bincount(fq, minlength=nq)

        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            continue
        offsets = np.cumsum(counts) - counts
        flat = np.repeat(starts - offsets, counts) + np.arange(total)
        gathered = indices[flat]
        gq = np.repeat(fq, counts)
        keep = eligible[gq, gathered]
        cq = gq[keep]
        cid = gathered[keep]
        if cid.size == 0:
            continue
        # Batch dedup on the (query, node) pair key; np.unique sorts,
        # which also groups candidates by query for the merge below.
        key = np.unique(cq * num_ids + cid)
        cq = key // num_ids
        cid = key % num_ids
        eligible[cq, cid] = False
        fresh = np.bincount(cq, minlength=nq)
        visited += fresh
        quant_evals += fresh
        dists = qstore.batched_distances(queries, cq, cid).astype(
            np.float32, copy=False
        )

        # Segmented merge, restricted to rows that received candidates.
        rows_hit = np.flatnonzero(fresh)
        cat_q = np.concatenate([np.repeat(rows_hit, ef), cq])
        cat_ids = np.concatenate([res_ids[rows_hit].ravel(), cid])
        cat_dists = np.concatenate([res_dists[rows_hit].ravel(), dists])
        cat_exp = np.concatenate(
            [res_expanded[rows_hit].ravel(),
             np.zeros(cid.size, dtype=bool)]
        )
        order2 = np.lexsort((cat_ids, cat_dists, cat_q))
        seg_counts = ef + fresh[rows_hit]
        seg_starts = np.cumsum(seg_counts) - seg_counts
        take = order2[(seg_starts[:, None] + ef_col[None, :]).ravel()]
        res_ids[rows_hit] = cat_ids[take].reshape(-1, ef)
        res_dists[rows_hit] = cat_dists[take].reshape(-1, ef)
        res_expanded[rows_hit] = cat_exp[take].reshape(-1, ef)

    return res_ids, res_dists, hops, visited, quant_evals


def exact_rerank(
    computer,
    query: np.ndarray,
    cand_ids: np.ndarray,
    k: int,
    budget: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Re-score the top quantized candidates with exact float32 distances.

    Args:
        computer: the index's exact :class:`DistanceComputer` (the
            evaluations land in ``distance_computations``, keeping the
            paper's cost measure exact-only).
        query: the float32 query.
        cand_ids: candidates in ascending quantized-distance order.
        k: results wanted.
        budget: how many leading candidates to re-score (from
            :func:`~repro.vectors.quantized_store.rerank_budget`).

    Returns:
        ``(ids, dists, n_reranked)`` — the exact top-k (ties on id) of
        the re-scored head, plus how many candidates were re-scored.
    """
    cand_ids = np.asarray(cand_ids, dtype=np.intp)
    head = cand_ids[: min(cand_ids.size, budget)]
    if head.size == 0:
        return _EMPTY_IDS, _EMPTY_DISTS, 0
    dists = np.asarray(computer.distances_to(query, head), dtype=np.float32)
    order = np.lexsort((head, dists))[:k]
    return head[order], dists[order], int(head.size)
