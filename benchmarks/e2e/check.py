"""Output checks run by every workload.

Each check returns a list of violation strings, one per bad operation
or broken invariant.  Every entry counts as a failed operation: the run
reports ``correct: false`` and exits nonzero.
"""

from __future__ import annotations

import numpy as np


def recall(ids, truth_ids) -> float:
    """recall@k of one result against its exact answer (1.0 when the
    exact answer is empty: nothing to find)."""
    truth = set(np.asarray(truth_ids).tolist())
    if not truth:
        return 1.0
    return len(truth.intersection(np.asarray(ids).tolist())) / len(truth)


def mean_recall(ids_per_query, truth_per_query) -> float:
    return float(np.mean([
        recall(ids, truth) for ids, truth in zip(ids_per_query, truth_per_query)
    ]))


def ids_pass_masks(ids_per_query, masks) -> list[str]:
    """Every returned id must pass its query's truth mask."""
    return [
        f"query {i}: returned ids {np.asarray(ids)[~mask[ids]].tolist()} "
        "fail the predicate"
        for i, (ids, mask) in enumerate(zip(ids_per_query, masks))
        if len(ids) and not mask[ids].all()
    ]


def read_violations(ids, live: set, row_of: dict, mask) -> list[str]:
    """A churn read may only return ids that are live in the snapshot it
    read (the harness's own ledger, exact on one thread) and whose row
    passes the predicate."""
    bad = [
        int(e) for e in np.asarray(ids).tolist()
        if e not in live or not mask[row_of[e]]
    ]
    return [f"read returned dead or non-matching ids {bad}"] if bad else []


def passes_identical(pass_counts: list[dict]) -> list[str]:
    """Distance-computation, hop and route counts must repeat exactly
    across the identical passes of one run."""
    first = pass_counts[0]
    return [
        f"pass {i} counts {counts} differ from pass 0 {first}"
        for i, counts in enumerate(pass_counts[1:], start=1)
        if counts != first
    ]


def recall_floor(value: float, floor: float) -> list[str]:
    return [] if value >= floor else [f"recall@10 {value:.4f} below floor {floor}"]


def serving_accounting(summary: dict, offered: int) -> list[str]:
    out = []
    settled = summary["ok"] + summary["degraded"] + summary["rejected"]
    if settled != offered or summary["offered"] != offered:
        out.append(
            f"ok+degraded+rejected = {settled}, service saw "
            f"{summary['offered']}, driver offered {offered}")
    if summary["pending"] or summary["inflight"]:
        out.append(f"service not drained: {summary['pending']} pending, "
                   f"{summary['inflight']} in flight")
    return out


def one_compaction_per_cycle(compactions_per_cycle: list[int]) -> list[str]:
    return [
        f"cycle {i}: {count} compactions, expected exactly 1"
        for i, count in enumerate(compactions_per_cycle) if count != 1
    ]
