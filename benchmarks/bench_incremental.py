"""Production concern: incremental insertion and deletion.

ACORN's construction is incremental by design (one insert at a time,
like HNSW), so a deployed index must keep its recall as data streams in
and as entities are tombstoned.  Not a paper figure — a durability
check a downstream adopter needs:

- recall on the original workload holds after growing the index 25%,
- new points are immediately findable,
- tombstoning 5% of the corpus removes those points from results
  without collapsing recall on the survivors,
- the same growth and deletes *folded* into a new index in one
  compaction (:func:`repro.core.maintenance.fold`, what
  ``LifecycleIndex.compact`` runs) hold the same lines.
"""

import os

import numpy as np
import pytest

from repro.core import AcornIndex, AcornParams
from repro.attributes.table import subset_table
from repro.core.maintenance import fold
from repro.datasets import make_laion_like
from repro.datasets.ground_truth import filtered_knn
from repro.eval.metrics import recall_at_k
from repro.eval.reporting import render_table
from repro.predicates import TruePredicate
from repro.utils.timer import Timer


def scaled(base: int) -> int:
    return max(200, int(base * float(os.environ.get("REPRO_SCALE", "1"))))


@pytest.fixture(scope="module")
def incremental_results():
    full = make_laion_like(n=scaled(2500), dim=48, n_queries=60,
                           workload="no-cor", seed=12)
    n_initial = int(full.num_vectors * 0.8)

    params = AcornParams(m=12, gamma=12, m_beta=24, ef_construction=40)
    index = AcornIndex(full.dim, full.table, params=params, seed=0)
    with Timer() as initial_build:
        for vector in full.vectors[:n_initial]:
            index.add(vector)

    def measure_recall():
        compiled = full.compiled_predicates()
        live = np.ones(full.num_vectors, dtype=bool)
        live[list(index._deleted)] = False
        live[len(index):] = False
        gt = filtered_knn(
            full.vectors,
            [q.vector for q in full.queries],
            [c.mask & live for c in compiled],
            k=10,
        )
        recalls = [
            recall_at_k(
                index.search(q.vector, c, 10, ef_search=64).ids, truth, 10
            )
            for q, c, truth in zip(full.queries, compiled, gt)
        ]
        return float(np.mean(recalls))

    recall_initial = measure_recall()

    # Fold arm, before ``index`` itself grows (a fold only reads it):
    # drop 5% of the initial rows and add the remaining 20% in one go.
    fold_gen = np.random.default_rng(1)
    keep = np.setdiff1d(
        np.arange(n_initial),
        fold_gen.choice(n_initial, size=n_initial // 20, replace=False),
    )
    fold_rows = np.concatenate(
        [keep, np.arange(n_initial, full.num_vectors)]
    )
    fold_vectors = full.vectors[fold_rows]
    fold_table = subset_table(full.table, fold_rows)
    with Timer() as fold_timer:
        folded = fold(index, keep, fold_vectors, fold_table)
    folded.graph.validate()
    fold_gt = filtered_knn(
        fold_vectors,
        [q.vector for q in full.queries],
        [q.predicate.compile(fold_table).mask for q in full.queries],
        k=10,
    )
    recall_folded = float(np.mean([
        recall_at_k(
            folded.search(q.vector, q.predicate, 10, ef_search=64).ids,
            truth, 10,
        )
        for q, truth in zip(full.queries, fold_gt)
    ]))
    fold_probes = fold_gen.choice(
        np.arange(keep.shape[0], len(folded)), size=20, replace=False
    )
    fold_found = sum(
        int(folded.search(fold_vectors[p], TruePredicate(), 1,
                          ef_search=32).ids[0] == p)
        for p in fold_probes
    )

    with Timer() as grow:
        for vector in full.vectors[n_initial:]:
            index.add(vector)
    recall_grown = measure_recall()

    # New points findable by identity lookups.
    gen = np.random.default_rng(0)
    probes = gen.choice(
        np.arange(n_initial, full.num_vectors), size=20, replace=False
    )
    found = sum(
        int(index.search(full.vectors[p], TruePredicate(), 1,
                         ef_search=32).ids[0] == p)
        for p in probes
    )

    victims = gen.choice(full.num_vectors, size=full.num_vectors // 20,
                         replace=False)
    for victim in victims:
        index.mark_deleted(int(victim))
    recall_after_delete = measure_recall()
    deleted_leaks = 0
    for q, c in zip(full.queries[:30], full.compiled_predicates()[:30]):
        result = index.search(q.vector, c, 10, ef_search=64)
        deleted_leaks += sum(int(index.is_deleted(int(i))) for i in result.ids)

    return {
        "n_initial": n_initial,
        "n_final": full.num_vectors,
        "initial_build_s": initial_build.elapsed,
        "grow_s": grow.elapsed,
        "recall_initial": recall_initial,
        "recall_grown": recall_grown,
        "new_points_found": found,
        "recall_after_delete": recall_after_delete,
        "deleted_leaks": deleted_leaks,
        "n_folded": len(folded),
        "n_fold_expected": fold_rows.shape[0],
        "fold_s": fold_timer.elapsed,
        "recall_folded": recall_folded,
        "fold_points_found": fold_found,
    }


def test_incremental_inserts_and_deletes(incremental_results, benchmark,
                                         report):
    res = incremental_results

    def render():
        rows = [
            ("initial build", f"{res['n_initial']} pts",
             res["initial_build_s"], res["recall_initial"]),
            ("after +25% inserts", f"{res['n_final']} pts", res["grow_s"],
             res["recall_grown"]),
            ("after 5% deletes", f"{res['n_final']} pts", "-",
             res["recall_after_delete"]),
            ("fold: -5%, +25% in one go", f"{res['n_folded']} pts",
             res["fold_s"], res["recall_folded"]),
        ]
        return render_table(
            ["phase", "size", "time (s)", "recall@10 (ef=64)"],
            rows,
            title="=== Incremental maintenance: streaming inserts + "
                  "tombstone deletes (LAION-like) ===",
        )

    report(benchmark.pedantic(render, rounds=1, iterations=1))

    assert res["recall_initial"] > 0.9
    assert res["recall_grown"] > 0.9, "recall must survive streaming growth"
    assert res["new_points_found"] >= 18, "new points must be findable"
    assert res["recall_after_delete"] > 0.85
    assert res["deleted_leaks"] == 0, "tombstoned points must never surface"
    assert res["n_folded"] == res["n_fold_expected"]
    assert res["recall_folded"] > 0.9, "recall must survive a fold"
    assert res["fold_points_found"] >= 18, "folded-in points must be findable"
