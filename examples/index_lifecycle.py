"""Operating an ACORN index over its lifecycle.

Run with::

    python examples/index_lifecycle.py

What a production deployment does beyond one-shot search: suggest
parameters from a workload sample, build, persist to disk, reload in a
"fresh process", keep inserting, tombstone deletions, and inspect the
index — exercising `suggest_params`, `save_index`/`load_index`,
`mark_deleted`, `stats()`, and whether a query scans or walks.
"""

import tempfile
from pathlib import Path

from repro import AcornIndex, load_index, save_index
from repro.core.tuning import suggest_params_from_predicates
from repro.datasets import make_tripclick_like
from repro.predicates import Between, ContainsAny


def main() -> None:
    dataset = make_tripclick_like(n=2000, dim=48, n_queries=10,
                                  workload="areas", seed=2)
    table = dataset.table

    # 1. Choose parameters from a workload sample (paper §5.2's γ rule).
    sample_predicates = [q.predicate for q in dataset.queries]
    params = suggest_params_from_predicates(
        table, sample_predicates, m=16, target_percentile=10.0, seed=0
    )
    print(f"suggested parameters: M={params.m}, gamma={params.gamma} "
          f"(s_min={params.s_min:.3f}), M_beta={params.m_beta}")

    # 2. Build and inspect.
    index = AcornIndex.build(dataset.vectors, table, params=params, seed=0)
    stats = index.stats()
    print(f"built: {stats['num_vectors']} vectors, {stats['levels']} levels, "
          f"{stats['nbytes'] / 1e6:.2f} MB, "
          f"level-0 degree {stats['avg_out_degree'][0]:.1f}")

    # 3. Persist and reload (a fresh process would do exactly this).
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.index"
        save_index(index, path)
        print(f"saved to {path.name} ({path.stat().st_size / 1e6:.2f} MB)")
        index = load_index(path)
        print("reloaded; graph intact:", index.graph.max_level + 1, "levels")

    query = dataset.queries[0].vector

    # 4. EXPLAIN before running: the index ranks a passing set below
    # s_min of the live rows (or one a walk would visit anyway) exactly.
    for predicate in (
        ContainsAny("areas", ["cardiology"]),
        ContainsAny("areas", ["dermatology"]) & Between("year", 1950, 1960),
    ):
        compiled = predicate.compile(table)
        plan = "scan" if index.scans(compiled.cardinality, 5, 64) else "walk"
        print(f"\nEXPLAIN {predicate!r}\n  -> {plan} "
              f"{compiled.cardinality} passing rows "
              f"(s={compiled.selectivity:.4f}, s_min={index.params.s_min:.3f})")
        result = index.search(query, compiled, k=5)
        print(f"  ran: {len(result)} results, "
              f"{result.distance_computations} actual distance comps")

    # 5. Tombstone the top result and show it disappears.
    predicate = ContainsAny("areas", ["cardiology"])
    before = index.search(query, predicate, k=3)
    victim = int(before.ids[0])
    index.mark_deleted(victim)
    after = index.search(query, predicate, k=3)
    print(f"\ndeleted passage #{victim}: "
          f"{'gone' if victim not in after.ids else 'STILL PRESENT'} "
          f"from results ({index.num_deleted} tombstones)")


if __name__ == "__main__":
    main()
