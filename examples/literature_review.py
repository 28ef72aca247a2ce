"""Literature review over a TripClick-like corpus.

Run with::

    python examples/literature_review.py

The paper's motivating example (§1): a researcher searches passages with
natural-language queries plus filters on clinical areas and publication
dates.  This example builds one ACORN-γ index over a synthetic medical
corpus and serves three realistic review queries — by area list, by date
range, and by a conjunction of both — comparing ACORN against exact
pre-filtering for quality and cost.
"""


from repro import AcornIndex, AcornParams, And, Between, ContainsAny
from repro.baselines import PreFilterSearcher
from repro.datasets import make_tripclick_like


def main() -> None:
    print("generating TripClick-like corpus (passages + clinical areas + "
          "publication years)...")
    dataset = make_tripclick_like(n=3000, dim=64, n_queries=10,
                                  workload="areas", seed=2)
    table = dataset.table

    params = AcornParams(m=16, gamma=8, m_beta=32, ef_construction=40)
    print(f"building ACORN-gamma (M={params.m}, gamma={params.gamma})...")
    index = AcornIndex.build(dataset.vectors, table, params=params, seed=0)
    exact = PreFilterSearcher(dataset.vectors, table)

    # A "query passage" the researcher wants related work for.
    query = dataset.queries[0].vector

    reviews = {
        "cardiology or oncology literature": ContainsAny(
            "areas", ["cardiology", "oncology"]
        ),
        "work published 2010-2020": Between("year", 2010, 2020),
        "recent surgical literature": And(
            ContainsAny("areas", ["surgery"]), Between("year", 2005, 2020)
        ),
    }

    for title, predicate in reviews.items():
        result = index.search(query, predicate, k=8, ef_search=64)
        truth = exact.search(query, predicate, k=8)
        overlap = len(set(result.ids.tolist()) & set(truth.ids.tolist()))
        print(f"\n--- {title} ---")
        print(f"selectivity {predicate.compile(table).selectivity:.3f}"
              f" | ACORN {result.distance_computations} distance comps vs"
              f" exact scan {truth.distance_computations}"
              f" | agreement {overlap}/8")
        for node in result.ids[:4]:
            row = table.row(int(node))
            areas = ", ".join(row["areas"])
            print(f"  passage #{node:>4}  [{row['year']}]  areas: {areas}")


if __name__ == "__main__":
    main()
