"""Quickstart: build an ACORN index and run hybrid queries.

Run with::

    python examples/quickstart.py

Builds an ACORN-γ index over a small synthetic product catalog (vector
embedding + price + category), then answers hybrid queries combining
similarity with structured filters — including predicates never seen at
construction time, which is exactly ACORN's point.
"""

import numpy as np

from repro import (
    AcornIndex,
    AcornParams,
    And,
    AttributeTable,
    Between,
    Equals,
    RoutePlanner,
)


def main() -> None:
    rng = np.random.default_rng(0)
    n, dim = 2000, 32

    # A toy catalog: embeddings cluster by product line; price and
    # category are structured attributes.
    lines = rng.integers(0, 8, size=n)
    centers = rng.standard_normal((8, dim)).astype(np.float32)
    vectors = centers[lines] + 0.6 * rng.standard_normal((n, dim)).astype(
        np.float32
    )
    table = AttributeTable(n)
    table.add_float_column("price", rng.uniform(5.0, 500.0, size=n).round(2))
    table.add_string_column(
        "category",
        [["tshirt", "hoodie", "jacket", "hat"][c] for c in rng.integers(0, 4, size=n)],
    )

    # Build once.  gamma = 8 serves predicates down to ~12.5% selectivity
    # before the router falls back to exact pre-filtering.
    params = AcornParams(m=16, gamma=8, m_beta=32, ef_construction=40)
    print(f"building ACORN-gamma over {n} products "
          f"(M={params.m}, gamma={params.gamma}, M_beta={params.m_beta})...")
    index = AcornIndex.build(vectors, table, params=params, seed=0)
    searcher = RoutePlanner(index, policy="static")

    # A reference product to search "more like this" from.
    query = vectors[17]
    print(f"\nreference product: id=17 "
          f"({table.row(17)['category']}, ${table.row(17)['price']})")

    scenarios = {
        "similar t-shirts": Equals("category", "tshirt"),
        "similar items under $50": Between("price", 0.0, 50.0),
        "similar cheap t-shirts": And(
            Equals("category", "tshirt"), Between("price", 0.0, 80.0)
        ),
    }
    for title, predicate in scenarios.items():
        result = searcher.search(query, predicate, k=5, ef_search=48)
        print(f"\n{title}  "
              f"[selectivity={result.est_selectivity:.3f},"
              f" routed to {result.route_chosen}]")
        for node, dist in zip(result.ids, result.distances):
            row = table.row(int(node))
            print(f"  #{node:>4}  dist={dist:8.2f}  "
                  f"{row['category']:>7}  ${row['price']:>7}")


if __name__ == "__main__":
    main()
