"""Predicate engine for hybrid-search queries.

ACORN's headline property is that it is *predicate-agnostic*: the index
never needs to know the predicate set ahead of time, only how to ask
"does entity ``i`` pass predicate ``p``" at search time.  This package
provides the predicate algebra the paper's workloads use —

- ``Equals`` / ``OneOf``: the equality predicates of the SIFT1M and
  Paper benchmarks (predicate cardinality 12),
- ``Between``: TripClick publication-date ranges,
- ``ContainsAny``: TripClick clinical areas and LAION keyword lists,
- ``RegexMatch``: LAION caption regex workloads,
- ``And`` / ``Or`` / ``Not``: arbitrary boolean composition —

plus vectorized evaluation into boolean masks and the sampling
selectivity estimator the γ rule of paper §5.2 is tuned from.
"""

from repro.predicates.base import CompiledPredicate, Predicate, TruePredicate
from repro.predicates.boolean import And, Not, Or
from repro.predicates.compare import Between, Equals, OneOf
from repro.predicates.contains import ContainsAll, ContainsAny
from repro.predicates.regex import RegexMatch
from repro.predicates.selectivity import (
    SamplingSelectivityEstimator,
    SelectivityEstimator,
)

__all__ = [
    "And",
    "Between",
    "CompiledPredicate",
    "ContainsAll",
    "ContainsAny",
    "Equals",
    "Not",
    "OneOf",
    "Or",
    "Predicate",
    "RegexMatch",
    "SamplingSelectivityEstimator",
    "SelectivityEstimator",
    "TruePredicate",
]
