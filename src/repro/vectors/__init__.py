"""Vector storage and distance computation.

This subpackage is the lowest substrate of the reproduction: a
numpy-backed float32 vector store and a :class:`DistanceComputer` that
performs batched metric computations while counting every distance it
evaluates.  The counter is load-bearing — Table 3 of the paper reports
*number of distance computations to reach 0.8 recall*, and §3.2 argues
distance computations dominate search cost, so all indexes in this
library route their distance math through one computer per query.
"""

from repro.vectors.distance import (
    METRICS,
    DistanceComputer,
    Metric,
    pairwise_distances,
    resolve_metric,
)
from repro.vectors.quantization import ProductQuantizer, ScalarQuantizer
from repro.vectors.store import VectorStore

__all__ = [
    "METRICS",
    "DistanceComputer",
    "Metric",
    "ProductQuantizer",
    "ScalarQuantizer",
    "VectorStore",
    "pairwise_distances",
    "resolve_metric",
]
