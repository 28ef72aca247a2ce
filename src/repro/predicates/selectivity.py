"""Selectivity estimation from a sample of entities.

The paper's γ rule (§5.2) sets γ = 1/s_min from the selectivities a
workload is expected to serve, and notes they "can be estimated
empirically with or without knowing the predicate set".
:class:`SamplingSelectivityEstimator` evaluates a predicate on a fixed
random sample of entities, the classical database approach when the
predicate set is unbounded and masks cannot be precomputed;
:func:`repro.core.tuning.suggest_params_from_predicates` consults it.
The search path itself never estimates: a compiled predicate carries
its exact selectivity.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.attributes.table import AttributeTable
from repro.predicates.base import Predicate
from repro.utils.rng import default_rng


class SelectivityEstimator(abc.ABC):
    """Estimates the fraction of entities passing a predicate."""

    @abc.abstractmethod
    def estimate(self, predicate: Predicate) -> float:
        """Estimated selectivity in [0, 1]."""


class SamplingSelectivityEstimator(SelectivityEstimator):
    """Selectivity estimated on a uniform sample of entity ids.

    The sample is drawn once at construction so repeated estimates are
    consistent, and the estimate's standard error is
    ``sqrt(s(1-s)/sample_size)``.
    """

    def __init__(
        self,
        table: AttributeTable,
        sample_size: int = 1000,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if sample_size <= 0:
            raise ValueError(f"sample_size must be positive, got {sample_size}")
        self._table = table
        n = len(table)
        rng = default_rng(seed)
        take = min(sample_size, n)
        self._sample = (
            rng.choice(n, size=take, replace=False) if take else np.empty(0, np.intp)
        )

    @property
    def sample_size(self) -> int:
        """Number of sampled entity ids."""
        return int(self._sample.shape[0])

    def estimate(self, predicate: Predicate) -> float:
        if self._sample.shape[0] == 0:
            return 0.0
        mask = predicate.mask(self._table)
        return float(mask[self._sample].mean())
