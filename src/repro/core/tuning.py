"""Workload-driven parameter suggestion (paper §5.2's γ rule).

The paper prescribes γ = 1/s_min, "where s_min is the minimum predicate
selectivity we plan to serve before resorting to pre-filtering", and
notes selectivities "can be estimated empirically with or without
knowing the predicate set".  This module turns that prescription into
an API: give it a sample of representative predicates (or raw
selectivity values) and it returns an :class:`AcornParams` tuned to the
workload.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.attributes.table import AttributeTable
from repro.core.params import AcornParams
from repro.predicates.base import Predicate
from repro.predicates.selectivity import SamplingSelectivityEstimator


def suggest_params(
    selectivities: Sequence[float],
    m: int = 32,
    target_percentile: float = 5.0,
    gamma_cap: int = 64,
    ef_construction: int = 40,
) -> AcornParams:
    """Choose ACORN parameters from observed workload selectivities.

    Args:
        selectivities: selectivity samples from the expected workload.
        m: degree bound M.
        target_percentile: s_min is set to this percentile of the
            sample, so roughly that fraction of queries fall back to
            pre-filtering (their cheapest regime anyway — Figure 9).
        gamma_cap: upper bound on γ, limiting construction cost; the
            search's exact scan below s_min keeps correctness when the
            cap binds.
        ef_construction: efc passed through.

    Returns:
        An :class:`AcornParams` with γ = min(ceil(1/s_min), gamma_cap)
        and Mβ = 2M (the paper's default band).
    """
    values = np.asarray(list(selectivities), dtype=np.float64)
    if values.size == 0:
        raise ValueError("need at least one selectivity sample")
    if ((values < 0) | (values > 1)).any():
        raise ValueError("selectivities must lie in [0, 1]")
    s_min = float(np.percentile(values, target_percentile))
    s_min = max(s_min, 1.0 / gamma_cap)
    params = AcornParams.from_s_min(
        s_min, m=m, m_beta=2 * m, ef_construction=ef_construction
    )
    if params.gamma > gamma_cap:
        params = AcornParams(
            m=m, gamma=gamma_cap, m_beta=2 * m,
            ef_construction=ef_construction,
        )
    return params


def suggest_params_from_predicates(
    table: AttributeTable,
    predicates: Iterable[Predicate],
    m: int = 32,
    target_percentile: float = 5.0,
    gamma_cap: int = 64,
    ef_construction: int = 40,
    sample_size: int = 1000,
    seed: int | np.random.Generator | None = 0,
) -> AcornParams:
    """Like :func:`suggest_params`, estimating selectivities by sampling.

    Evaluates each sample predicate on a fixed random subset of
    ``table`` (the way a system without precomputed masks would), then
    applies the γ rule.
    """
    estimator = SamplingSelectivityEstimator(
        table, sample_size=sample_size, seed=seed
    )
    values = [estimator.estimate(p) for p in predicates]
    return suggest_params(
        values, m=m, target_percentile=target_percentile,
        gamma_cap=gamma_cap, ef_construction=ef_construction,
    )
