"""Unit tests for selectivity estimation."""

import numpy as np
import pytest

from repro.attributes.table import AttributeTable
from repro.predicates import Equals
from repro.predicates.selectivity import SamplingSelectivityEstimator


@pytest.fixture
def table():
    gen = np.random.default_rng(0)
    t = AttributeTable(2000)
    t.add_int_column("label", gen.integers(0, 10, size=2000))
    return t


class TestSampling:
    def test_close_to_truth(self, table):
        estimator = SamplingSelectivityEstimator(table, sample_size=500, seed=1)
        predicate = Equals("label", 3)
        truth = predicate.mask(table).mean()
        # 500 samples of s~0.1: standard error ~0.013; 4 sigma bound.
        assert abs(estimator.estimate(predicate) - truth) < 0.055

    def test_deterministic_given_seed(self, table):
        a = SamplingSelectivityEstimator(table, sample_size=100, seed=5)
        b = SamplingSelectivityEstimator(table, sample_size=100, seed=5)
        predicate = Equals("label", 2)
        assert a.estimate(predicate) == b.estimate(predicate)

    def test_sample_capped_at_table_size(self, table):
        estimator = SamplingSelectivityEstimator(table, sample_size=10_000, seed=0)
        assert estimator.sample_size == 2000

    def test_full_sample_is_exact(self, table):
        estimator = SamplingSelectivityEstimator(table, sample_size=2000, seed=0)
        predicate = Equals("label", 7)
        assert estimator.estimate(predicate) == pytest.approx(
            predicate.mask(table).mean()
        )

    def test_rejects_bad_sample_size(self, table):
        with pytest.raises(ValueError):
            SamplingSelectivityEstimator(table, sample_size=0)
