"""Unit tests for the route cost model's shape and guards."""

import pytest

from repro.routing import CostModel
from repro.routing.cost import (
    ALL_ROUTES,
    ROUTE_ACORN_GAMMA,
    ROUTE_ACORN_ONE,
    ROUTE_POST_FILTER,
    ROUTE_PRE_FILTER,
)


@pytest.fixture
def model():
    return CostModel(n=10_000, m=16, gamma=12)


class TestValidation:
    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            CostModel(n=-1, m=16, gamma=12)

    def test_rejects_nonpositive_m_gamma(self):
        with pytest.raises(ValueError):
            CostModel(n=10, m=0, gamma=12)
        with pytest.raises(ValueError):
            CostModel(n=10, m=16, gamma=0)

    def test_rejects_nonpositive_scan_unit_cost(self):
        with pytest.raises(ValueError):
            CostModel(n=10, m=16, gamma=12, scan_unit_cost=0.0)

    def test_unknown_route_raises(self, model):
        with pytest.raises(ValueError):
            model.units("teleport", 0.5, 10, 64)
        # Pre-filtering is ACORN-γ's scan, priced by scan_units.
        with pytest.raises(ValueError):
            model.units(ROUTE_PRE_FILTER, 0.5, 10, 64)


class TestShape:
    def test_prefilter_linear_in_selectivity(self, model):
        cheap = model.scan_units(0.01 * 10_000, 10)
        dear = model.scan_units(0.5 * 10_000, 10)
        assert dear > cheap
        # s·n + k, discounted by the scan unit cost.
        assert dear == pytest.approx(
            (0.5 * 10_000 + 10) * model.scan_unit_cost
        )

    def test_prefilter_wins_at_low_selectivity(self, model):
        s = 0.001  # far below s_min = 1/12
        units = model.all_units(ALL_ROUTES, s, 10, 64)
        assert model.scan_units(s * 10_000, 10) < min(units.values())

    def test_graph_wins_at_high_selectivity(self, model):
        s = 0.9
        pre = model.scan_units(s * 10_000, 10)
        gamma = model.units(ROUTE_ACORN_GAMMA, s, 10, 64)
        assert gamma < pre

    def test_blowup_below_navigability_threshold(self, model):
        # Below 1/gamma the predicate subgraph degrades; the model must
        # charge the gamma route more per unit of lost selectivity.
        at_threshold = model.units(ROUTE_ACORN_GAMMA, 1 / 12, 10, 64)
        far_below = model.units(ROUTE_ACORN_GAMMA, 1 / 120, 10, 64)
        assert far_below > at_threshold

    def test_acorn_one_blows_up_before_gamma(self):
        # ACORN-1's densification is only M; with gamma > M it degrades
        # at higher selectivity than ACORN-gamma (paper Figure 4c).
        model = CostModel(n=10_000, m=16, gamma=64)
        s = 1 / 32  # below 1/M = 1/16, above 1/gamma = 1/64
        one = model.units(ROUTE_ACORN_ONE, s, 10, 64)
        gamma = model.units(ROUTE_ACORN_GAMMA, s, 10, 64)
        assert one > gamma

    def test_negative_correlation_inflates_graph_not_prefilter(self, model):
        # Every route walks a graph; the scan price (scan_units) takes
        # no correlation at all.
        for route in ALL_ROUTES:
            neutral = model.units(route, 0.2, 10, 64, correlation=0.0)
            anti = model.units(route, 0.2, 10, 64, correlation=-0.8)
            assert anti > neutral, route

    def test_positive_correlation_is_not_a_discount(self, model):
        neutral = model.units(ROUTE_ACORN_GAMMA, 0.2, 10, 64, correlation=0.0)
        friendly = model.units(ROUTE_ACORN_GAMMA, 0.2, 10, 64, correlation=0.8)
        assert friendly == pytest.approx(neutral)

    def test_postfilter_budget_capped_at_n(self, model):
        # k/s would exceed n at tiny selectivity; the budget clamps.
        capped = model.units(ROUTE_POST_FILTER, 1e-4, 10, 64)
        assert capped == pytest.approx(10_000 * 16)

    def test_unit_cost_discounts_only_prefilter(self, model):
        assert model.observed_units(1, scan=True) == model.scan_unit_cost
        assert model.observed_units(1, scan=False) == 1.0

    def test_observed_units_bill_at_unit_cost(self, model):
        assert model.observed_units(100, scan=True) == pytest.approx(
            model.scan_units(100, 0))
        assert model.observed_units(100, scan=False) == 100

    def test_all_units_covers_requested_routes(self, model):
        units = model.all_units(ALL_ROUTES, 0.3, 10, 64)
        assert tuple(units) == ALL_ROUTES
        assert all(v > 0 for v in units.values())

    def test_empty_index_does_not_divide_by_zero(self):
        model = CostModel(n=0, m=16, gamma=12)
        for route in ALL_ROUTES:
            assert model.units(route, 0.5, 10, 64) >= 0.0

