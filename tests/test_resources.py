"""Hydro disaggregation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from gridplan.resources import (
    MONTH_DAYS,
    build_hydro_profile,
    disaggregate_fixed,
    disaggregate_flexible,
    month_midpoint_hours,
    split_hydro,
)

TWELVE_SINUSOID = 1e5 * (1.0 + 0.6 * np.sin(np.linspace(0.0, 2.0 * np.pi, 12,
                                                        endpoint=False)))


class TestSplitHydro:
    def test_all_fixed(self):
        monthly = np.array([100.0, 200.0])
        fixed, flex = split_hydro(monthly, 1.0)
        np.testing.assert_array_equal(fixed, monthly)
        np.testing.assert_array_equal(flex, np.zeros(2))

    def test_all_flexible(self):
        monthly = np.array([100.0, 200.0])
        fixed, flex = split_hydro(monthly, 0.0)
        np.testing.assert_array_equal(fixed, np.zeros(2))
        np.testing.assert_array_equal(flex, monthly)

    def test_sixty_forty(self):
        fixed, flex = split_hydro(np.array([1000.0]), 0.6)
        assert fixed[0] == pytest.approx(600.0)
        assert flex[0] == pytest.approx(400.0)

    def test_range_check(self):
        with pytest.raises(ValueError):
            split_hydro(np.array([1.0]), 1.1)

    @given(st.floats(0.0, 1.0), st.floats(0.1, 10.0))
    def test_linearity(self, y, alpha):
        monthly = np.array([120.0, 45.0, 300.0])
        f1, x1 = split_hydro(monthly, y)
        f2, x2 = split_hydro(alpha * monthly, y)
        # absolute floor: near y=1 the flexible share cancels to ~1 ulp
        np.testing.assert_allclose(f2, alpha * f1, rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(x2, alpha * x1, rtol=1e-12, atol=1e-9)


class TestDisaggregateFixed:
    def test_constant_rate_stays_constant(self):
        # Constant hourly rate r: monthly totals r * hours(month).
        r = 7.5
        monthly = r * 24.0 * np.asarray(MONTH_DAYS, dtype=float)
        hourly = disaggregate_fixed(monthly)
        np.testing.assert_allclose(hourly, r, rtol=1e-9)

    def test_single_spike_month_conserved(self):
        monthly = np.zeros(12)
        monthly[5] = 5e4
        hourly = disaggregate_fixed(monthly)
        assert np.all(hourly >= 0.0)
        edges = 24 * np.cumsum([0] + list(MONTH_DAYS))
        for m in range(12):
            total = hourly[edges[m]:edges[m + 1]].sum()
            assert total == pytest.approx(monthly[m], rel=1e-9, abs=1e-7)

    def test_sinusoid_matches_independent_spline(self):
        monthly = TWELVE_SINUSOID
        hourly = disaggregate_fixed(monthly)
        hours_per_month = 24.0 * np.asarray(MONTH_DAYS, dtype=float)
        knots = month_midpoint_hours(MONTH_DAYS)
        rates = monthly / hours_per_month
        oracle = CubicSpline(knots, rates, bc_type="natural")
        t_eval = np.arange(hourly.size) + 0.5
        raw = np.clip(oracle(t_eval), 0.0, None)
        # Reproduce the per-month conservation rescale on the oracle values.
        edges = 24 * np.cumsum([0] + list(MONTH_DAYS))
        expected = raw.copy()
        for m in range(12):
            seg = slice(edges[m], edges[m + 1])
            s = raw[seg].sum()
            if s > 0.0:
                expected[seg] *= monthly[m] / s
        np.testing.assert_allclose(hourly, expected, rtol=1e-9, atol=1e-9)

    def test_increment_bounded_by_spline_derivative(self):
        monthly = TWELVE_SINUSOID
        hourly = disaggregate_fixed(monthly)
        knots = month_midpoint_hours(MONTH_DAYS)
        rates = monthly / (24.0 * np.asarray(MONTH_DAYS, dtype=float))
        oracle = CubicSpline(knots, rates, bc_type="natural")
        dense = np.linspace(0.5, hourly.size - 0.5, 20001)
        max_slope = np.abs(oracle(dense, 1)).max()
        steps = np.abs(np.diff(hourly))
        # Within a month the series follows one rescaled spline segment, so
        # steps are bounded by the continuous slope. Month boundaries may
        # add a small jump because adjacent months get slightly different
        # conservation rescale factors; bound those relative to the level.
        edges = 24 * np.cumsum([0] + list(MONTH_DAYS))
        boundary = np.asarray(edges[1:-1]) - 1
        interior = np.setdiff1d(np.arange(steps.size), boundary)
        assert steps[interior].max() <= max_slope * 1.1 + 1e-9
        assert steps[boundary].max() <= 0.05 * hourly.max()

    @given(
        st.lists(st.floats(0.0, 1e6), min_size=12, max_size=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_conservation_property(self, months):
        monthly = np.asarray(months)
        hourly = disaggregate_fixed(monthly)
        assert np.all(hourly >= 0.0)
        edges = 24 * np.cumsum([0] + list(MONTH_DAYS))
        for m in range(12):
            total = hourly[edges[m]:edges[m + 1]].sum()
            assert total == pytest.approx(monthly[m], rel=1e-9, abs=1e-6)

    def test_short_history_falls_back_to_flat(self):
        monthly = np.array([3100.0, 2800.0, 3100.0])
        with pytest.warns(UserWarning, match="piecewise-constant"):
            hourly = disaggregate_fixed(monthly, month_days=(31, 28, 31))
        np.testing.assert_allclose(hourly[: 31 * 24], 3100.0 / (31 * 24))
        np.testing.assert_allclose(hourly[31 * 24 : 59 * 24], 2800.0 / (28 * 24))


class TestDisaggregateFlexible:
    def test_constant_rate(self):
        r_daily = 240.0
        monthly = r_daily * np.asarray(MONTH_DAYS, dtype=float)
        daily = disaggregate_flexible(monthly)
        assert daily.size == sum(MONTH_DAYS)
        np.testing.assert_allclose(daily, r_daily, rtol=1e-9)

    def test_monthly_conservation(self):
        monthly = TWELVE_SINUSOID
        daily = disaggregate_flexible(monthly)
        edges = np.cumsum([0] + list(MONTH_DAYS))
        for m in range(12):
            assert daily[edges[m]:edges[m + 1]].sum() == pytest.approx(
                monthly[m], rel=1e-9
            )

    def test_matches_independent_spline_at_day_midpoints(self):
        monthly = TWELVE_SINUSOID
        daily = disaggregate_flexible(monthly)
        knots = month_midpoint_hours(MONTH_DAYS) / 24.0
        rates = monthly / np.asarray(MONTH_DAYS, dtype=float)
        oracle = CubicSpline(knots, rates, bc_type="natural")
        t_eval = np.arange(daily.size) + 0.5
        raw = np.clip(oracle(t_eval), 0.0, None)
        edges = np.cumsum([0] + list(MONTH_DAYS))
        expected = raw.copy()
        for m in range(12):
            seg = slice(edges[m], edges[m + 1])
            s = raw[seg].sum()
            if s > 0.0:
                expected[seg] *= monthly[m] / s
        np.testing.assert_allclose(daily, expected, rtol=1e-9, atol=1e-9)


class TestBuildHydroProfile:
    def test_splits_then_disaggregates(self):
        monthly = TWELVE_SINUSOID
        profile = build_hydro_profile(monthly, y_fix=0.7)
        assert profile.h_fix_hourly.size == 8760
        assert profile.h_flex_daily.size == 365
        assert profile.h_fix_hourly.sum() == pytest.approx(0.7 * monthly.sum(),
                                                           rel=1e-9)
        assert profile.h_flex_daily.sum() == pytest.approx(0.3 * monthly.sum(),
                                                           rel=1e-9)

