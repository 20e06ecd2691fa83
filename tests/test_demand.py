"""Electrified-demand synthesis: scaling, EV charging shapes, BTM growth."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridplan.demand import (
    DEFAULT_BTM_GROWTH,
    btm_capacity,
    btm_statewide_mw,
    fixed_ev_profile,
    flexible_ev_envelope,
    scale_heating,
    scale_vehicles,
    split_ev_daily,
    synthesize_demand,
)
from gridplan.runner import load_bundle
from test_acceptance import BUNDLE_DIR, demo_config


class TestScaling:
    def test_zero_rate(self):
        out = scale_heating(0.0, np.array([3.0, 7.0, 1.0]))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_unit_rate_identity(self):
        series = np.array([5.0, 0.0, 2.5])
        np.testing.assert_array_equal(scale_heating(1.0, series), series)

    def test_half_rate(self):
        np.testing.assert_allclose(
            scale_heating(0.5, np.array([10.0, 20.0])), [5.0, 10.0]
        )

    def test_vehicles_scalar_daily_total(self):
        assert scale_vehicles(0.25, 100.0) == pytest.approx(25.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            scale_heating(1.2, np.array([1.0]))
        with pytest.raises(ValueError):
            scale_vehicles(-0.1, np.array([1.0]))

    @given(st.floats(0.0, 1.0), st.floats(0.0, 0.5))
    def test_homogeneity(self, p, alpha):
        series = np.array([1.5, 80.0, 0.25])
        scaled = scale_heating(min(alpha * p, 1.0), series)
        np.testing.assert_allclose(scaled, min(alpha * p, 1.0) * series)


class TestSplitEvDaily:
    def test_all_fixed(self):
        assert split_ev_daily(100.0, 0.0) == (0.0, 100.0)

    def test_all_flexible(self):
        assert split_ev_daily(100.0, 1.0) == (100.0, 0.0)

    def test_quarter_split(self):
        assert split_ev_daily(80.0, 0.25) == (20.0, 60.0)

    @given(st.floats(0.0, 1e7), st.floats(0.0, 1.0))
    def test_parts_sum_exactly(self, total, y):
        flex, fixed = split_ev_daily(total, y)
        # flex is taken first; the remainder re-rounds by at most 1 ulp.
        assert abs(flex + fixed - total) <= math.ulp(max(total, 1.0))
        assert flex >= 0.0 and fixed >= 0.0


class TestFixedEvProfile:
    def test_uniform_all_day(self):
        out = fixed_ev_profile(np.array([24.0]), eta_veh=1.0, window=(0, 23))
        np.testing.assert_allclose(out, np.ones(24))

    def test_evening_window(self):
        out = fixed_ev_profile(np.array([12.0]), eta_veh=1.0, window=(18, 23))
        assert out.shape == (24,)
        np.testing.assert_allclose(out[18:], 2.0)
        np.testing.assert_allclose(out[:18], 0.0)

    def test_efficiency_inflates_load(self):
        out = fixed_ev_profile(np.array([10.0]), eta_veh=0.9, window=(0, 23))
        np.testing.assert_allclose(out, 10.0 / (0.9 * 24.0))
        assert out[0] == pytest.approx(0.46296, abs=1e-5)

    def test_multiday(self):
        out = fixed_ev_profile(np.array([24.0, 48.0]), eta_veh=1.0, window=(6, 11))
        assert out.shape == (48,)
        assert out[:24].sum() == pytest.approx(24.0)
        assert out[24:].sum() == pytest.approx(48.0)
        assert out[24 + 6] == pytest.approx(48.0 / 6.0)

    def test_zero_efficiency_rejected(self):
        with pytest.raises(ValueError):
            fixed_ev_profile(np.array([1.0]), eta_veh=0.0, window=(0, 23))

    @given(st.floats(0.0, 1e5), st.floats(0.2, 1.0))
    @settings(max_examples=50)
    def test_day_sum_times_eta_recovers_energy(self, energy, eta):
        out = fixed_ev_profile(np.array([energy]), eta_veh=eta, window=(3, 20))
        assert out.sum() * eta == pytest.approx(energy, rel=1e-9, abs=1e-12)


class TestFlexibleEnvelope:
    def test_basic_envelope(self):
        env = flexible_ev_envelope(np.array([40.0]), eta_veh=1.0, h_min=4,
                                   window=(0, 23))
        assert env.required_mwh[0] == pytest.approx(40.0)
        assert env.hourly_cap_mwh[0] == pytest.approx(10.0)
        assert env.feasible

    def test_zero_energy(self):
        env = flexible_ev_envelope(np.array([0.0]), eta_veh=0.9, h_min=4,
                                   window=(0, 23))
        assert env.required_mwh[0] == 0.0
        assert env.hourly_cap_mwh[0] == 0.0
        assert env.feasible

    def test_narrow_window_flagged_infeasible(self):
        # Requirement 8/0.8 = 10 exceeds cap*window = (8/4)*4 = 8.
        env = flexible_ev_envelope(np.array([8.0]), eta_veh=0.8, h_min=4,
                                   window=(20, 23))
        assert env.required_mwh[0] == pytest.approx(10.0)
        assert env.hourly_cap_mwh[0] == pytest.approx(2.0)
        assert not env.feasible

    def test_window_shorter_than_h_min(self):
        with pytest.raises(ValueError):
            flexible_ev_envelope(np.array([1.0]), eta_veh=1.0, h_min=4,
                                 window=(10, 11))


class TestBtmGrowth:
    def test_statewide_2030(self):
        total = btm_statewide_mw(2030)
        assert total == pytest.approx(6608.0, abs=10.0)
        # The generalized-logistic evaluation itself lands near 6611.
        assert total == pytest.approx(6607.96, abs=1.0)

    def test_statewide_2050(self):
        assert btm_statewide_mw(2050) == pytest.approx(
            10489.0, abs=10.0
        )

    def test_asymptote(self):
        assert btm_statewide_mw(3000) == pytest.approx(
            DEFAULT_BTM_GROWTH.k, rel=1e-6
        )

    def test_nodal_distribution(self):
        per_node = btm_capacity(2030, {"a": 0.25, "b": 0.75})
        total = btm_statewide_mw(2030)
        assert per_node["a"] == pytest.approx(0.25 * total)
        assert per_node["b"] == pytest.approx(0.75 * total)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            btm_capacity(2030, {"a": 0.5, "b": 0.3})

    def test_monotone_and_bounded(self):
        years = range(2000, 2200, 7)
        vals = [btm_statewide_mw(y) for y in years]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(v <= DEFAULT_BTM_GROWTH.k + 1e-9 for v in vals)

    def test_year_precondition(self):
        with pytest.raises(ValueError):
            btm_statewide_mw(1800)


class TestSynthesizeDemandInputs:
    # Called directly, without ``validate``, the demand names what the
    # scenario or the bundle lacks, in ``validate``'s words.
    @pytest.fixture(scope="class")
    def bundle(self):
        return load_bundle(BUNDLE_DIR)

    def test_rate_map_missing_a_node(self, bundle):
        config = demo_config(p_heat={"a": 0.3})
        with pytest.raises(ValueError, match=r"p_heat must give one rate per "
                           r"network node: missing \['b'\], unknown \[\]"):
            synthesize_demand(bundle.network, bundle.series, config,
                              bundle.params)

    def test_fixed_ev_without_hourly_vehicle_series(self, bundle):
        series = dataclasses.replace(bundle.series, d_veh_full=None)
        with pytest.raises(ValueError, match="fixed EV charging .* needs the "
                           "hourly vehicle series d_veh_full"):
            synthesize_demand(bundle.network, series,
                              demo_config(ev_flex=None), bundle.params)
