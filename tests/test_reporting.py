"""Tests for post-solve reporting: LCOE arithmetic, curtailment attribution,
excess low-carbon accounting, cost and energy closure, and serialization.

Scalar expectations are derived from one-line arithmetic in the test body.
Scenario-level expectations are recomputed independently from the raw
solution vector (by column name) so the reporting module's own bookkeeping
is never trusted to check itself.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import gridplan
from gridplan import reporting, solver
from gridplan.demand import synthesize_demand
from gridplan.emissions import EmissionsCalibration, ghg_reduction
from gridplan.formulation import BuildInputs, assemble
from gridplan.model import (
    CostTable,
    HEAT_RATE_MMBTU_PER_MWH,
    InterfaceSpec,
    NetworkSpec,
    NodeSpec,
    ScenarioConfig,
    TechParams,
    TimeSeriesSet,
    annualization_rate,
)
from gridplan.reporting import (
    CSV_COLUMNS,
    attribute_curtailment,
    compute_lcoe,
    csv_row,
    energy_closure,
    excess_percent,
    excess_series,
    realized_emissions,
    report_json_dict,
    summarize,
    unit_cost,
    write_operations_csv,
    write_report_csv,
)
from gridplan.runner import load_bundle, load_config, run_scenario
from gridplan.solver import solve

from helpers import operations_csv_oracle, tiled_fixture

FIXTURE = Path(gridplan.__file__).parent / "data" / "two_node_48h"

# --------------------------------------------------------------------------
# local fixtures


def one_node(**node_kw) -> NetworkSpec:
    return NetworkSpec(nodes=[NodeSpec(id="n", **node_kw)])


def _series_map(node_ids, t, value):
    out = {}
    for nid in node_ids:
        arr = np.asarray(value[nid] if isinstance(value, dict) else value,
                         dtype=float)
        if arr.ndim == 0:
            arr = np.full(t, float(arr))
        out[nid] = arr
    return out


def series_for(net: NetworkSpec, t: int, **kw) -> TimeSeriesSet:
    ids = net.node_ids
    fields = dict(
        d_elec=0.0, d_heat_full=0.0, d_veh_full=0.0, w_on=0.0, w_off=0.0,
        w_us_solar=0.0, w_btm_solar=0.0, h_fix=0.0, nuclear=0.0,
    )
    fields.update(kw)
    return TimeSeriesSet(**{k: _series_map(ids, t, v) for k, v in fields.items()})


def costs_for(node_ids=("n",), **kw) -> CostTable:
    base = dict(
        omv_ff=4.48,
        c_ff={n: 3.5 for n in node_ids},
        c_hydro={n: 18.47 for n in node_ids},
        c_nuc={n: 26.82 for n in node_ids},
        c_bio={n: 24.0 for n in node_ids},
        c_imp={n: 22.13 for n in node_ids},
        ex_cap={n: 0.0 for n in node_ids},
        ex_tx={n: 0.0 for n in node_ids},
    )
    base.update(kw)
    return CostTable(**base)


def scenario(config, net, series, costs, params, *, emissions=None):
    demand = synthesize_demand(net, series, config, params)
    inp = BuildInputs(config, net, series, costs, params, demand,
                      emissions=emissions)
    lp, _ = assemble(inp)
    sol = solve(lp)
    assert sol.status == "optimal", sol.message
    return inp, lp, sol


T24 = 24
PARAMS_24 = TechParams(n_years=T24 / 8760.0)
FUEL_EX = HEAT_RATE_MMBTU_PER_MWH * 3.5 / 0.428  # $/MWh of existing-unit output


def sun_shape(t: int) -> np.ndarray:
    hours = np.arange(t)
    s = np.clip(np.sin(2.0 * np.pi * (hours % 24) / 24.0 - np.pi / 2.0),
                0.0, None)
    return np.minimum(s * 1.05, 1.0)


def solar_gas_scenario(lcp=0.4, label="solar-gas"):
    """Existing gas plus buildable (deliberately expensive) utility solar
    under a low-carbon share target. Nights are gas-only, so the share row
    binds and midday solar output is partially curtailed."""
    net = one_node(gas_existing_mw=400.0, us_solar_max_mw=5000.0)
    series = series_for(net, T24, d_elec=100.0, w_us_solar=sun_shape(T24))
    costs = costs_for(cap_us_solar={"n": 1000.0}, omf_us_solar={"n": 10.0})
    config = ScenarioConfig(mode="lcp+hve", lcp=lcp, p_heat=0.0, p_veh=0.0)
    inp, lp, sol = scenario(config, net, series, costs, PARAMS_24)
    return inp, lp, sol, summarize(inp, lp, sol, label=label)


def battery_solar_scenario():
    """Free existing solar by day, demand only in the evening: every served
    MWh must cycle through a newly built battery."""
    net = one_node(us_solar_existing_mw=50.0)
    hours = np.arange(T24)
    d_elec = np.where((hours >= 18) & (hours <= 21), 10.0, 0.0)
    w_us = np.where((hours >= 8) & (hours <= 15), 1.0, 0.0)
    series = series_for(net, T24, d_elec=d_elec, w_us_solar=w_us)
    costs = costs_for(
        cap_batt_e={"n": 208.0}, cap_batt_p={"n": 300.0},
        omf_batt_e={"n": 0.0}, omf_batt_p={"n": 8.5},
    )
    config = ScenarioConfig(mode="lcp+hve", lcp=0.0, p_heat=0.0, p_veh=0.0)
    return scenario(config, net, series, costs, PARAMS_24)


def idle_battery_scenario():
    """Cheap gas covers a flat load; the existing battery has no reason to
    cycle, so its delivered energy is zero."""
    net = one_node(gas_existing_mw=50.0, battery_energy_existing_mwh=20.0,
                   battery_power_existing_mw=5.0)
    series = series_for(net, T24, d_elec=10.0)
    config = ScenarioConfig(mode="lcp+hve", lcp=0.0, p_heat=0.0, p_veh=0.0)
    return scenario(config, net, series, costs_for(), PARAMS_24)


def tiny_calibration(**kw) -> EmissionsCalibration:
    base = dict(
        theta_ff_t_per_mwh=0.396648,
        theta_imp_t_per_mwh=0.23,
        theta_heat_t_per_mj=1.1e-4,
        theta_veh_t_per_mj=8.1e-5,
        f_heat_tot_mj={"n": 2.0e9},
        f_veh_tot_mj={"n": 1.5e9},
        eps_transp_other_mmt=0.2,
        eps_industrial_mmt=0.19,
    )
    base.update(kw)
    return EmissionsCalibration(**base)


def ghg_wind_gas_scenario(omega=0.3):
    """Existing gas plus buildable wind under an emissions cap calibrated so
    the cap binds: wind costs more than gas, so the optimizer burns exactly
    the allowed budget and fills the rest with wind."""
    cal = tiny_calibration(reference_mmt=1.61643)
    net = one_node(gas_existing_mw=400.0, onshore_max_mw=5000.0)
    series = series_for(net, T24, d_elec=100.0, w_on=0.5)
    costs = costs_for(cap_on={"n": 1700.0}, omf_on={"n": 18.1})
    config = ScenarioConfig(mode="ghg+hve", omega=omega, p_heat=0.0,
                            p_veh=0.0)
    inp, lp, sol = scenario(config, net, series, costs, PARAMS_24,
                            emissions=cal)
    return inp, lp, sol, cal


def free_rates_scenario(omega=0.5):
    """Electrification rates left to the optimizer under a binding emissions
    cap: end-use fuel must shrink, so at least one rate moves off zero."""
    cal = tiny_calibration(
        f_heat_tot_mj={"n": 1.0e10},
        f_veh_tot_mj={"n": 5.0e9},
        eps_transp_other_mmt=0.0,
        eps_industrial_mmt=0.0,
        reference_mmt=2.0,
    )
    net = one_node(gas_existing_mw=400.0)
    series = series_for(net, T24, d_elec=30.0, d_heat_full=20.0,
                        d_veh_full=10.0)
    config = ScenarioConfig(mode="ghg+lcp", omega=omega, lcp=0.0)
    inp, lp, sol = scenario(config, net, series, costs_for(), PARAMS_24,
                            emissions=cal)
    return inp, lp, sol, cal


def two_node_flow_scenario():
    """Generation at one node, load and cheaper imports at the other, joined
    by a lossy interface, for flow accounting and the operations dump."""
    node_a = NodeSpec(id="a", gas_existing_mw=800.0)
    node_b = NodeSpec(id="b", import_limit_mwh=50.0)
    iface = InterfaceSpec(node_a="a", node_b="b", distance_mi=100.0,
                          existing_fwd_mw=200.0, existing_rev_mw=200.0)
    net = NetworkSpec(nodes=[node_a, node_b], interfaces=[iface])
    series = series_for(net, T24, d_elec={"a": 0.0, "b": 100.0})
    costs = costs_for(node_ids=("a", "b"),
                      c_imp={"a": 22.13, "b": 20.0})
    config = ScenarioConfig(mode="lcp+hve", lcp=0.0, p_heat=0.0, p_veh=0.0)
    return scenario(config, net, series, costs, PARAMS_24)


def surplus_scenario():
    """Must-run and variable output beyond both nodes' loads and the thin
    interface between them. Node a curtails nuclear by night, with no
    variable potential behind it; node b curtails wind and solar together.
    Nothing is buildable, so each potential is existing capacity times its
    capacity factor."""
    node_a = NodeSpec(id="a", nuclear_mw=300.0, us_solar_existing_mw=200.0)
    node_b = NodeSpec(id="b", onshore_existing_mw=300.0,
                      us_solar_existing_mw=100.0, gas_existing_mw=200.0)
    iface = InterfaceSpec(node_a="a", node_b="b", distance_mi=100.0,
                          existing_fwd_mw=50.0, existing_rev_mw=50.0)
    net = NetworkSpec(nodes=[node_a, node_b], interfaces=[iface])
    series = series_for(net, T24, d_elec={"a": 100.0, "b": 80.0},
                        w_on={"a": 0.0, "b": 0.5}, w_us_solar=sun_shape(T24),
                        nuclear={"a": 300.0, "b": 0.0})
    config = ScenarioConfig(mode="lcp+hve", lcp=0.0, p_heat=0.0, p_veh=0.0)
    return scenario(config, net, series, costs_for(node_ids=("a", "b")),
                    PARAMS_24)


def column_sum(lp, sol, fam, node, t_range) -> float:
    return sum(sol.x[lp.column_index(f"{fam}[{node},{t}]")] for t in t_range)


def balance_slack(lp, sol, node) -> np.ndarray:
    """The recorded slack of each ``balance[node,t]`` row of a 24 h LP."""
    return np.array([sol.slacks[lp.row_names.index(f"balance[{node},{t}]")]
                     for t in range(T24)])


def read_operations(path) -> dict[str, dict[str, np.ndarray]]:
    """``operations.csv`` as node -> resource -> hourly MWh."""
    table: dict[str, dict[str, list]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            values = table.setdefault(row["node"], {}).setdefault(
                row["resource"], [])
            assert int(row["t"]) == len(values)
            values.append(float(row["mwh"]))
    return {node: {r: np.array(v) for r, v in series.items()}
            for node, series in table.items()}


def operations_of(tmp_path, inp, lp, sol) -> dict[str, dict[str, np.ndarray]]:
    path = tmp_path / "operations.csv"
    write_operations_csv(path, inp, lp, sol)
    return read_operations(path)


def any_list(value) -> bool:
    """Whether a decoded JSON value holds a list anywhere."""
    if isinstance(value, dict):
        return any(any_list(v) for v in value.values())
    return isinstance(value, list)


# --------------------------------------------------------------------------
# LCOE arithmetic


class TestComputeLcoe:
    def test_zero_cost_gives_zero(self):
        assert compute_lcoe(0.0, 10.0) == 0.0

    def test_cost_720_over_10_mwh_is_72(self):
        assert compute_lcoe(720.0, 10.0) == 72.0

    @pytest.mark.parametrize("denom", [0.0, -5.0])
    def test_nonpositive_denominator_rejected(self, denom):
        with pytest.raises(ValueError, match="net demand"):
            compute_lcoe(100.0, denom)


class TestUnitCost:
    def test_zero_delivery_is_undefined(self):
        assert unit_cost(0.0, 0.0) is None
        assert unit_cost(5000.0, 0.0) is None

    def test_solar_division_example(self):
        value = unit_cost(107_600.0, 1_500.0)
        assert value == pytest.approx(107_600.0 / 1_500.0)
        assert round(value, 2) == 71.73


# --------------------------------------------------------------------------
# curtailment attribution arithmetic


class TestAttributeCurtailment:
    def test_proportional_split(self):
        out = attribute_curtailment(5.0, {"wind": 8.0, "solar": 2.0})
        assert out == {"wind": 4.0, "solar": 1.0, "other": 0.0}

    def test_zero_potential_goes_to_other(self):
        out = attribute_curtailment(3.0, {"wind": 0.0, "solar": 0.0})
        assert out == {"wind": 0.0, "solar": 0.0, "other": 3.0}

    @pytest.mark.parametrize("slack,pots", [
        (7.5, {"a": 1.0, "b": 2.0, "c": 4.0}),
        (0.0, {"a": 5.0}),
        (2.0, {}),
        # hours as arrays; the second and fourth have no potential at all
        (np.array([7.5, 3.0, 0.0, 2.0]),
         {"a": np.array([1.0, 0.0, 5.0, 0.0]),
          "b": np.array([2.0, 0.0, 0.0, 0.0]),
          "c": np.array([4.0, 0.0, 1.0, 0.0])}),
        (np.array([1.0, 4.0]), {}),
    ])
    def test_attribution_conserves_slack(self, slack, pots):
        out = attribute_curtailment(slack, pots)
        assert sum(out.values()) == pytest.approx(slack, abs=1e-12)
        assert all(np.all(v >= 0.0) for v in out.values())


# --------------------------------------------------------------------------
# excess low-carbon arithmetic


class TestExcessArithmetic:
    def test_below_demand_everywhere_is_zero(self):
        potential = np.array([8.0, 9.0, 5.0])
        demand = np.full(3, 10.0)
        assert np.all(excess_series(potential, demand) == 0.0)
        assert excess_percent(potential, demand) == 0.0

    def test_positive_part_example(self):
        potential = np.array([8.0, 14.0])
        demand = np.array([10.0, 10.0])
        np.testing.assert_allclose(excess_series(potential, demand),
                                   [0.0, 4.0])
        assert excess_percent(potential, demand) == pytest.approx(
            100.0 * 4.0 / 22.0)

    def test_no_low_carbon_supply_is_zero_percent(self):
        assert excess_percent(np.zeros(4), np.full(4, 10.0)) == 0.0


# --------------------------------------------------------------------------
# solar + gas scenario under a binding share target


@pytest.fixture(scope="module")
def solar_gas():
    return solar_gas_scenario()


class TestSolarGasScenario:
    def test_share_row_binds_and_realized_share_matches(self, solar_gas):
        inp, lp, sol, report = solar_gas
        gas = column_sum(lp, sol, "fossil_ex", "n", range(T24))
        # nights need 13 h x 100 MWh of gas; the target allows 1440 total
        assert gas == pytest.approx(0.6 * 2400.0, rel=1e-6)
        assert report.lcp_realized == pytest.approx(0.4, abs=1e-6)
        assert report.lcp_realized >= 0.4 - 1e-6

    def test_curtailment_positive_and_attributed_to_solar(self, solar_gas,
                                                          tmp_path):
        inp, lp, sol, report = solar_gas
        curt = report.curtailment
        assert curt.total_mwh > 1.0
        slack = balance_slack(lp, sol, "n")
        assert np.all(slack >= -1e-9)
        hourly = operations_of(tmp_path, inp, lp, sol)["n"]["curtailment"]
        np.testing.assert_array_equal(hourly, np.maximum(slack, 0.0))
        assert curt.total_mwh == pytest.approx(hourly.sum(), rel=1e-12)
        for bucket in ("onshore", "offshore", "btm-solar", "other"):
            assert curt.by_bucket_mwh[bucket] == pytest.approx(0.0, abs=1e-9)
        assert curt.by_bucket_mwh["us-solar"] == pytest.approx(
            hourly.sum(), rel=1e-12)

    def test_solar_delivery_is_the_non_gas_share(self, solar_gas):
        inp, lp, sol, report = solar_gas
        built = sol.x[lp.column_index("cap_us_solar[n]")]
        potential = built * inp.series.w_us_solar["n"]
        delivered = float(potential.sum()) - report.curtailment.total_mwh
        assert delivered == pytest.approx(2400.0 - 1440.0, rel=1e-6)
        avg = report.generation_avg_gwh_per_hour["us-solar"]
        assert avg == pytest.approx(delivered / T24 / 1000.0, rel=1e-9)

    def test_cost_closure_to_objective(self, solar_gas):
        inp, lp, sol, report = solar_gas
        total = sum(report.cost_usd.values()) + report.nominal_cost_usd
        assert total == pytest.approx(sol.objective, rel=1e-9)

    def test_lcoe_identity(self, solar_gas):
        inp, lp, sol, report = solar_gas
        # demand is 100 MWh x 24 h with no electrified end uses and no BTM
        assert report.net_demand_mwh == pytest.approx(2400.0, rel=1e-12)
        assert report.lcoe_usd_per_mwh == pytest.approx(
            sol.objective / 2400.0, rel=1e-12)

    def test_fossil_lcoe_is_the_fuel_price(self, solar_gas):
        inp, lp, sol, report = solar_gas
        assert report.resource_lcoe_usd_per_mwh["fossil-existing"] == \
            pytest.approx(FUEL_EX, rel=1e-9)

    def test_solar_lcoe_is_capital_over_delivered(self, solar_gas):
        inp, lp, sol, report = solar_gas
        built = sol.x[lp.column_index("cap_us_solar[n]")]
        coeff = PARAMS_24.n_years * (
            annualization_rate(20, 0.05) * 1000.0 * 1000.0 + 10.0 * 1000.0)
        assert report.cost_usd["us-solar"] == pytest.approx(
            built * coeff, rel=1e-9)
        assert report.resource_lcoe_usd_per_mwh["us-solar"] == pytest.approx(
            built * coeff / 960.0, rel=1e-6)

    def test_energy_closure_tight(self, solar_gas):
        inp, lp, sol, report = solar_gas
        assert energy_closure(inp, lp, sol) <= 1e-7

    def test_energy_closure_detects_a_perturbed_point(self, solar_gas):
        inp, lp, sol, report = solar_gas
        x = sol.x.copy()
        x[lp.column_index("fossil_ex[n,0]")] += 1.0
        poked = dataclasses.replace(sol, x=x)
        assert energy_closure(inp, lp, poked) >= 0.5

    def test_excess_series_matches_direct_arithmetic(self, solar_gas,
                                                     tmp_path):
        inp, lp, sol, report = solar_gas
        built = sol.x[lp.column_index("cap_us_solar[n]")]
        potential = built * inp.series.w_us_solar["n"]
        expected = np.maximum(potential - 100.0, 0.0)
        ops = operations_of(tmp_path, inp, lp, sol)["n"]
        np.testing.assert_allclose(
            np.maximum(ops["us-solar"] - ops["load"], 0.0), expected,
            atol=1e-7)
        excess = report.excess
        assert excess.total_mwh == pytest.approx(expected.sum(), rel=1e-9)
        assert excess.potential_mwh == pytest.approx(potential.sum(),
                                                     rel=1e-9)
        assert excess.percent == pytest.approx(
            100.0 * expected.sum() / potential.sum(), rel=1e-6)
        assert excess.percent > 0.0

    def test_capacity_table(self, solar_gas):
        inp, lp, sol, report = solar_gas
        built = sol.x[lp.column_index("cap_us_solar[n]")]
        assert report.capacity["fossil-existing"] == pytest.approx(0.4)
        assert report.capacity["us-solar"] == pytest.approx(
            built / 1000.0, rel=1e-12)
        assert report.capacity["battery-power"] == 0.0
        assert report.capacity["battery-energy"] == 0.0

    def test_no_emissions_calibration_means_no_ghg_fields(self, solar_gas):
        inp, lp, sol, report = solar_gas
        assert realized_emissions(inp, sol) is None
        assert report.ghg_change_percent is None
        assert csv_row(report)["ghg_change_percent"] == ""

    def test_average_load(self, solar_gas):
        inp, lp, sol, report = solar_gas
        assert report.avg_load_gwh_per_hour == pytest.approx(0.1, rel=1e-9)

    def test_hve_fields_zero(self, solar_gas):
        inp, lp, sol, report = solar_gas
        assert report.heat_electrified == 0.0
        assert report.vehicle_electrified == 0.0


# --------------------------------------------------------------------------
# battery scenarios


@pytest.fixture(scope="module")
def battery_solar():
    inp, lp, sol = battery_solar_scenario()
    return inp, lp, sol, summarize(inp, lp, sol, label="battery")


class TestBatteryScenario:
    def test_throughput_and_lcoe(self, battery_solar):
        inp, lp, sol, report = battery_solar
        discharge = column_sum(lp, sol, "batt_discharge", "n", range(T24))
        assert discharge == pytest.approx(40.0, rel=1e-9)
        assert report.battery_throughput_gwh == pytest.approx(0.04, rel=1e-9)
        cap_e = sol.x[lp.column_index("cap_battery_energy[n]")]
        cap_p = sol.x[lp.column_index("cap_battery_power[n]")]
        rate = annualization_rate(10, 0.05)
        expected_cost = PARAMS_24.n_years * (
            cap_e * rate * 208.0 * 1000.0
            + cap_p * (rate * 300.0 * 1000.0 + 8.5 * 1000.0))
        assert report.cost_usd["battery"] == pytest.approx(
            expected_cost, rel=1e-9)
        assert report.resource_lcoe_usd_per_mwh["battery"] == pytest.approx(
            expected_cost / discharge, rel=1e-9)

    def test_power_to_energy_couple_reported(self, battery_solar):
        inp, lp, sol, report = battery_solar
        assert report.capacity["battery-power"] == pytest.approx(
            0.25 * report.capacity["battery-energy"], rel=1e-9)
        assert report.capacity["battery-power"] * 1000.0 >= 10.0 - 1e-9

    def test_nominal_charges_reported_separately(self, battery_solar):
        inp, lp, sol, report = battery_solar
        cycled = (column_sum(lp, sol, "batt_charge", "n", range(T24))
                  + column_sum(lp, sol, "batt_discharge", "n", range(T24)))
        assert report.nominal_cost_usd == pytest.approx(0.01 * cycled,
                                                        rel=1e-9)
        assert "nominal" not in report.cost_usd

    def test_solar_delivery_equals_charge(self, battery_solar):
        inp, lp, sol, report = battery_solar
        charge = column_sum(lp, sol, "batt_charge", "n", range(T24))
        curt = report.curtailment
        potential = 50.0 * inp.series.w_us_solar["n"]
        delivered = float(potential.sum()) - curt.total_mwh
        assert delivered == pytest.approx(charge, rel=1e-9)

    def test_closure_with_storage(self, battery_solar):
        inp, lp, sol, report = battery_solar
        assert energy_closure(inp, lp, sol) <= 1e-7

    def test_idle_battery_lcoe_is_undefined(self):
        inp, lp, sol = idle_battery_scenario()
        report = summarize(inp, lp, sol, label="idle")
        assert report.resource_lcoe_usd_per_mwh["battery"] is None
        assert report.battery_throughput_gwh == 0.0
        assert csv_row(report)["lcoe[battery]"] == ""


# --------------------------------------------------------------------------
# fixed charges


def test_excluded_nuclear_leaves_the_fixed_charges():
    """With nuclear excluded, its capacity leaves the existing-capacity
    charge and its energy is not charged: the objective offset and the
    reported cost buckets both match the charge computed by hand."""
    net = one_node(gas_existing_mw=300.0, hydro_fixed_mw=40.0,
                   nuclear_mw=200.0, existing_tx_flow_mwh=1000.0)
    series = series_for(net, T24, d_elec=100.0, h_fix=30.0, nuclear=150.0)
    costs = costs_for(ex_cap={"n": 27.64}, ex_tx={"n": 1.5})
    config = ScenarioConfig(mode="lcp+hve", lcp=0.0, p_heat=0.0, p_veh=0.0,
                            include_nuclear=False)
    inp, lp, sol = scenario(config, net, series, costs, PARAMS_24)
    # eligible MW: hydro and gas, without the 200 MW of nuclear
    existing = PARAMS_24.n_years * (27.64 * (40.0 + 300.0) * 1000.0
                                    + 1.5 * 1000.0)
    hydro = T24 * 30.0 * 18.47
    assert lp.offset == pytest.approx(existing + hydro, rel=1e-12)
    report = summarize(inp, lp, sol)
    assert report.cost_usd["nuclear"] == 0.0
    assert report.cost_usd["existing-capacity"] == pytest.approx(
        existing, rel=1e-12)
    assert report.cost_usd["hydro"] == pytest.approx(hydro, rel=1e-12)


# --------------------------------------------------------------------------
# emissions-constrained scenarios


class TestGhgScenario:
    def test_binding_cap_reproduced_by_ledger(self):
        inp, lp, sol, cal = ghg_wind_gas_scenario(omega=0.3)
        ledger = realized_emissions(inp, sol)
        assert ledger is not None
        assert ghg_reduction(ledger) == pytest.approx(0.3, abs=1e-6)
        gas = column_sum(lp, sol, "fossil_ex", "n", range(T24))
        expected_elec = (gas / 0.428) * 0.396648 * 1e-6 * (8760.0 / T24)
        assert ledger.eps_elec == pytest.approx(expected_elec, rel=1e-9)

    def test_report_ghg_fields(self):
        inp, lp, sol, cal = ghg_wind_gas_scenario(omega=0.3)
        report = summarize(inp, lp, sol, label="ghg")
        ledger = realized_emissions(inp, sol)
        assert report.ghg_reduction == pytest.approx(
            ghg_reduction(ledger), rel=1e-12)
        assert report.ghg_change_percent == pytest.approx(
            -100.0 * ghg_reduction(ledger), rel=1e-12)
        gas = column_sum(lp, sol, "fossil_ex", "n", range(T24))
        assert report.lcp_realized == pytest.approx(1.0 - gas / 2400.0,
                                                    rel=1e-9)


class TestFreeRatesScenario:
    def test_rates_read_from_solution(self):
        inp, lp, sol, cal = free_rates_scenario(omega=0.5)
        report = summarize(inp, lp, sol, label="free")
        r_heat = sol.x[lp.column_index("rate_heat")]
        r_veh = sol.x[lp.column_index("rate_veh")]
        assert report.heat_electrified == pytest.approx(r_heat, rel=1e-12)
        assert report.vehicle_electrified == pytest.approx(r_veh, rel=1e-12)
        assert r_heat > 0.1  # the cap cannot be met without electrifying

    def test_ledger_uses_solved_rates_and_cap_binds(self):
        inp, lp, sol, cal = free_rates_scenario(omega=0.5)
        ledger = realized_emissions(inp, sol)
        r_heat = sol.x[lp.column_index("rate_heat")]
        expected_heat = (1.0 - r_heat) * 1.1e-4 * 1.0e10 / 1e6
        assert ledger.eps_heat == pytest.approx(expected_heat, rel=1e-9)
        assert ghg_reduction(ledger) == pytest.approx(0.5, abs=1e-6)

    def test_net_demand_scales_with_rates(self):
        inp, lp, sol, cal = free_rates_scenario(omega=0.5)
        report = summarize(inp, lp, sol, label="free")
        r_heat = sol.x[lp.column_index("rate_heat")]
        r_veh = sol.x[lp.column_index("rate_veh")]
        expected = 24 * (30.0 + 20.0 * r_heat + 10.0 * r_veh)
        assert report.net_demand_mwh == pytest.approx(expected, rel=1e-9)
        assert report.lcoe_usd_per_mwh == pytest.approx(
            sol.objective / expected, rel=1e-9)
        assert energy_closure(inp, lp, sol) <= 1e-7


def test_per_node_rates_report_their_energy_weighted_means():
    # A per-node rate reports the mean of its nodes' rates weighted by
    # each node's full demand: heating hourly, vehicles by day, where the
    # fixture's node a has none.
    bundle = load_bundle(FIXTURE)
    config = dataclasses.replace(load_config(FIXTURE / "scenario.json"),
                                 p_heat={"a": 0.1, "b": 0.3},
                                 p_veh={"a": 0.1, "b": 0.3})
    result = run_scenario(bundle, config)
    assert result.status == "optimal"
    heat = {n: float(np.sum(bundle.series.d_heat_full[n])) for n in "ab"}
    assert result.report.heat_electrified == pytest.approx(
        (0.1 * heat["a"] + 0.3 * heat["b"]) / (heat["a"] + heat["b"]),
        rel=1e-12)
    assert result.report.heat_electrified == pytest.approx(0.2219742489,
                                                           abs=1e-10)
    assert float(np.sum(bundle.series.e_veh_daily_full["a"])) == 0.0
    assert result.report.vehicle_electrified == 0.3


# --------------------------------------------------------------------------
# flows, operations dump, and CSV/JSON serialization


@pytest.fixture(scope="module")
def two_node():
    inp, lp, sol = two_node_flow_scenario()
    return inp, lp, sol, summarize(inp, lp, sol, label="pair")


class TestTwoNodeScenario:
    def test_dispatch_splits_between_imports_and_gas(self, two_node):
        inp, lp, sol, report = two_node
        imports = column_sum(lp, sol, "imports", "b", range(T24))
        gas = column_sum(lp, sol, "fossil_ex", "a", range(T24))
        assert imports == pytest.approx(1200.0, rel=1e-6)
        assert gas == pytest.approx(1200.0 / 0.97, rel=1e-6)

    def test_realized_share_matches_direct_recomputation(self, two_node):
        inp, lp, sol, report = two_node
        gas = column_sum(lp, sol, "fossil_ex", "a", range(T24))
        imports = column_sum(lp, sol, "imports", "b", range(T24))
        expected = 1.0 - gas / (2400.0 - imports)
        assert report.lcp_realized == pytest.approx(expected, rel=1e-9)

    def test_closure_with_lossy_flows(self, two_node):
        inp, lp, sol, report = two_node
        assert energy_closure(inp, lp, sol) <= 1e-7

    def test_operations_csv_contents(self, two_node, tmp_path):
        inp, lp, sol, report = two_node
        path = tmp_path / "operations.csv"
        write_operations_csv(path, inp, lp, sol)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"node", "t", "resource", "mwh"}
        keys = [(r["node"], int(r["t"]), r["resource"]) for r in rows]
        assert len(keys) == len(set(keys))
        assert keys == sorted(keys)
        out_sum = sum(float(r["mwh"]) for r in rows
                      if r["resource"] == "flow-out[a>b]")
        in_sum = sum(float(r["mwh"]) for r in rows
                     if r["resource"] == "flow-in[a>b]")
        flows = column_sum(lp, sol, "flow", "a>b", range(T24))
        assert out_sum == pytest.approx(flows, rel=1e-9)
        assert in_sum == pytest.approx(0.97 * flows, rel=1e-9)
        load_b = sum(float(r["mwh"]) for r in rows
                     if r["resource"] == "load" and r["node"] == "b")
        assert load_b == pytest.approx(2400.0, rel=1e-12)

    def test_operations_csv_closes_every_node_hour(self, two_node, tmp_path):
        inp, lp, sol, report = two_node
        path = tmp_path / "operations.csv"
        write_operations_csv(path, inp, lp, sol)
        supply = {"onshore", "offshore", "us-solar", "btm-solar",
                  "hydro-fixed", "hydro-flex", "nuclear", "fossil-existing",
                  "fossil-new", "biofuel", "imports", "battery-discharge",
                  "h2-discharge"}
        draws = {"load", "battery-charge", "h2-charge", "curtailment"}
        outside = {"battery-soc", "h2-soc", "ev-charging"}
        net = {}
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                resource = row["resource"]
                if resource in supply or resource.startswith("flow-in["):
                    sign = 1.0
                elif resource in draws or resource.startswith("flow-out["):
                    sign = -1.0
                else:
                    assert resource in outside, resource
                    sign = 0.0
                key = (row["node"], int(row["t"]))
                net[key] = net.get(key, 0.0) + sign * float(row["mwh"])
        assert len(net) == 2 * T24
        assert max(abs(v) for v in net.values()) <= 1e-7

    def test_operations_csv_deterministic(self, two_node, tmp_path):
        inp, lp, sol, report = two_node
        p1, p2 = tmp_path / "ops1.csv", tmp_path / "ops2.csv"
        write_operations_csv(p1, inp, lp, sol)
        write_operations_csv(p2, inp, lp, sol)
        assert p1.read_bytes() == p2.read_bytes()


@pytest.fixture(scope="module")
def shipped():
    """The shipped fixture's own scenario, built and solved."""
    bundle = load_bundle(FIXTURE)
    config = load_config(FIXTURE / "scenario.json")
    demand = synthesize_demand(bundle.network, bundle.series, config,
                               bundle.params)
    inp = BuildInputs(config, bundle.network, bundle.series, bundle.costs,
                      bundle.params, demand, emissions=bundle.emissions)
    lp = assemble(inp)[0]
    return inp, lp, solve(lp)


class TestIdleResourceLcoe:
    def test_real_delivery_gives_its_lcoe(self, shipped):
        inp, lp, sol = shipped
        report = summarize(inp, lp, sol)
        delivered = report.generation_avg_gwh_per_hour["biofuel"] * (
            inp.n_hours * 1000.0)
        assert delivered == pytest.approx(1200.0, rel=1e-9)
        assert report.resource_lcoe_usd_per_mwh["biofuel"] == pytest.approx(
            report.cost_usd["biofuel"] / delivered, rel=1e-12)

    def test_roundoff_delivery_gives_none(self):
        # Biofuel dearer than existing gas delivers nothing. A point with
        # 1e-20 MWh/h put back on its columns still meets every row, and
        # its delivery, 2.4e-19 MWh against 2,400 MWh of net demand, is
        # none, although it costs.
        net = one_node(gas_existing_mw=400.0, biofuel_mw=50.0,
                       biofuel_daily_mwh=1200.0)
        series = series_for(net, T24, d_elec=100.0)
        config = ScenarioConfig(mode="lcp+hve", lcp=0.0, p_heat=0.0,
                                p_veh=0.0)
        inp, lp, sol = scenario(config, net, series,
                                costs_for(c_bio={"n": 1000.0}), PARAMS_24)
        assert summarize(inp, lp, sol).resource_lcoe_usd_per_mwh[
            "biofuel"] is None
        x = sol.x.copy()
        x[[j for j, name in enumerate(lp.col_names)
           if name.startswith("biofuel[")]] = 1e-20
        assert solver._judge(lp, x).max_violation <= sol.max_violation
        report = summarize(inp, lp, dataclasses.replace(sol, x=x))
        assert report.generation_avg_gwh_per_hour["biofuel"] > 0.0
        assert report.cost_usd["biofuel"] > 0.0
        assert report.resource_lcoe_usd_per_mwh["biofuel"] is None


class TestOperationsWriter:
    def test_matches_per_line_rendering(self, shipped, tmp_path,
                                        monkeypatch):
        # 0.0 and -0.0 are equal but print apart, so the writer's one
        # text per value must be one text per bit pattern.
        inp, lp, sol = shipped
        hourly_series = reporting._hourly_series

        def signed_zeros(inp, x):
            table = hourly_series(inp, x)
            load = table[inp.node_ids[0]]["load"].copy()
            load[:2] = (0.0, -0.0)
            table[inp.node_ids[0]]["load"] = load
            return table

        monkeypatch.setattr(reporting, "_hourly_series", signed_zeros)
        path = tmp_path / "operations.csv"
        write_operations_csv(path, inp, lp, sol)
        text = path.read_bytes().decode("utf-8")
        assert ",load,0.0\n" in text and ",load,-0.0\n" in text
        assert text == operations_csv_oracle(inp, lp, sol)

    def test_chunk_ends_mid_node_write_the_same_bytes(self, shipped,
                                                      tmp_path, monkeypatch):
        inp, lp, sol = shipped
        whole, chunked = tmp_path / "whole.csv", tmp_path / "chunked.csv"
        write_operations_csv(whole, inp, lp, sol)
        monkeypatch.setattr(solver, "_LINES_CHUNK", 7)
        write_operations_csv(chunked, inp, lp, sol)
        assert chunked.read_bytes() == whole.read_bytes()


@pytest.fixture(scope="module")
def surplus():
    return surplus_scenario()


class TestCurtailmentAttributionByHour:
    def test_hourly_attribution_matches_scalar_rule(self, surplus):
        inp, lp, sol = surplus
        curtail = summarize(inp, lp, sol).curtailment
        series = inp.series
        by_bucket = dict.fromkeys(curtail.by_bucket_mwh, 0.0)
        idle_surplus = shared_surplus = False
        for node in inp.network.nodes:
            n = node.id
            pots = {
                "onshore": node.onshore_existing_mw * series.w_on[n],
                "offshore": node.offshore_existing_mw * series.w_off[n],
                "us-solar": node.us_solar_existing_mw * series.w_us_solar[n],
                "btm-solar": inp.demand.x_btm_mw[n] * series.w_btm_solar[n],
            }
            slack = balance_slack(lp, sol, n)
            shares = attribute_curtailment(np.maximum(slack, 0.0), pots)
            for t in range(T24):
                hour = attribute_curtailment(
                    max(float(slack[t]), 0.0),
                    {b: float(p[t]) for b, p in pots.items()})
                assert {b: float(v[t]) for b, v in shares.items()} == hour
                for bucket, value in hour.items():
                    by_bucket[bucket] += value
                idle = sum(pots.values())[t] == 0.0
                idle_surplus |= idle and hour["other"] > 1.0
                shared_surplus |= hour["onshore"] > 1.0 \
                    and hour["us-solar"] > 1.0
        assert idle_surplus and shared_surplus
        assert set(by_bucket) == {*pots, "other"}
        for bucket, value in by_bucket.items():
            assert curtail.by_bucket_mwh[bucket] == pytest.approx(
                value, rel=1e-12, abs=1e-9)
        assert curtail.total_mwh == pytest.approx(sum(by_bucket.values()),
                                                  rel=1e-12)

    def test_negative_slack_curtails_nothing(self, surplus, tmp_path):
        # Node a curtails at hour 0; a slack of -1 there must count as no
        # curtailment at all, exactly as a slack of 0 does.
        inp, lp, sol = surplus
        row = lp.row_names.index("balance[a,0]")
        assert sol.slacks[row] > 1.0
        poked = {}
        for value in (-1.0, 0.0):
            slacks = sol.slacks.copy()
            slacks[row] = value
            poked[value] = dataclasses.replace(sol, slacks=slacks)
        curtail = summarize(inp, lp, poked[-1.0]).curtailment
        assert curtail == summarize(inp, lp, poked[0.0]).curtailment
        assert curtail.total_mwh < summarize(inp, lp, sol).curtailment \
            .total_mwh - 1.0
        path = tmp_path / "operations.csv"
        write_operations_csv(path, inp, lp, poked[-1.0])
        assert "\na,0,curtailment,0.0\n" in path.read_text(encoding="utf-8")


class TestSerialization:
    def test_csv_three_scenarios_stable_columns(self, tmp_path):
        reports = [solar_gas_scenario(lcp=v, label=f"lcp{v}")[3]
                   for v in (0.2, 0.3, 0.4)]
        path = tmp_path / "report.csv"
        write_report_csv(path, reports)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert tuple(header) == CSV_COLUMNS
        assert len(rows) == 3
        assert [r[0] for r in rows] == ["lcp0.2", "lcp0.3", "lcp0.4"]
        # objective cost must be nondecreasing in the share target
        costs = [float(r[header.index("total_cost_usd")]) for r in rows]
        assert costs == sorted(costs)

    def test_csv_rewrite_is_byte_identical(self, tmp_path):
        report = solar_gas_scenario()[3]
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        write_report_csv(p1, [report])
        write_report_csv(p2, [report])
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_accepts_prerendered_failure_rows(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(path, [{"label": "bad-cell", "status": "infeasible"}])
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["label"] == "bad-cell"
        assert rows[0]["status"] == "infeasible"
        assert rows[0]["lcoe_usd_per_mwh"] == ""

    def test_json_round_trip(self, two_node):
        inp, lp, sol, report = two_node
        record = report_json_dict(report)
        text = json.dumps(record, sort_keys=True)
        back = json.loads(text)
        assert back["label"] == "pair"
        assert back["lcoe_usd_per_mwh"] == pytest.approx(
            report.lcoe_usd_per_mwh)
        assert back == record
        assert back["curtailment"]["total_mwh"] == \
            report.curtailment.total_mwh
        assert set(back["curtailment"]["by_bucket_mwh"]) == {
            "onshore", "offshore", "us-solar", "btm-solar", "other"}
        assert set(back["excess"]) == {"total_mwh", "potential_mwh",
                                       "percent"}
        assert not any_list(back)
        assert back["ghg_change_percent"] is None
        assert isinstance(back["cost_usd"]["fossil-existing"], float)

    def test_json_reports_undefined_lcoe_as_null(self):
        inp, lp, sol = idle_battery_scenario()
        record = report_json_dict(summarize(inp, lp, sol, label="idle"))
        assert record["resource_lcoe_usd_per_mwh"]["battery"] is None


# --------------------------------------------------------------------------
# one home per quantity: report.json holds totals, operations.csv the hours


SCENARIO = json.loads((FIXTURE / "scenario.json").read_text(encoding="utf-8"))

# the fixture runs of tools/artifact_digests.py
FIXTURE_MODES = {
    "lcp+hve": SCENARIO,
    "lcp+hve-rgt0.3": {**SCENARIO, "rgt": 0.3},
    "ghg+hve": {**{k: v for k, v in SCENARIO.items() if k != "lcp"},
                "mode": "ghg+hve", "omega": 0.3},
    "ghg+lcp": {**{k: v for k, v in SCENARIO.items()
                   if k not in ("p_heat", "p_veh")},
                "mode": "ghg+lcp", "omega": 0.3},
}

BUCKETS = ("onshore", "offshore", "us-solar", "btm-solar")
LOW_CARBON = (*BUCKETS, "hydro-fixed", "hydro-flex", "nuclear")


def totals_from_operations(ops) -> tuple[float, dict[str, float], float]:
    """(curtailment total, its split by bucket, excess low-carbon total),
    recomputed from the rows of ``operations.csv`` alone."""
    zero = np.zeros(len(next(iter(ops.values()))["load"]))
    total, split, net = 0.0, dict.fromkeys((*BUCKETS, "other"), 0.0), zero
    for series in ops.values():
        total += float(series["curtailment"].sum())
        shares = attribute_curtailment(
            series["curtailment"], {b: series.get(b, zero) for b in BUCKETS})
        for bucket, values in shares.items():
            split[bucket] += float(values.sum())
        net = net + sum(series.get(r, zero) for r in LOW_CARBON) \
            - series["load"]
    return total, split, float(np.maximum(net, 0.0).sum())


@pytest.mark.parametrize("case", [*FIXTURE_MODES, "fixture-96h", "solar_gas",
                                  "surplus"])
def test_operations_csv_recomputes_the_report_totals(case, request,
                                                     tmp_path):
    curtails = case in ("solar_gas", "surplus")
    if curtails:
        inp, lp, sol = request.getfixturevalue(case)[:3]
        (tmp_path / "report.json").write_text(json.dumps(report_json_dict(
            summarize(inp, lp, sol))), encoding="utf-8")
        write_operations_csv(tmp_path / "operations.csv", inp, lp, sol)
    else:
        bundle = tiled_fixture(2 if case == "fixture-96h" else 1)
        result = run_scenario(bundle, load_config(FIXTURE_MODES.get(
            case, SCENARIO)), out_dir=tmp_path)
        assert result.status == "optimal", result.message
    report = json.loads((tmp_path / "report.json").read_text(
        encoding="utf-8"))
    total, split, excess = totals_from_operations(
        read_operations(tmp_path / "operations.csv"))

    def close(got, want):
        return abs(got - want) <= 1e-9 * max(1.0, abs(want))

    curtailment = report["curtailment"]
    assert close(total, curtailment["total_mwh"])
    assert split.keys() == curtailment["by_bucket_mwh"].keys()
    for bucket, value in split.items():
        assert close(value, curtailment["by_bucket_mwh"][bucket]), bucket
    assert close(excess, report["excess"]["total_mwh"])
    assert not any_list(report)
    assert total > 1.0 or not curtails
