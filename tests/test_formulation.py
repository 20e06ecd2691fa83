"""Tests for the LP assembly: variable catalog, constraint rows, bounds,
policy rows, objective coefficients, and whole-instance invariants.

Expected values are either hand-enumerated (counts, names), derived from
one-line arithmetic in the test body, or cross-checked against the emissions
module so the policy row and the reporting ledger can never drift apart.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from gridplan.emissions import (
    EmissionsCalibration,
    electricity_emissions,
    sector_emissions,
)
from gridplan.demand import synthesize_demand
from gridplan.formulation import (EQ, GE, LE, Block, LPBuilder, LPError,
                                  LPInstance, VariableCatalog)
from gridplan.model import (
    CostTable,
    EVFlexConfig,
    InterfaceSpec,
    NetworkSpec,
    NodeSpec,
    ScenarioConfig,
    TechParams,
    TimeSeriesSet,
    annualization_rate,
)
from gridplan.resources import build_hydro_profile
from gridplan.runner import load_bundle, save_bundle
from gridplan.solver import SolveOptions, solve

from helpers import (build_lp, tiny_costs, tiny_network, tiny_params,
                     tiny_series)

# --------------------------------------------------------------------------
# local fixtures


def mini_network(interfaces=(), offshore_total=0.0, **node_kw) -> NetworkSpec:
    node = NodeSpec(id="n", **node_kw)
    return NetworkSpec(nodes=[node], interfaces=interfaces,
                       offshore_cap_total_mw=offshore_total)


def _series_map(node_ids, t, value):
    out = {}
    for nid in node_ids:
        arr = np.asarray(value[nid] if isinstance(value, dict) else value,
                         dtype=float)
        if arr.ndim == 0:
            arr = np.full(t, float(arr))
        out[nid] = arr
    return out


def mini_series(net: NetworkSpec, t: int, **kw) -> TimeSeriesSet:
    ids = net.node_ids
    fields = dict(
        d_elec=0.0, d_heat_full=0.0, d_veh_full=0.0, w_on=0.0, w_off=0.0,
        w_us_solar=0.0, w_btm_solar=0.0, h_fix=0.0, nuclear=0.0,
    )
    fields.update(kw)
    daily = {}
    for name in ("e_veh_daily_full", "h_flex_daily"):
        if name in fields:
            daily[name] = _series_map(ids, max(t // 24, 1), fields.pop(name))
    return TimeSeriesSet(
        **{k: _series_map(ids, t, v) for k, v in fields.items()}, **daily
    )


def mini_costs(node_ids=("n",), **kw) -> CostTable:
    per_node = {n: 0.0 for n in node_ids}
    base = dict(
        cap_ff={n: 772.0 for n in node_ids},
        omf_ff={n: 6.97 for n in node_ids},
        omv_ff=4.48,
        c_ff={n: 3.5 for n in node_ids},
        c_hydro=dict(per_node, **{n: 18.47 for n in node_ids}),
        c_nuc={n: 26.82 for n in node_ids},
        c_bio={n: 24.0 for n in node_ids},
        c_imp={n: 22.13 for n in node_ids},
        ex_cap={n: 0.0 for n in node_ids},
        ex_tx={n: 0.0 for n in node_ids},
    )
    base.update(kw)
    return CostTable(**base)


def fixed_config(lcp=0.0, p_heat=0.0, p_veh=0.0, **kw) -> ScenarioConfig:
    return ScenarioConfig(mode="lcp+hve", lcp=lcp, p_heat=p_heat,
                          p_veh=p_veh, **kw)


def tiny_calibration() -> EmissionsCalibration:
    return EmissionsCalibration(
        theta_ff_t_per_mwh=0.396648,
        theta_imp_t_per_mwh=0.23,
        theta_heat_t_per_mj=1.1e-4,
        theta_veh_t_per_mj=8.1e-5,
        f_heat_tot_mj={"a": 2.0e11, "b": 3.0e11},
        f_veh_tot_mj={"a": 1.5e11, "b": 2.5e11},
    )


def build_tiny(config=None, *, params=None, series=None, net=None,
               costs=None, emissions=None):
    net = net or tiny_network()
    series = series if series is not None else tiny_series(net)
    costs = costs or tiny_costs(net)
    params = params or tiny_params()
    config = config or fixed_config(lcp=0.6, p_heat=0.3, p_veh=0.2)
    demand = synthesize_demand(net, series, config, params)
    return build_lp(config, net, series, costs, params, demand,
                    emissions=emissions)


def row_by_name(lp, name):
    for row in lp.rows:
        if row.name == name:
            return row
    raise AssertionError(f"no row named {name}")


def named_coeffs(lp, row) -> dict[str, float]:
    return {lp.col_names[i]: v for i, v in zip(row.idx, row.val)}


def solve_ok(lp, **opt_kw):
    sol = solve(lp, SolveOptions(**opt_kw) if opt_kw else None)
    assert sol.status == "optimal", sol.message
    return sol


def col_value(lp, sol, name) -> float:
    return float(sol.x[lp.column_index(name)])


# --------------------------------------------------------------------------
# gas-only single node, used across several groups


def gas_only(t=24, demand=5.0, existing=1200.0, lcp=0.0, **params_kw):
    net = mini_network(gas_existing_mw=existing)
    series = mini_series(net, t, d_elec=demand)
    costs = mini_costs()
    params = TechParams(n_years=t / 8760.0, **params_kw)
    config = fixed_config(lcp=lcp)
    demand_b = synthesize_demand(net, series, config, params)
    lp, cat = build_lp(config, net, series, costs, params, demand_b)
    return lp, cat, (net, series, costs, params, config)


class TestCatalog:
    def test_minimal_gas_hand_count(self):
        lp, cat, _ = gas_only()
        expected = ["cap_fossil[n]"]
        expected += [f"fossil_ex[n,{t}]" for t in range(24)]
        expected += [f"fossil_new[n,{t}]" for t in range(24)]
        expected += [f"ramp_ex[n,{t}]" for t in range(24)]
        expected += [f"ramp_new[n,{t}]" for t in range(24)]
        assert list(cat.names) == expected
        assert lp.n_cols == 97
        assert list(lp.col_names) == expected

    def test_catalog_full_enumeration_tiny(self):
        lp, cat = build_tiny()
        t48 = range(48)
        expected = []
        for fam in ("batt_charge", "batt_discharge", "batt_soc", "biofuel"):
            expected += [f"{fam}[{n},{t}]" for n in "ab" for t in t48]
        for fam in ("cap_battery_energy", "cap_battery_power", "cap_fossil"):
            expected += [f"{fam}[a]", f"{fam}[b]"]
        expected += ["cap_offshore[b]", "cap_onshore[a]", "cap_onshore[b]",
                     "cap_tx[a:b]", "cap_us_solar[a]", "cap_us_solar[b]"]
        expected += [f"flow[a>b,{t}]" for t in t48]
        expected += [f"flow[b>a,{t}]" for t in t48]
        for fam in ("fossil_ex", "fossil_new"):
            expected += [f"{fam}[{n},{t}]" for n in "ab" for t in t48]
        expected += [f"hydro_flex[a,{t}]" for t in t48]
        expected += [f"imports[a,{t}]" for t in t48]
        for fam in ("ramp_ex", "ramp_new"):
            expected += [f"{fam}[{n},{t}]" for n in "ab" for t in t48]
        assert list(cat.names) == expected
        assert lp.n_cols == 972

    def test_index_is_bijective(self):
        lp, cat = build_tiny()
        assert len(set(cat.names)) == len(cat.names)
        assert lp.col_names is cat.names
        for i, name in enumerate(cat.names):
            assert lp.column_index(name) == i

    def test_include_h2_toggle(self):
        lp_off, cat_off = build_tiny()
        lp_on, cat_on = build_tiny(
            fixed_config(lcp=0.6, p_heat=0.3, p_veh=0.2, include_h2=True))
        h2_cols = [n for n in cat_on.names
                   if n.startswith(("h2_", "cap_h2_"))]
        # 3 hourly families x 2 nodes x 48 h + 2 capacity vars x 2 nodes
        assert len(h2_cols) == 3 * 2 * 48 + 4
        assert lp_on.n_cols == lp_off.n_cols + len(h2_cols)
        assert not [n for n in cat_off.names if n.startswith(("h2_", "cap_h2_"))]
        h2_rows = [r for r in lp_on.rows if r.tag.startswith("h2-")]
        assert len(h2_rows) == 2 * 48 * 4  # state + energy cap + 2 power caps
        assert not [r for r in lp_off.rows if r.tag.startswith("h2-")]

    def test_free_rate_columns_only_in_free_mode(self):
        _, cat_fixed = build_tiny()
        config = ScenarioConfig(mode="ghg+lcp", omega=0.2, lcp=0.3)
        _, cat_free = build_tiny(config, emissions=tiny_calibration())
        assert "rate_heat" not in cat_fixed.names
        assert "rate_heat" in cat_free.names
        assert "rate_veh" in cat_free.names


class TestEnergyBalance:
    def test_row_count_one_per_node_hour(self):
        lp, _ = build_tiny()
        balance = [r for r in lp.rows if r.tag == "balance"]
        assert len(balance) == 96
        assert balance[0].name == "balance[a,0]"
        assert all(r.sense == GE for r in balance)

    def test_isolated_node_meets_demand_with_gas(self):
        lp, cat, _ = gas_only(t=24, demand=5.0)
        sol = solve_ok(lp)
        for t in range(24):
            assert col_value(lp, sol, f"fossil_ex[n,{t}]") == pytest.approx(5.0)
        for i, row in enumerate(lp.rows):
            if row.tag == "balance":
                assert abs(sol.slacks[i]) <= 1e-7

    def test_surplus_potential_shows_up_as_slack(self):
        net = mini_network(gas_existing_mw=1.0, onshore_existing_mw=10.0)
        series = mini_series(net, 24, d_elec=2.0, w_on=0.5)
        config = fixed_config()
        params = TechParams(n_years=24 / 8760.0)
        demand_b = synthesize_demand(net, series, config, params)
        lp, cat = build_lp(config, net, series, mini_costs(), params, demand_b)
        sol = solve_ok(lp)
        for i, row in enumerate(lp.rows):
            if row.tag == "balance":
                assert sol.slacks[i] == pytest.approx(3.0, abs=1e-7)

    def test_balance_coefficients_fixed_p(self):
        net, t = tiny_network(), 7
        series = tiny_series(net)
        config = fixed_config(lcp=0.6, p_heat=0.3, p_veh=0.2)
        params = tiny_params()
        lp, cat = build_tiny(config)
        row = row_by_name(lp, f"balance[a,{t}]")
        coeffs = named_coeffs(lp, row)
        assert coeffs[f"fossil_ex[a,{t}]"] == 1.0
        assert coeffs[f"fossil_new[a,{t}]"] == 1.0
        assert coeffs[f"hydro_flex[a,{t}]"] == 1.0
        assert coeffs[f"biofuel[a,{t}]"] == 1.0
        assert coeffs[f"imports[a,{t}]"] == 1.0
        assert coeffs[f"batt_discharge[a,{t}]"] == 1.0
        assert coeffs[f"batt_charge[a,{t}]"] == -1.0
        assert coeffs[f"flow[b>a,{t}]"] == pytest.approx(1.0 - params.tx_loss)
        assert coeffs[f"flow[a>b,{t}]"] == -1.0
        assert coeffs["cap_onshore[a]"] == pytest.approx(series.w_on["a"][t])
        assert "cap_offshore[a]" not in coeffs
        node = net.node("a")
        expected_rhs = (
            series.d_elec["a"][t]
            + 0.3 * series.d_heat_full["a"][t]
            + 0.2 * series.d_veh_full["a"][t]
            - series.h_fix["a"][t]
            - series.nuclear["a"][t]
            - series.w_btm_solar["a"][t] * node.btm_solar_existing_mw
            - series.w_on["a"][t] * node.onshore_existing_mw
            - series.w_off["a"][t] * node.offshore_existing_mw
            - series.w_us_solar["a"][t] * node.us_solar_existing_mw
        )
        assert row.rhs == pytest.approx(expected_rhs, rel=1e-12)

    def test_balance_free_p_carries_rate_columns(self):
        net, t = tiny_network(), 30
        series = tiny_series(net)
        config = ScenarioConfig(mode="ghg+lcp", omega=0.2, lcp=0.3)
        lp, cat = build_tiny(config, emissions=tiny_calibration())
        row = row_by_name(lp, f"balance[b,{t}]")
        coeffs = named_coeffs(lp, row)
        assert coeffs["rate_heat"] == pytest.approx(-series.d_heat_full["b"][t])
        assert coeffs["rate_veh"] == pytest.approx(-series.d_veh_full["b"][t])
        node = net.node("b")
        expected_rhs = (
            series.d_elec["b"][t]
            - series.h_fix["b"][t]
            - series.nuclear["b"][t]
            - series.w_btm_solar["b"][t] * node.btm_solar_existing_mw
            - series.w_us_solar["b"][t] * node.us_solar_existing_mw
            - series.w_off["b"][t] * node.offshore_existing_mw
        )
        assert row.rhs == pytest.approx(expected_rhs, rel=1e-12)

    def test_exclude_nuclear_drops_constant(self):
        lp_with, _ = build_tiny()
        lp_without, _ = build_tiny(
            fixed_config(lcp=0.6, p_heat=0.3, p_veh=0.2,
                         include_nuclear=False))
        r_with = row_by_name(lp_with, "balance[b,3]")
        r_without = row_by_name(lp_without, "balance[b,3]")
        assert r_without.rhs - r_with.rhs == pytest.approx(550.0)

    def test_missing_series_is_an_error(self):
        net = tiny_network()
        series = tiny_series(net)
        broken = TimeSeriesSet(
            d_elec=series.d_elec,
            d_heat_full=series.d_heat_full,
            d_veh_full=series.d_veh_full,
            w_on={"a": series.w_on["a"]},  # node b missing
            w_off=series.w_off,
            w_us_solar=series.w_us_solar,
            w_btm_solar=series.w_btm_solar,
            h_fix=series.h_fix,
            nuclear=series.nuclear,
            h_flex_daily=series.h_flex_daily,
        )
        with pytest.raises(LPError, match="w_on.*b"):
            build_tiny(series=broken)


class TestFossil:
    def test_existing_reserve_encoded_as_bound(self):
        lp, cat, ctx = gas_only(existing=11.89)
        col = lp.column_index("fossil_ex[n,0]")
        assert lp.upper[col] == pytest.approx(11.89 / 1.189)
        sol = solve_ok(gas_only(existing=11.89, demand=10.0)[0])
        assert sol.x.max() <= 10.0 + 1e-7

    def test_reserve_new_row_shape(self):
        lp, cat, _ = gas_only()
        row = row_by_name(lp, "reserve_new[n,5]")
        assert row.sense == LE and row.rhs == 0.0
        coeffs = named_coeffs(lp, row)
        assert coeffs == {
            "fossil_new[n,5]": pytest.approx(1.189),
            "cap_fossil[n]": -1.0,
        }

    def test_constant_dispatch_zero_ramp(self):
        lp, cat, _ = gas_only(demand=7.0)
        sol = solve_ok(lp)
        for t in range(24):
            assert col_value(lp, sol, f"ramp_ex[n,{t}]") == pytest.approx(0.0, abs=1e-9)

    def test_zigzag_ramp_cost_632(self):
        net = mini_network(gas_existing_mw=20.0)
        series = mini_series(net, 3, d_elec=np.array([0.0, 4.0, 0.0]))
        # Fuel above the ramp price and no new-build option, so tracking
        # the demand spike beats padding output flat or building around it.
        costs = mini_costs(c_existing_ramp=79.0, c_ff={"n": 15.0}, cap_ff={})
        params = TechParams(n_years=3 / 8760.0)
        config = fixed_config()
        demand_b = synthesize_demand(net, series, config, params)
        lp, cat = build_lp(config, net, series, costs, params, demand_b)
        sol = solve_ok(lp)
        ramp_total = sum(col_value(lp, sol, f"ramp_ex[n,{t}]") for t in range(3))
        assert ramp_total == pytest.approx(8.0, abs=1e-7)
        assert 79.0 * ramp_total == pytest.approx(632.0, abs=1e-5)

    def test_ramp_rows_wrap_to_last_hour(self):
        lp, cat, _ = gas_only()
        coeffs = named_coeffs(lp, row_by_name(lp, "ramp_up_ex[n,0]"))
        assert coeffs == {
            "fossil_ex[n,0]": 1.0,
            "fossil_ex[n,23]": -1.0,
            "ramp_ex[n,0]": -1.0,
        }
        coeffs_dn = named_coeffs(lp, row_by_name(lp, "ramp_dn_ex[n,0]"))
        assert coeffs_dn["fossil_ex[n,23]"] == 1.0
        assert coeffs_dn["fossil_ex[n,0]"] == -1.0

    def test_negative_reserve_margin_rejected(self):
        with pytest.raises((LPError, ValueError), match="reserve"):
            gas_only(reserve_margin=-0.1)


class TestResourceCaps:
    def test_onshore_new_capacity_headroom(self):
        net = mini_network(gas_existing_mw=5.0, onshore_existing_mw=1985.25,
                           onshore_max_mw=32402.0)
        series = mini_series(net, 24, d_elec=1.0)
        costs = mini_costs(cap_on={"n": 1700.0}, omf_on={"n": 18.1})
        params = TechParams(n_years=24 / 8760.0)
        config = fixed_config()
        demand_b = synthesize_demand(net, series, config, params)
        lp, cat = build_lp(config, net, series, costs, params, demand_b)
        assert lp.upper[lp.column_index("cap_onshore[n]")] == pytest.approx(30416.75)

    def test_max_zero_pins_new_build_to_zero(self):
        net = mini_network(gas_existing_mw=5.0, onshore_max_mw=0.0)
        series = mini_series(net, 24, d_elec=1.0)
        costs = mini_costs(cap_on={"n": 1700.0}, omf_on={"n": 18.1})
        params = TechParams(n_years=24 / 8760.0)
        demand_b = synthesize_demand(net, series, fixed_config(), params)
        lp, cat = build_lp(fixed_config(), net, series, costs, params, demand_b)
        assert lp.upper[lp.column_index("cap_onshore[n]")] == 0.0

    def test_us_solar_headroom_tiny(self):
        lp, cat = build_tiny()
        assert lp.upper[lp.column_index("cap_us_solar[a]")] == pytest.approx(1480.0)
        assert lp.upper[lp.column_index("cap_us_solar[b]")] == pytest.approx(2450.0)

    def test_offshore_single_regional_row(self):
        lp, cat = build_tiny()
        rows = [r for r in lp.rows if r.tag == "resource-offshore"]
        assert len(rows) == 1
        assert rows[0].sense == LE and rows[0].rhs == pytest.approx(4000.0)
        assert named_coeffs(lp, rows[0]) == {"cap_offshore[b]": 1.0}

    def test_existing_above_max_warns_and_clamps(self):
        net = mini_network(gas_existing_mw=5.0, onshore_existing_mw=500.0,
                           onshore_max_mw=400.0)
        series = mini_series(net, 24, d_elec=1.0)
        costs = mini_costs(cap_on={"n": 1700.0}, omf_on={"n": 18.1})
        params = TechParams(n_years=24 / 8760.0)
        demand_b = synthesize_demand(net, series, fixed_config(), params)
        with pytest.warns(UserWarning, match="exceeds"):
            lp, cat = build_lp(fixed_config(), net, series, costs, params, demand_b)
        assert lp.upper[lp.column_index("cap_onshore[n]")] == 0.0


def two_node_tx(fwd=800.0, rev=400.0, buildable=True, t=2, demand_b=10.0):
    nodes = [
        NodeSpec(id="a", gas_existing_mw=100.0),
        NodeSpec(id="b"),
    ]
    iface = InterfaceSpec(node_a="a", node_b="b", distance_mi=50.0,
                          existing_fwd_mw=fwd, existing_rev_mw=rev)
    net = NetworkSpec(nodes=nodes, interfaces=[iface])
    series = mini_series(net, t, d_elec={"a": 0.0, "b": demand_b})
    kw = {}
    if buildable:
        kw = dict(cap_tx={"a:b": 2400.0}, omf_tx={"a:b": 2806.0})
    costs = mini_costs(node_ids=("a", "b"), **kw)
    params = TechParams(n_years=t / 8760.0)
    config = fixed_config()
    demand = synthesize_demand(net, series, config, params)
    return build_lp(config, net, series, costs, params, demand), (net, series, costs, params)


class TestTransmission:
    def test_bounds_when_no_new_build(self):
        (lp, cat), _ = two_node_tx(buildable=False)
        assert "cap_tx[a:b]" not in cat.names
        assert lp.upper[lp.column_index("flow[a>b,0]")] == pytest.approx(800.0)
        assert lp.upper[lp.column_index("flow[b>a,0]")] == pytest.approx(400.0)
        assert not [r for r in lp.rows if r.tag == "tx-limit"]
        assert lp.audit["tx-limit"] == 4  # 2 directions x 2 hours, as bounds

    def test_rows_when_buildable(self):
        (lp, cat), _ = two_node_tx(fwd=1613.0, rev=220.0)
        fwd_row = row_by_name(lp, "tx_limit[a>b,1]")
        rev_row = row_by_name(lp, "tx_limit[b>a,1]")
        assert fwd_row.rhs == pytest.approx(1613.0)
        assert rev_row.rhs == pytest.approx(220.0)
        assert named_coeffs(lp, fwd_row) == {
            "flow[a>b,1]": 1.0, "cap_tx[a:b]": -1.0}
        assert np.isinf(lp.upper[lp.column_index("flow[a>b,1]")])

    def test_loss_algebra_ten_over_097(self):
        (lp, cat), _ = two_node_tx()
        sol = solve_ok(lp)
        for t in range(2):
            assert col_value(lp, sol, f"flow[a>b,{t}]") == pytest.approx(
                10.0 / 0.97, rel=1e-9)
            assert col_value(lp, sol, f"fossil_ex[a,{t}]") == pytest.approx(
                10.0 / 0.97, rel=1e-9)
            assert col_value(lp, sol, f"flow[b>a,{t}]") == pytest.approx(0.0, abs=1e-9)


def storage_shift_fixture(eta=1.0, kappa=0.0, demand_t1=10.0, *,
                          buildable=False, e_ex=20.0, p_ex=10.0,
                          phi=(0.25, 0.25), t=2):
    node_kw = dict(onshore_existing_mw=20.0,
                   battery_energy_existing_mwh=e_ex,
                   battery_power_existing_mw=p_ex)
    net = mini_network(gas_existing_mw=0.0, **node_kw)
    w_on = np.zeros(t)
    w_on[0] = 0.5  # 10 MWh of potential in hour 0, none later
    d = np.zeros(t)
    d[1] = demand_t1
    series = mini_series(net, t, d_elec=d, w_on=w_on)
    kw = {}
    if buildable:
        kw = dict(cap_batt_e={"n": 208.0}, cap_batt_p={"n": 300.0},
                  omf_batt_e={"n": 0.0}, omf_batt_p={"n": 8.5})
    costs = mini_costs(**kw)
    params = TechParams(eta_batt=eta, kappa=kappa, phi_batt_min=phi[0],
                        phi_batt_max=phi[1], n_years=t / 8760.0)
    config = fixed_config()
    demand = synthesize_demand(net, series, config, params)
    return build_lp(config, net, series, costs, params, demand), params


class TestStorage:
    def test_state_recursion_coefficients(self):
        lp, cat = build_tiny()
        params = tiny_params()
        row = row_by_name(lp, "batt_state[a,7]")
        assert row.sense == EQ and row.rhs == 0.0
        coeffs = named_coeffs(lp, row)
        assert coeffs["batt_discharge[a,7]"] == pytest.approx(1.0 / params.eta_batt)
        assert coeffs["batt_charge[a,7]"] == pytest.approx(-params.eta_batt)
        assert coeffs["batt_soc[a,7]"] == 1.0
        assert coeffs["batt_soc[a,6]"] == pytest.approx(-(1.0 - params.kappa))

    def test_state_recursion_wraps(self):
        lp, _ = build_tiny()
        coeffs = named_coeffs(lp, row_by_name(lp, "batt_state[a,0]"))
        assert "batt_soc[a,47]" in coeffs

    def test_lossless_round_trip(self):
        (lp, cat), _ = storage_shift_fixture(eta=1.0, kappa=0.0)
        sol = solve_ok(lp)
        assert col_value(lp, sol, "batt_charge[n,0]") == pytest.approx(10.0, abs=1e-7)
        assert col_value(lp, sol, "batt_discharge[n,1]") == pytest.approx(10.0, abs=1e-7)

    def test_two_way_efficiency(self):
        delivered = (10.0 * 0.946) * 0.946  # charge -> SOC -> discharge
        (lp, cat), _ = storage_shift_fixture(eta=0.946, demand_t1=delivered)
        sol = solve_ok(lp)
        assert col_value(lp, sol, "batt_charge[n,0]") == pytest.approx(10.0, rel=1e-7)
        assert col_value(lp, sol, "batt_soc[n,0]") == pytest.approx(9.46, rel=1e-7)
        assert col_value(lp, sol, "batt_discharge[n,1]") == pytest.approx(
            delivered, rel=1e-7)

    def test_sizing_relates_new_capacities_only(self):
        lp, _ = build_tiny()
        for node in "ab":
            lo = row_by_name(lp, f"batt_size_min[{node}]")
            hi = row_by_name(lp, f"batt_size_max[{node}]")
            assert lo.sense == GE and lo.rhs == 0.0
            assert hi.sense == LE and hi.rhs == 0.0
            assert named_coeffs(lp, lo) == {
                f"cap_battery_power[{node}]": 1.0,
                f"cap_battery_energy[{node}]": -0.25,
            }

    def test_power_10_forces_energy_40(self):
        (lp, cat), _ = storage_shift_fixture(
            eta=1.0, kappa=0.0, buildable=True, e_ex=0.0, p_ex=0.0)
        sol = solve_ok(lp)
        assert col_value(lp, sol, "cap_battery_power[n]") == pytest.approx(
            10.0, rel=1e-6)
        assert col_value(lp, sol, "cap_battery_energy[n]") == pytest.approx(
            40.0, rel=1e-6)

    def test_phi_ordering_enforced(self):
        with pytest.raises(LPError, match="phi"):
            storage_shift_fixture(buildable=True, phi=(0.5, 0.25))

    def test_cap_rows_carry_existing_on_rhs(self):
        lp, _ = build_tiny()
        erow = row_by_name(lp, "batt_energy_cap[a,3]")
        assert erow.rhs == pytest.approx(20.0)
        assert named_coeffs(lp, erow) == {
            "batt_soc[a,3]": 1.0, "cap_battery_energy[a]": -1.0}
        crow = row_by_name(lp, "batt_charge_cap[b,3]")
        drow = row_by_name(lp, "batt_discharge_cap[b,3]")
        assert crow.rhs == drow.rhs == pytest.approx(3.0)

    def test_bound_encoded_caps_when_not_buildable(self):
        (lp, cat), _ = storage_shift_fixture()
        assert lp.upper[lp.column_index("batt_soc[n,0]")] == pytest.approx(20.0)
        assert lp.upper[lp.column_index("batt_charge[n,1]")] == pytest.approx(10.0)
        assert lp.audit["battery-energy-cap"] == 2
        assert lp.audit["battery-power-cap"] == 4

    def test_wrap_conservation_at_optimum(self):
        (lp, cat), params = storage_shift_fixture(eta=0.946, kappa=0.001,
                                                  demand_t1=5.0)
        sol = solve_ok(lp)
        soc = np.array([col_value(lp, sol, f"batt_soc[n,{t}]") for t in range(2)])
        charge = np.array([col_value(lp, sol, f"batt_charge[n,{t}]") for t in range(2)])
        discharge = np.array([col_value(lp, sol, f"batt_discharge[n,{t}]")
                              for t in range(2)])
        prev = np.roll(soc, 1)
        residual = discharge / 0.946 - 0.946 * charge + soc - (1 - 0.001) * prev
        assert np.abs(residual).max() <= 1e-7


class TestDispatchables:
    def test_hydro_daily_equality_saturates(self):
        net = mini_network(gas_existing_mw=50.0, hydro_flex_mw=10.0,
                           hydro_flex_hourly_max_mwh=10.0)
        series = mini_series(net, 24, d_elec=20.0, h_flex_daily=240.0)
        params = TechParams(n_years=24 / 8760.0)
        demand_b = synthesize_demand(net, series, fixed_config(), params)
        lp, cat = build_lp(fixed_config(), net, series, mini_costs(), params, demand_b)
        sol = solve_ok(lp)
        for t in range(24):
            assert col_value(lp, sol, f"hydro_flex[n,{t}]") == pytest.approx(
                10.0, abs=1e-7)

    def test_hydro_daily_row_structure(self):
        lp, _ = build_tiny()
        row = row_by_name(lp, "hydro_daily[a,1]")
        assert row.sense == EQ and row.rhs == pytest.approx(2400.0)
        coeffs = named_coeffs(lp, row)
        assert len(coeffs) == 24
        assert all(v == 1.0 for v in coeffs.values())
        assert "hydro_flex[a,24]" in coeffs and "hydro_flex[a,47]" in coeffs

    def test_hydro_hourly_cap_is_bound(self):
        lp, cat = build_tiny()
        assert lp.upper[lp.column_index("hydro_flex[a,11]")] == pytest.approx(150.0)
        assert lp.audit["hydro-hourly"] == 48

    def test_unreachable_hydro_daily_warns(self):
        net = mini_network(gas_existing_mw=50.0, hydro_flex_mw=10.0,
                           hydro_flex_hourly_max_mwh=5.0)
        series = mini_series(net, 24, d_elec=20.0, h_flex_daily=240.0)
        params = TechParams(n_years=24 / 8760.0)
        demand_b = synthesize_demand(net, series, fixed_config(), params)
        with pytest.warns(UserWarning, match="daily"):
            build_lp(fixed_config(), net, series, mini_costs(), params, demand_b)

    def test_biofuel_daily_zero_forces_zero(self):
        net = mini_network(gas_existing_mw=50.0, biofuel_mw=5.0,
                           biofuel_daily_mwh=0.0)
        series = mini_series(net, 24, d_elec=8.0)
        costs = mini_costs(c_bio={"n": 0.5})  # cheaper than gas fuel
        params = TechParams(n_years=24 / 8760.0)
        demand_b = synthesize_demand(net, series, fixed_config(), params)
        lp, cat = build_lp(fixed_config(), net, series, costs, params, demand_b)
        sol = solve_ok(lp)
        for t in range(24):
            assert col_value(lp, sol, f"biofuel[n,{t}]") == pytest.approx(0.0, abs=1e-9)

    def test_biofuel_rows_and_bounds_tiny(self):
        lp, cat = build_tiny()
        assert lp.upper[lp.column_index("biofuel[a,0]")] == pytest.approx(40.0)
        assert lp.upper[lp.column_index("biofuel[b,0]")] == pytest.approx(30.0)
        row = row_by_name(lp, "biofuel_daily[b,0]")
        assert row.sense == LE and row.rhs == pytest.approx(450.0)
        assert len(row.idx) == 24

    def test_import_columns_only_where_limit_positive(self):
        lp, cat = build_tiny()
        assert "imports[a,0]" in cat.names
        assert "imports[b,0]" not in cat.names
        assert lp.upper[lp.column_index("imports[a,7]")] == pytest.approx(300.0)
        assert lp.audit["import-limit"] == 48

    def test_hours_not_multiple_of_24_with_daily_structures(self):
        net = mini_network(gas_existing_mw=50.0, hydro_flex_mw=10.0,
                           hydro_flex_hourly_max_mwh=10.0)
        series = mini_series(net, 36, d_elec=20.0, h_flex_daily=[120.0])
        params = TechParams(n_years=36 / 8760.0)
        demand_b = synthesize_demand(net, series, fixed_config(), params)
        with pytest.raises(LPError, match="multiple of 24"):
            build_lp(fixed_config(), net, series, mini_costs(), params, demand_b)

    def test_hydro_profile_written_into_bundle(self, tmp_path):
        # Monthly hydro reaches the LP only through the bundle's series.
        net = tiny_network()
        series = tiny_series(net)
        with pytest.warns(UserWarning, match="piecewise-constant"):
            profile = build_hydro_profile([1200.0, 1400.0], y_fix=0.5,
                                          month_days=(1, 1))
        series = dataclasses.replace(
            series,
            h_fix={**series.h_fix, "a": profile.h_fix_hourly},
            h_flex_daily={**series.h_flex_daily, "a": profile.h_flex_daily})
        save_bundle(tmp_path, net, series, tiny_costs(net), tiny_params())
        lp, cat = build_tiny(series=load_bundle(tmp_path).series)
        base_lp, _ = build_tiny()
        row = row_by_name(lp, "hydro_daily[a,1]")
        assert row.rhs == pytest.approx(700.0)
        assert lp.upper[lp.column_index("hydro_flex[a,0]")] == pytest.approx(150.0)
        for t, fixed in ((9, 25.0), (33, 700.0 / 24.0)):
            shift = row_by_name(base_lp, f"balance[a,{t}]").rhs - row_by_name(
                lp, f"balance[a,{t}]").rhs
            assert shift == pytest.approx(fixed - 250.0, rel=1e-12)


def ev_config(**kw):
    base = dict(lcp=0.6, p_heat=0.3, p_veh=0.4,
                ev_flex=EVFlexConfig(y_flex=0.6, h_start=10, h_end=20, h_min=4))
    base.update(kw)
    return fixed_config(**base)


class TestEVFlex:
    def test_window_columns_and_daily_equality(self):
        net = tiny_network()
        series = tiny_series(net)
        config = ev_config()
        params = tiny_params()
        demand_b = synthesize_demand(net, series, config, params)
        lp, cat = build_lp(config, net, series, tiny_costs(net), params, demand_b)
        ev_cols = [n for n in cat.names if n.startswith("ev_flex[a,")]
        expected_hours = [t for t in range(48) if 10 <= t % 24 <= 20]
        assert ev_cols == [f"ev_flex[a,{t}]" for t in expected_hours]

        daily_full = series.d_veh_full["a"].reshape(2, 24).sum(axis=1)
        flex = 0.4 * 0.6 * daily_full  # p_veh x y_flex
        row = row_by_name(lp, "ev_daily[a,0]")
        assert row.sense == EQ
        assert row.rhs == pytest.approx(flex[0] / params.eta_veh)
        assert len(row.idx) == 11
        cap = flex[0] / 4.0
        assert lp.upper[lp.column_index("ev_flex[a,12]")] == pytest.approx(cap)

    def test_balance_subtracts_flexible_charge(self):
        net = tiny_network()
        series = tiny_series(net)
        config = ev_config()
        params = tiny_params()
        demand_b = synthesize_demand(net, series, config, params)
        lp, cat = build_lp(config, net, series, tiny_costs(net), params, demand_b)
        coeffs = named_coeffs(lp, row_by_name(lp, "balance[a,12]"))
        assert coeffs["ev_flex[a,12]"] == -1.0
        assert "ev_flex[a,3]" not in named_coeffs(
            lp, row_by_name(lp, "balance[a,3]"))

    def test_free_p_scales_requirement_and_rate(self):
        net = tiny_network()
        series = tiny_series(net)
        config = ScenarioConfig(
            mode="ghg+lcp", omega=0.2, lcp=0.3,
            ev_flex=EVFlexConfig(y_flex=0.6, h_start=10, h_end=20, h_min=4))
        params = tiny_params()
        demand_b = synthesize_demand(net, series, config, params)
        lp, cat = build_lp(config, net, series, tiny_costs(net), params, demand_b,
                        emissions=tiny_calibration())
        daily_full = series.d_veh_full["a"].reshape(2, 24).sum(axis=1)
        flex_full = 0.6 * daily_full
        daily = row_by_name(lp, "ev_daily[a,1]")
        coeffs = named_coeffs(lp, daily)
        assert daily.rhs == 0.0
        assert coeffs["rate_veh"] == pytest.approx(-flex_full[1] / params.eta_veh)
        rate = row_by_name(lp, "ev_rate[a,34]")
        assert rate.sense == LE and rate.rhs == 0.0
        assert named_coeffs(lp, rate) == {
            "ev_flex[a,34]": 1.0,
            "rate_veh": pytest.approx(-flex_full[1] / 4.0),
        }

    def test_solution_places_required_energy(self):
        net = mini_network(gas_existing_mw=100.0)
        series = mini_series(net, 24, d_elec=10.0,
                             e_veh_daily_full=np.array([48.0]))
        # Gas is the only supply here, so the share target must stay off.
        config = ev_config(p_veh=0.5, lcp=0.0)
        params = TechParams(n_years=24 / 8760.0)
        demand_b = synthesize_demand(net, series, config, params)
        lp, cat = build_lp(config, net, series, mini_costs(), params, demand_b)
        sol = solve_ok(lp)
        window_total = sum(col_value(lp, sol, f"ev_flex[n,{t}]")
                           for t in range(10, 21))
        # flexible share p_veh*y_flex*48 = 14.4 MWh must be charged
        assert window_total == pytest.approx(14.4, abs=1e-6)


class TestPolicy:
    def test_lcp_zero_or_none_omitted(self):
        lp, _ = build_tiny(fixed_config(lcp=0.0, p_heat=0.3, p_veh=0.2))
        assert "policy-lcp" not in lp.audit
        lp_ghg, _ = build_tiny(
            ScenarioConfig(mode="ghg+hve", omega=0.2, p_heat=0.3, p_veh=0.2),
            emissions=tiny_calibration())
        assert "policy-lcp" not in lp_ghg.audit

    def test_lcp_row_coefficients_and_rhs(self):
        net = tiny_network()
        series = tiny_series(net)
        config = fixed_config(lcp=0.7, p_heat=0.3, p_veh=0.2)
        params = tiny_params()
        demand_b = synthesize_demand(net, series, config, params)
        lp, cat = build_lp(config, net, series, tiny_costs(net), params, demand_b)
        row = row_by_name(lp, "policy_lcp")
        assert row.sense == LE
        coeffs = named_coeffs(lp, row)
        assert coeffs["fossil_ex[a,0]"] == 1.0
        assert coeffs["fossil_new[b,47]"] == 1.0
        assert coeffs["biofuel[a,3]"] == 1.0
        assert coeffs["imports[a,3]"] == pytest.approx(0.3)
        assert "hydro_flex[a,3]" not in coeffs
        assert "batt_charge[a,3]" not in coeffs
        expected = 0.0
        for nid in ("a", "b"):
            node = net.node(nid)
            expected += float(
                np.sum(series.d_elec[nid])
                + 0.3 * np.sum(series.d_heat_full[nid])
                + 0.2 * np.sum(series.d_veh_full[nid])
                - np.sum(series.w_btm_solar[nid]) * node.btm_solar_existing_mw
            )
        assert row.rhs == pytest.approx(0.3 * expected, rel=1e-12)

    def test_lcp_one_forces_fossil_and_biofuel_to_zero(self):
        net = mini_network(gas_existing_mw=100.0, biofuel_mw=10.0,
                           biofuel_daily_mwh=240.0, onshore_max_mw=1000.0)
        series = mini_series(net, 24, d_elec=50.0, w_on=0.5)
        costs = mini_costs(cap_on={"n": 1700.0}, omf_on={"n": 18.1})
        params = TechParams(n_years=24 / 8760.0)
        config = fixed_config(lcp=1.0)
        demand_b = synthesize_demand(net, series, config, params)
        lp, cat = build_lp(config, net, series, costs, params, demand_b)
        sol = solve_ok(lp)
        dirty = sum(
            col_value(lp, sol, f"{fam}[n,{t}]")
            for fam in ("fossil_ex", "fossil_new", "biofuel")
            for t in range(24)
        )
        assert dirty == pytest.approx(0.0, abs=1e-6)
        assert col_value(lp, sol, "cap_onshore[n]") == pytest.approx(100.0, rel=1e-6)

    def test_ghg_rhs_fixed_p(self):
        cal = tiny_calibration()
        config = ScenarioConfig(mode="ghg+hve", omega=0.4, p_heat=0.3, p_veh=0.2)
        lp, _ = build_tiny(config, emissions=cal)
        row = row_by_name(lp, "policy_ghg")
        eps_heat, eps_veh, _ = sector_emissions(
            0.3, 0.2,
            theta_heat_t_per_mj=cal.theta_heat_t_per_mj,
            theta_veh_t_per_mj=cal.theta_veh_t_per_mj,
            f_heat_tot_mj=cal.f_heat_tot_mj,
            f_veh_tot_mj=cal.f_veh_tot_mj,
            eps_transp_other_mmt=cal.eps_transp_other_mmt,
        )
        expected = (0.6 * 302.770 - eps_heat - eps_veh
                    - cal.eps_transp_other_mmt - cal.eps_industrial_mmt)
        assert row.sense == LE
        assert row.rhs == pytest.approx(expected, rel=1e-12)

    def test_ghg_row_matches_emissions_module(self):
        cal = tiny_calibration()
        config = ScenarioConfig(mode="ghg+hve", omega=0.4, p_heat=0.3, p_veh=0.2)
        lp, cat = build_tiny(config, emissions=cal)
        params = tiny_params()
        row = row_by_name(lp, "policy_ghg")
        x = np.zeros(lp.n_cols)
        x[lp.column_index("fossil_ex[a,0]")] = 7.0
        x[lp.column_index("fossil_new[b,3]")] = 11.0
        x[lp.column_index("imports[a,5]")] = 13.0
        expected = electricity_emissions(
            7.0, 11.0, 13.0,
            eta_existing=params.eta_ff_existing,
            eta_new=params.eta_ff_new,
            theta_ff_t_per_mwh=cal.theta_ff_t_per_mwh,
            theta_imp_t_per_mwh=cal.theta_imp_t_per_mwh,
            n_years=params.n_years,
        )
        assert row.activity(x) == pytest.approx(expected, rel=1e-9)

    def test_ghg_free_p_columns(self):
        cal = tiny_calibration()
        config = ScenarioConfig(mode="ghg+lcp", omega=0.2, lcp=0.3)
        lp, _ = build_tiny(config, emissions=cal)
        k_heat, k_veh = cal.sector_constants(0.0, 0.0)
        row = row_by_name(lp, "policy_ghg")
        coeffs = named_coeffs(lp, row)
        assert coeffs["rate_heat"] == pytest.approx(-k_heat, rel=1e-12)
        assert coeffs["rate_veh"] == pytest.approx(-k_veh, rel=1e-12)
        expected_rhs = (0.8 * 302.770 - k_heat - k_veh
                        - cal.eps_transp_other_mmt - cal.eps_industrial_mmt)
        assert row.rhs == pytest.approx(expected_rhs, rel=1e-12)

    def test_omega_without_calibration_fails(self):
        config = ScenarioConfig(mode="ghg+hve", omega=0.4, p_heat=0.3, p_veh=0.2)
        with pytest.raises(LPError, match="calibration"):
            build_tiny(config)

    def test_rgt_row_and_domination_warning(self):
        net = tiny_network()
        series = tiny_series(net)
        config = fixed_config(lcp=0.5, p_heat=0.3, p_veh=0.2, rgt=0.8)
        params = tiny_params()
        demand_b = synthesize_demand(net, series, config, params)
        with pytest.warns(UserWarning, match="dominates"):
            lp, cat = build_lp(config, net, series, tiny_costs(net), params, demand_b)
        lcp_row = row_by_name(lp, "policy_lcp")
        rgt_row = row_by_name(lp, "policy_rgt")
        nuclear_total = float(sum(np.sum(series.nuclear[n]) for n in "ab"))
        # same demand-side accounting, tighter fraction, nuclear moved across
        lcp_base = lcp_row.rhs / (1.0 - 0.5)
        assert rgt_row.rhs == pytest.approx(
            (1.0 - 0.8) * lcp_base - nuclear_total, rel=1e-12)
        assert named_coeffs(lp, rgt_row)["imports[a,0]"] == pytest.approx(0.2)

    def test_calibration_validation(self):
        with pytest.raises(ValueError, match="theta"):
            EmissionsCalibration(
                theta_ff_t_per_mwh=-0.1, theta_imp_t_per_mwh=0.0,
                theta_heat_t_per_mj=0.0, theta_veh_t_per_mj=0.0,
                f_heat_tot_mj={}, f_veh_tot_mj={})
        cal = tiny_calibration()
        heat0, veh0 = cal.sector_constants(1.0, 1.0)
        assert heat0 == veh0 == 0.0


class TestObjective:
    def test_all_zero_vector_equals_offset(self):
        net = tiny_network()
        series = tiny_series(net)
        costs = tiny_costs(net)
        params = tiny_params()
        lp, _ = build_tiny()
        expected = 0.0
        for nid in ("a", "b"):
            node = net.node(nid)
            expected += params.n_years * (
                costs.ex_cap[nid] * 1000.0 * (
                    node.hydro_fixed_mw + node.hydro_flex_mw
                    + node.nuclear_mw + node.gas_existing_mw
                    + node.biofuel_mw)
                + costs.ex_tx[nid] * node.existing_tx_flow_mwh
            )
            expected += float(
                np.sum(series.h_fix[nid]) * costs.c_hydro[nid]
                + np.sum(series.nuclear[nid]) * costs.c_nuc[nid]
            )
        assert lp.offset == pytest.approx(expected, rel=1e-12)
        assert lp.objective_value(np.zeros(lp.n_cols)) == pytest.approx(
            expected, rel=1e-12)

    def test_new_fossil_marginal_cost(self):
        net = mini_network(gas_existing_mw=5.0)
        series = mini_series(net, 24, d_elec=1.0)
        costs = mini_costs(c_ff={"n": 3.0})
        params = TechParams(n_years=24 / 8760.0)
        demand_b = synthesize_demand(net, series, fixed_config(), params)
        lp, cat = build_lp(fixed_config(), net, series, costs, params, demand_b)
        coeff = lp.objective[lp.column_index("fossil_new[n,0]")]
        assert coeff == pytest.approx(3.412 * 3.0 / 0.344 + 4.48, rel=1e-12)
        coeff_ex = lp.objective[lp.column_index("fossil_ex[n,0]")]
        assert coeff_ex == pytest.approx(3.412 * 3.0 / 0.428, rel=1e-12)

    def test_offshore_annualized_capital(self):
        net = tiny_network()
        costs = tiny_costs(net)
        params = TechParams(n_years=1.0)
        series = tiny_series(net)
        config = fixed_config(lcp=0.6, p_heat=0.3, p_veh=0.2)
        demand_b = synthesize_demand(net, series, config, params)
        lp, cat = build_lp(config, net, series, costs, params, demand_b)
        coeff = lp.objective[lp.column_index("cap_offshore[b]")]
        rate = annualization_rate(20, 0.05)
        assert rate == pytest.approx(0.0802426, abs=1e-7)
        expected = 2256.0 * rate * 1000.0 + 38.0 * 1000.0
        assert coeff == pytest.approx(expected, rel=1e-12)
        assert coeff == pytest.approx(219027.0, abs=1.0)

    def test_storage_class_uses_ten_year_life(self):
        lp, cat = build_tiny()
        params, net = tiny_params(), tiny_network()
        costs = tiny_costs(net)
        rate10 = annualization_rate(10, 0.05)
        expected = params.n_years * (costs.cap_batt_p["a"] * rate10 * 1000.0
                                     + costs.omf_batt_p["a"] * 1000.0)
        assert lp.objective[lp.column_index("cap_battery_power[a]")] == pytest.approx(
            expected, rel=1e-12)

    def test_transmission_per_mile_capital(self):
        lp, cat = build_tiny()
        params = tiny_params()
        rate = annualization_rate(20, 0.05)
        expected = params.n_years * (2400.0 * rate * 100.0 * 1000.0 + 2806.0)
        assert lp.objective[lp.column_index("cap_tx[a:b]")] == pytest.approx(
            expected, rel=1e-12)

    def test_hourly_prices_and_nominal_charges(self):
        lp, cat = build_tiny()
        obj = lp.objective
        assert obj[lp.column_index("hydro_flex[a,0]")] == pytest.approx(18.47)
        assert obj[lp.column_index("biofuel[b,0]")] == pytest.approx(27.41)
        assert obj[lp.column_index("imports[a,0]")] == pytest.approx(22.13)
        assert obj[lp.column_index("ramp_ex[a,0]")] == pytest.approx(79.0)
        assert obj[lp.column_index("ramp_new[b,0]")] == pytest.approx(69.0)
        assert obj[lp.column_index("batt_charge[a,0]")] == pytest.approx(0.01)
        assert obj[lp.column_index("batt_discharge[b,0]")] == pytest.approx(0.01)
        assert obj[lp.column_index("flow[a>b,0]")] == pytest.approx(0.01)
        assert obj[lp.column_index("batt_soc[a,0]")] == 0.0

    def test_n_years_scales_capacity_not_dispatch(self):
        lp1, cat1 = build_tiny(params=TechParams(n_years=1.0))
        lp2, cat2 = build_tiny(params=TechParams(n_years=2.0))
        i1 = lp1.column_index("cap_onshore[a]")
        assert lp2.objective[lp2.column_index("cap_onshore[a]")] == pytest.approx(
            2.0 * lp1.objective[i1], rel=1e-12)
        j1 = lp1.column_index("fossil_ex[a,0]")
        assert lp2.objective[lp2.column_index("fossil_ex[a,0]")] == pytest.approx(
            lp1.objective[j1], rel=1e-12)

    def test_missing_cost_entry_is_an_error(self):
        net = tiny_network()
        costs = tiny_costs(net)
        broken = {k: dict(getattr(costs, k)) for k in ("omf_on",)}
        del broken["omf_on"]["a"]
        bad_costs = dataclasses.replace(costs, omf_on=broken["omf_on"])
        with pytest.raises(LPError, match="omf_on.*a"):
            build_tiny(costs=bad_costs)

    def test_missing_fuel_price_is_an_error(self):
        net = tiny_network()
        costs = tiny_costs(net)
        bad_costs = dataclasses.replace(costs, c_ff={"a": 3.5})
        with pytest.raises(LPError, match="c_ff.*b"):
            build_tiny(costs=bad_costs)


def slim_pair(alpha=1.0, t=24):
    """2-node, 24 h system where every right-hand quantity scales with alpha."""
    a = NodeSpec(
        id="a", onshore_existing_mw=50.0 * alpha, gas_existing_mw=600.0 * alpha,
        hydro_fixed_mw=100.0 * alpha, hydro_flex_mw=80.0 * alpha,
        hydro_flex_hourly_max_mwh=70.0 * alpha, biofuel_mw=20.0 * alpha,
        biofuel_daily_mwh=300.0 * alpha,
        battery_energy_existing_mwh=20.0 * alpha,
        battery_power_existing_mw=5.0 * alpha,
        import_limit_mwh=100.0 * alpha, onshore_max_mw=1500.0 * alpha,
        us_solar_max_mw=900.0 * alpha, existing_tx_flow_mwh=2000.0 * alpha,
    )
    b = NodeSpec(
        id="b", us_solar_existing_mw=30.0 * alpha, gas_existing_mw=900.0 * alpha,
        nuclear_mw=200.0 * alpha, btm_solar_existing_mw=40.0 * alpha,
        onshore_max_mw=300.0 * alpha, us_solar_max_mw=1200.0 * alpha,
        existing_tx_flow_mwh=3000.0 * alpha,
    )
    iface = InterfaceSpec(node_a="a", node_b="b", distance_mi=80.0,
                          existing_fwd_mw=200.0 * alpha,
                          existing_rev_mw=120.0 * alpha)
    net = NetworkSpec(nodes=[a, b], interfaces=[iface],
                      offshore_cap_total_mw=500.0 * alpha)
    hours = np.arange(t)
    shape = 1.0 + 0.3 * np.sin(2 * np.pi * hours / 24.0)
    series = TimeSeriesSet(
        d_elec={"a": 500.0 * alpha * shape, "b": 800.0 * alpha * shape},
        d_heat_full={"a": 120.0 * alpha * shape, "b": 200.0 * alpha * shape},
        d_veh_full={"a": np.full(t, 30.0 * alpha), "b": np.full(t, 50.0 * alpha)},
        w_on={"a": 0.4 + 0.2 * np.sin(hours / 3.0), "b": np.full(t, 0.3)},
        w_off={"a": np.zeros(t), "b": np.full(t, 0.5)},
        w_us_solar={"a": np.clip(np.sin(2 * np.pi * (hours - 6) / 24.0), 0, None),
                    "b": np.clip(np.sin(2 * np.pi * (hours - 6) / 24.0), 0, None)},
        w_btm_solar={"a": np.zeros(t),
                     "b": np.clip(np.sin(2 * np.pi * (hours - 6) / 24.0), 0, None)},
        h_fix={"a": np.full(t, 90.0 * alpha), "b": np.zeros(t)},
        nuclear={"a": np.zeros(t), "b": np.full(t, 180.0 * alpha)},
        h_flex_daily={"a": np.full(1, 1200.0 * alpha), "b": np.zeros(1)},
    )
    costs = tiny_costs(net)
    params = TechParams(n_years=t / 8760.0)
    config = fixed_config(lcp=0.3, p_heat=0.4, p_veh=0.3)
    demand_b = synthesize_demand(net, series, config, params)
    return build_lp(config, net, series, costs, params, demand_b)


def one_family_builder(width: int) -> LPBuilder:
    """A builder over one hourly family x[n,0..width-1]."""
    return LPBuilder(VariableCatalog({"x": Block(0, ("n",), tuple(range(width)))}))


def one_hour_lp(**node_kw):
    """A one-hour build, where hour t-1 wraps onto hour t itself."""
    net = mini_network(**node_kw)
    series = mini_series(net, 1, d_elec=5.0)
    params = TechParams(n_years=1 / 8760.0, kappa=0.01)
    config = fixed_config()
    demand = synthesize_demand(net, series, config, params)
    lp, _ = build_lp(config, net, series, mini_costs(), params, demand)
    return lp, params


class TestCSRCanonicalization:
    """LPBuilder.instance: terms at one (row, column) sum in the order
    added, exact zeros drop, and columns ascend within each row."""

    def test_repeats_sum_in_insertion_order(self):
        builder = one_family_builder(3)
        rows = builder.add_rows(["r0", "r1"], LE, 0.0, "t")
        # 1e16 + 1 rounds back to 1e16, so only the second order keeps 1.
        builder.add_terms(rows[0], 2, [1e16, 1.0, -1e16])
        builder.add_terms(rows[1], 2, [1e16, -1e16, 1.0])
        lp = builder.instance()
        assert lp.indptr.tolist() == [0, 0, 1]
        assert lp.indices.tolist() == [2]
        assert lp.data.tolist() == [1.0]

    def test_state_row_sums_both_soc_terms(self):
        lp, params = one_hour_lp(battery_energy_existing_mwh=20.0,
                                 battery_power_existing_mw=10.0)
        coeffs = named_coeffs(lp, row_by_name(lp, "batt_state[n,0]"))
        assert coeffs["batt_soc[n,0]"] == 1.0 - (1.0 - params.kappa)

    def test_ramp_terms_on_one_column_cancel(self):
        lp, _ = one_hour_lp(gas_existing_mw=10.0)
        for name in ("ramp_up_ex[n,0]", "ramp_dn_ex[n,0]"):
            assert named_coeffs(lp, row_by_name(lp, name)) == {
                "ramp_ex[n,0]": -1.0}

    def test_columns_ascend_within_rows(self):
        builder = one_family_builder(4)
        rows = builder.add_rows(["r0", "r1"], GE, 1.0, "t")
        builder.add_terms(rows[:, None], [[3, 1, 0], [2, 1, 0]],
                          [[3.0, 1.0, 0.5], [2.0, 1.0, 0.5]])
        lp = builder.instance()
        assert lp.indptr.tolist() == [0, 3, 6]
        assert lp.indices.tolist() == [0, 1, 3, 0, 1, 2]
        assert lp.data.tolist() == [0.5, 1.0, 3.0, 0.5, 1.0, 2.0]

    def test_assembled_rows_ascend(self):
        lp, _ = build_tiny(
            ScenarioConfig(mode="ghg+lcp", omega=0.2, lcp=0.3,
                           ev_flex=EVFlexConfig(y_flex=0.5, h_start=18,
                                                h_end=22, h_min=3)),
            emissions=tiny_calibration())
        assert "ev-rate" in lp.row_tags
        within = lp.row_of[1:] == lp.row_of[:-1]
        assert np.all(np.diff(lp.indices)[within] > 0)
        assert np.all(lp.data != 0.0)


class TestWholeInstance:
    def test_build_is_deterministic(self):
        lp1, _ = build_tiny()
        lp2, _ = build_tiny()
        assert lp1.serialize() == lp2.serialize()

    def test_validate_passes(self):
        # construction validates, so a built instance is a sound one
        lp, _ = build_tiny()
        assert isinstance(lp, LPInstance)
        assert len(set(r.name for r in lp.rows)) == len(lp.rows)

    @pytest.mark.parametrize("alpha", [2.0, 10.0])
    def test_rhs_scaling_scales_optimum(self, alpha):
        lp1, _ = slim_pair(1.0)
        lp2, _ = slim_pair(alpha)
        sol1 = solve_ok(lp1)
        sol2 = solve_ok(lp2)
        var1 = sol1.objective - lp1.offset
        var2 = sol2.objective - lp2.offset
        assert var2 == pytest.approx(alpha * var1, rel=1e-6)
        assert lp2.offset == pytest.approx(alpha * lp1.offset, rel=1e-12)

    def test_audit_counts_tiny(self):
        lp, _ = build_tiny()
        expected = {
            "balance": 96,
            "reserve-existing": 96,
            "reserve-new": 96,
            "ramp-existing": 192,
            "ramp-new": 192,
            "resource-onshore": 2,
            "resource-us-solar": 2,
            "resource-offshore": 1,
            "tx-limit": 96,
            "battery-soc": 96,
            "battery-energy-cap": 96,
            "battery-power-cap": 192,
            "battery-sizing": 4,
            "hydro-daily": 2,
            "hydro-hourly": 48,
            "biofuel-daily": 4,
            "biofuel-hourly": 96,
            "import-limit": 48,
            "policy-lcp": 1,
            "nonneg": 972,
        }
        assert dict(lp.audit) == expected
        row_tags = ("balance", "reserve-new", "ramp-existing", "ramp-new",
                    "resource-offshore", "tx-limit", "battery-soc",
                    "battery-energy-cap", "battery-power-cap",
                    "battery-sizing", "hydro-daily", "biofuel-daily",
                    "policy-lcp")
        assert len(lp.rows) == sum(expected[t] for t in row_tags)

    def test_rate_columns_bounded_by_one(self):
        config = ScenarioConfig(mode="ghg+lcp", omega=0.2, lcp=0.3)
        lp, cat = build_tiny(config, emissions=tiny_calibration())
        assert lp.upper[lp.column_index("rate_heat")] == 1.0
        assert lp.upper[lp.column_index("rate_veh")] == 1.0
