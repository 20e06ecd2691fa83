"""End-to-end acceptance checks, one test per shipped guarantee.

Most tests run against the packaged two-node, 48-hour demo system
(``gridplan/data/two_node_48h``). The final full-dataset reproduction needs
the published statewide inputs and an external solver, so it only runs when
pytest is invoked with ``--full-data DIR``.

Run with ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
guarantee.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gridplan
from gridplan.demand import btm_statewide_mw, synthesize_demand
from gridplan.emissions import EmissionsLedger, co2e_factor, ghg_reduction
from gridplan.formulation import BuildInputs, assemble
from gridplan.model import HOURS_PER_DAY, ScenarioConfig, annualization_rate
from gridplan.reporting import energy_closure, summarize
from gridplan.resources import MONTH_DAYS, build_hydro_profile
from gridplan.runner import load_bundle, load_config, run_scenario, save_bundle
from gridplan.solver import export_mps, import_solution, solve

from _mpsread import solve_mps_with_highs

BUNDLE_DIR = Path(gridplan.__file__).parent / "data" / "two_node_48h"

SHARE_TARGETS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
REDUCTION_TARGETS = (0.0, 0.2, 0.4, 0.6)


def demo_config(**overrides) -> ScenarioConfig:
    """The bundled system's reference scenario, read from its own
    ``scenario.json``, with optional overrides."""
    return replace(load_config(BUNDLE_DIR / "scenario.json"), **overrides)


@pytest.fixture(scope="module")
def bundle():
    return load_bundle(BUNDLE_DIR)


@pytest.fixture(scope="module")
def main_run(bundle):
    """The reference scenario solved once with the built-in simplex."""
    config = demo_config()
    demand = synthesize_demand(bundle.network, bundle.series, config,
                               bundle.params)
    inp = BuildInputs(config, bundle.network, bundle.series, bundle.costs,
                      bundle.params, demand, emissions=bundle.emissions)
    lp, _ = assemble(inp)
    started = time.perf_counter()
    solution = solve(lp)
    elapsed = time.perf_counter() - started
    assert solution.status == "optimal", solution.message
    report = summarize(inp, lp, solution, label="demo")
    return SimpleNamespace(config=config, inp=inp, lp=lp, solution=solution,
                           elapsed=elapsed, report=report)


@pytest.fixture(scope="module")
def sweep_runs(bundle):
    """Policy sweeps over the bundled system, solved once and shared.

    Returns (kind, target, config, result) tuples: a supply-share sweep and
    an emissions-reduction sweep at fixed electrification, plus one
    free-electrification point.
    """
    runs = []
    for lcp in SHARE_TARGETS:
        config = demo_config(lcp=lcp)
        runs.append(("share", lcp, config,
                     run_scenario(bundle, config, label=f"share{lcp:g}")))
    for omega in REDUCTION_TARGETS:
        config = demo_config(mode="ghg+hve", lcp=None, omega=omega)
        runs.append(("reduction", omega, config,
                     run_scenario(bundle, config, label=f"cut{omega:g}")))
    config = demo_config(mode="ghg+lcp", p_heat=None, p_veh=None,
                         omega=0.3, lcp=0.3)
    runs.append(("free-rates", 0.3, config,
                 run_scenario(bundle, config, label="free")))
    return runs


def test_fuel_warming_factors_match_reference_table():
    assert co2e_factor("coal") == pytest.approx(108.31, abs=0.05)
    assert co2e_factor("petroleum") == pytest.approx(81.15, abs=0.05)
    assert co2e_factor("natural gas") == pytest.approx(110.18, abs=0.05)


def test_reduction_metric_reproduces_inventory_bookkeeping():
    current = EmissionsLedger.current_inventory()
    assert 100.0 * ghg_reduction(current) == pytest.approx(-3.56, abs=0.1)

    zeroed = replace(current, eps_elec=0.0, eps_heat=0.0, eps_veh=0.0,
                     eps_waste=0.0)
    assert zeroed.total_mmt == pytest.approx(41.321, abs=1e-9)
    assert 100.0 * ghg_reduction(zeroed) == pytest.approx(86.35, abs=0.1)


def test_distributed_solar_growth_curve_hits_waypoints():
    assert btm_statewide_mw(2030.0) == pytest.approx(6608.0, abs=10.0)
    assert btm_statewide_mw(2050.0) == pytest.approx(10489.0, abs=10.0)


def test_capital_recovery_rate():
    assert annualization_rate(20, 0.05) == pytest.approx(0.0802426, abs=1e-6)
    for period in (1, 7, 20, 43):
        assert annualization_rate(period, 0.0) == 1.0 / period


def test_builtin_simplex_agrees_with_external_solver(main_run):
    solution = main_run.solution
    assert main_run.elapsed < 5.0
    assert solution.max_violation <= 1e-7
    assert solution.duality_gap <= 1e-6

    started = time.perf_counter()
    status, external_obj, _ = solve_mps_with_highs(export_mps(main_run.lp))
    assert time.perf_counter() - started < 5.0
    assert status == "optimal"
    assert abs(solution.objective - external_obj) <= 1e-6 * abs(external_obj)


def test_cost_is_monotone_in_both_policy_targets(sweep_runs):
    share = [(v, r) for kind, v, _, r in sweep_runs if kind == "share"]
    costs = []
    for target, result in share:
        if target == 1.0 and result.status == "infeasible":
            continue  # the strictest share target is allowed to be unattainable
        assert result.status == "optimal", (target, result.status)
        costs.append(result.report.total_cost_usd)
    assert len(costs) >= len(SHARE_TARGETS) - 1
    for earlier, later in zip(costs, costs[1:]):
        assert later >= earlier * (1.0 - 1e-6)
    assert costs[-1] > costs[0] * (1.0 + 1e-6)  # the share target binds

    cuts = [(v, r) for kind, v, _, r in sweep_runs if kind == "reduction"]
    costs = []
    for target, result in cuts:
        assert result.status == "optimal", (target, result.status)
        assert result.report.ghg_reduction >= target - 1e-6
        costs.append(result.report.total_cost_usd)
    for earlier, later in zip(costs, costs[1:]):
        assert later >= earlier * (1.0 - 1e-6)
    assert costs[-1] > costs[0] * (1.0 + 1e-6)  # the emissions target binds


def test_free_electrification_point_is_optimal(sweep_runs):
    (result,) = [r for kind, _, _, r in sweep_runs if kind == "free-rates"]
    assert result.status == "optimal", result.message


def test_conservation_of_water_storage_and_hourly_energy(main_run, bundle):
    # Monthly hydro budgets survive disaggregation to hourly/daily series.
    monthly = 1e3 * np.array([620.0, 540.0, 700.0, 980.0, 1240.0, 1100.0,
                              890.0, 760.0, 680.0, 640.0, 600.0, 610.0])
    y_fix = 0.62
    profile = build_hydro_profile(monthly, y_fix=y_fix)
    days = np.asarray(MONTH_DAYS, dtype=int)
    hour_edges = np.concatenate([[0], np.cumsum(HOURS_PER_DAY * days)])
    day_edges = np.concatenate([[0], np.cumsum(days)])
    for m in range(12):
        fix = float(profile.h_fix_hourly[hour_edges[m]:hour_edges[m + 1]].sum())
        flex = float(profile.h_flex_daily[day_edges[m]:day_edges[m + 1]].sum())
        want_fix = y_fix * monthly[m]
        want_flex = monthly[m] - want_fix
        assert abs(fix - want_fix) <= 1e-9 * want_fix
        assert abs(flex - want_flex) <= 1e-9 * want_flex

    # Periodic storage wrap recomputed from the raw solution vector.
    lp, x = main_run.lp, main_run.solution.x
    eta, kappa = bundle.params.eta_batt, bundle.params.kappa
    T = bundle.series.n_hours
    discharged = sum(x[lp.column_index(f"batt_discharge[b,{t}]")]
                     for t in range(T))
    charged = sum(x[lp.column_index(f"batt_charge[b,{t}]")] for t in range(T))
    stored = sum(x[lp.column_index(f"batt_soc[b,{t}]")] for t in range(T))
    assert discharged > 0.0  # the wrap identity must not hold vacuously
    assert main_run.report.battery_throughput_gwh > 0.01
    assert abs(discharged / eta - eta * charged + kappa * stored) <= 1e-7

    # Hourly closure: supply - curtailment - net storage = demand.
    assert energy_closure(main_run.inp, lp, main_run.solution) <= 1e-7


def test_ramp_charges_are_tight_at_the_optimum(main_run, bundle):
    assert bundle.costs.c_existing_ramp > 0.0
    lp, x = main_run.lp, main_run.solution.x
    T = bundle.series.n_hours
    worst_gap = 0.0
    largest_move = 0.0
    for t in range(T):
        gen_now = x[lp.column_index(f"fossil_ex[a,{t}]")]
        gen_prev = x[lp.column_index(f"fossil_ex[a,{(t - 1) % T}]")]
        ramp = x[lp.column_index(f"ramp_ex[a,{t}]")]
        worst_gap = max(worst_gap, abs(ramp - abs(gen_now - gen_prev)))
        largest_move = max(largest_move, abs(gen_now - gen_prev))
    assert largest_move > 1.0  # a flat profile would make the check vacuous
    assert worst_gap <= 1e-6


def test_bundle_writer_reproduces_the_fixture(bundle, tmp_path):
    # Writing the loaded fixture back gives its own bytes, so the shipped
    # files are exactly what save_bundle writes.
    save_bundle(tmp_path, bundle.network, bundle.series, bundle.costs,
                bundle.params, bundle.emissions)
    shipped = sorted(p.relative_to(BUNDLE_DIR)
                     for p in (BUNDLE_DIR / "series").glob("*.csv"))
    assert shipped == sorted(p.relative_to(tmp_path)
                             for p in (tmp_path / "series").glob("*.csv"))
    for name in (Path("bundle.json"), *shipped):
        assert (tmp_path / name).read_bytes() \
            == (BUNDLE_DIR / name).read_bytes(), name


def _recomputed_net_demand(bundle, config, values) -> float:
    """Served electricity demand in MWh, rebuilt from inputs and raw column
    values without going through the reporting module."""
    y_flex = config.ev_flex.y_flex
    free_rates = config.p_heat is None
    net = 0.0
    for node in bundle.network.nodes:
        n = node.id
        net += float(np.sum(bundle.series.d_elec[n]))
        net -= node.btm_solar_existing_mw * float(
            np.sum(bundle.series.w_btm_solar[n]))
        heat_full = float(np.sum(bundle.series.d_heat_full[n]))
        veh_fixed_full = (1.0 - y_flex) * float(
            np.sum(bundle.series.e_veh_daily_full[n])) / bundle.params.eta_veh
        if free_rates:
            net += values["rate_heat"] * heat_full
            net += values["rate_veh"] * veh_fixed_full
        else:
            net += config.p_heat_for(n) * heat_full
            net += config.p_veh_for(n) * veh_fixed_full
    net += sum(v for name, v in values.items() if name.startswith("ev_flex["))
    return net


def test_reported_lcoe_equals_cost_over_net_demand(main_run, sweep_runs,
                                                   bundle):
    # The reference run, from the raw LP objective.
    lp, solution = main_run.lp, main_run.solution
    values = dict(zip(lp.col_names, solution.x))
    objective = float(lp.objective @ solution.x) + lp.offset
    assert abs(main_run.report.total_cost_usd - objective) \
        <= 1e-9 * abs(objective)
    net = _recomputed_net_demand(bundle, main_run.config, values)
    want = objective / net
    assert abs(main_run.report.lcoe_usd_per_mwh - want) <= 1e-9 * want

    # And every optimal point of the policy sweeps.
    checked = 0
    for _, _, config, result in sweep_runs:
        if result.status != "optimal":
            continue
        net = _recomputed_net_demand(bundle, config, result.solution_values)
        want = result.report.total_cost_usd / net
        assert abs(result.report.lcoe_usd_per_mwh - want) <= 1e-9 * want
        checked += 1
    assert checked >= len(SHARE_TARGETS) + len(REDUCTION_TARGETS) - 1


def test_full_dataset_current_system_lcoe(full_data_dir):
    if full_data_dir is None:
        pytest.skip("needs --full-data DIR with the published statewide inputs")
    root = Path(full_data_dir)
    bundle = load_bundle(root)
    scenario_file = root / "scenario.json"
    if scenario_file.is_file():
        config = load_config(scenario_file)
    else:
        config = ScenarioConfig(mode="lcp+hve", lcp=0.0, p_heat=0.0,
                                p_veh=0.0)
    demand = synthesize_demand(bundle.network, bundle.series, config,
                               bundle.params)
    inp = BuildInputs(config, bundle.network, bundle.series, bundle.costs,
                      bundle.params, demand, emissions=bundle.emissions)
    lp, _ = assemble(inp)
    status, _, values = solve_mps_with_highs(export_mps(lp))
    assert status == "optimal"
    solution = import_solution(lp, values)
    assert solution.status == "optimal"
    report = summarize(inp, lp, solution, label="current")
    assert report.lcoe_usd_per_mwh == pytest.approx(65.3, rel=0.05)
