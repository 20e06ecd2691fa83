#!/usr/bin/env python3
"""Regenerate the bundled two-node, 48-hour demo system.

Every series is a closed-form expression of the hour index, so rebuilding
the bundle is deterministic: running this script twice produces identical
bytes. After writing the bundle the script re-loads it and runs a battery
of checks (feasibility across the policy sweeps, solver cross-validation,
storage/ramp tightness) so a bad edit cannot ship silently.

Usage: python tools/build_fixture.py [--skip-checks]
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from gridplan.emissions import EmissionsCalibration
from gridplan.model import (
    CostTable,
    EVFlexConfig,
    InterfaceSpec,
    NetworkSpec,
    NodeSpec,
    ScenarioConfig,
    TechParams,
    TimeSeriesSet,
    validate,
)
from gridplan.runner import Bundle, load_bundle, run_scenario, save_bundle

BUNDLE_DIR = REPO / "src" / "gridplan" / "data" / "two_node_48h"
T = 48
TWO_PI = 2.0 * np.pi


def build_series() -> TimeSeriesSet:
    t = np.arange(T, dtype=float)
    h = t % 24.0
    day = t // 24.0
    zeros = np.zeros(T)

    # Node a: an upstate-style exporter. Demand peaks in the evening, heating
    # in the early morning; the second day runs a few percent hotter.
    d_elec_a = (200.0 + 45.0 * np.sin(TWO_PI * (h - 10.0) / 24.0)) * (1.0 + 0.04 * day)
    d_heat_a = (90.0 + 35.0 * np.cos(TWO_PI * h / 24.0)) * (1.0 + 0.02 * day)
    # Wind with a diurnal swing, a faster ripple, and a slow two-day drift.
    w_on_a = (
        0.32
        + 0.17 * np.sin(TWO_PI * (t + 3.0) / 24.0)
        + 0.05 * np.sin(2.0 * TWO_PI * t / 24.0 + 0.7)
        + 0.06 * np.sin(TWO_PI * t / 48.0)
    )
    h_fix_a = 58.0 + 6.0 * np.sin(TWO_PI * (t - 2.0) / 24.0)

    # Node b: the load center. Sharper evening peak, big heating stock, a
    # solar day that clouds over on day two.
    d_elec_b = (300.0 + 70.0 * np.sin(TWO_PI * (h - 13.0) / 24.0)) * (1.0 + 0.05 * day)
    d_heat_b = (140.0 + 55.0 * np.cos(TWO_PI * h / 24.0)) * (1.0 + 0.03 * day)
    sun = np.clip(np.sin(np.pi * (h - 6.0) / 14.0), 0.0, None)
    w_us_b = sun * (1.0 - 0.08 * day)
    w_btm_b = 0.95 * w_us_b

    return TimeSeriesSet(
        d_elec={"a": d_elec_a, "b": d_elec_b},
        d_heat_full={"a": d_heat_a, "b": d_heat_b},
        w_on={"a": w_on_a, "b": zeros},
        w_off={"a": zeros, "b": zeros},
        w_us_solar={"a": zeros, "b": w_us_b},
        w_btm_solar={"a": zeros, "b": w_btm_b},
        h_fix={"a": h_fix_a, "b": zeros},
        nuclear={"a": zeros, "b": np.full(T, 22.0)},
        e_veh_daily_full={"a": np.zeros(2), "b": np.array([480.0, 520.0])},
        h_flex_daily={"a": np.array([950.0, 980.0]), "b": np.zeros(2)},
    )


def build_network() -> NetworkSpec:
    node_a = NodeSpec(
        id="a",
        onshore_existing_mw=40.0,
        gas_existing_mw=420.0,
        hydro_fixed_mw=70.0,
        hydro_flex_mw=90.0,
        hydro_flex_hourly_max_mwh=75.0,
        import_limit_mwh=60.0,
        onshore_max_mw=2600.0,
        existing_tx_flow_mwh=120000.0,
    )
    node_b = NodeSpec(
        id="b",
        us_solar_existing_mw=30.0,
        btm_solar_existing_mw=90.0,
        nuclear_mw=24.0,
        biofuel_mw=40.0,
        biofuel_daily_mwh=600.0,
        battery_energy_existing_mwh=480.0,
        battery_power_existing_mw=120.0,
        us_solar_max_mw=2000.0,
    )
    iface = InterfaceSpec(
        node_a="a",
        node_b="b",
        distance_mi=250.0,
        existing_fwd_mw=320.0,
        existing_rev_mw=120.0,
    )
    return NetworkSpec(nodes=(node_a, node_b), interfaces=(iface,))


def build_costs() -> CostTable:
    return CostTable(
        cap_on={"a": 1562.0},
        omf_on={"a": 18.1},
        cap_us_solar={"b": 918.0},
        omf_us_solar={"b": 8.5},
        omv_ff=4.48,
        c_ff={"a": 3.47},
        c_hydro={"a": 18.47},
        c_nuc={"b": 26.82},
        c_bio={"b": 24.0},
        c_imp={"a": 22.13},
        c_existing_ramp=0.6,
        c_new_ramp=1.2,
        ex_cap={"a": 27.64, "b": 27.64},
        ex_tx={"a": 1.5},
    )


def build_emissions() -> EmissionsCalibration:
    return EmissionsCalibration(
        theta_ff_t_per_mwh=0.396648,
        theta_imp_t_per_mwh=0.23,
        theta_heat_t_per_mj=7.35e-5,
        theta_veh_t_per_mj=7.58e-5,
        f_heat_tot_mj={"a": 2.4e9, "b": 4.4e9},
        f_veh_tot_mj={"a": 1.1e9, "b": 2.2e9},
        eps_transp_other_mmt=0.05,
        eps_industrial_mmt=0.05,
        reference_mmt=2.0,
    )


SCENARIO_JSON = """\
{
  "mode": "lcp+hve",
  "lcp": 0.4,
  "p_heat": 0.3,
  "p_veh": 0.2,
  "ev_flex": {"y_flex": 0.5, "h_start": 18, "h_end": 22, "h_min": 3}
}
"""


def default_config(**overrides) -> ScenarioConfig:
    kw = dict(
        mode="lcp+hve",
        lcp=0.4,
        p_heat=0.3,
        p_veh=0.2,
        ev_flex=EVFlexConfig(y_flex=0.5, h_start=18, h_end=22, h_min=3),
    )
    kw.update(overrides)
    return ScenarioConfig(**kw)


def write_bundle() -> Bundle:
    network = build_network()
    series = build_series()
    costs = build_costs()
    params = TechParams(n_years=T / 8760.0)
    emissions = build_emissions()

    problems = validate(network, series, costs, params)
    if problems:
        for p in problems:
            print(f"  invalid: {p}", file=sys.stderr)
        raise SystemExit("fixture inputs fail validation")

    if BUNDLE_DIR.exists():
        shutil.rmtree(BUNDLE_DIR)
    save_bundle(BUNDLE_DIR, network, series, costs, params, emissions)
    (BUNDLE_DIR / "scenario.json").write_text(SCENARIO_JSON,
                                              encoding="utf-8")
    n_files = sum(1 for _ in BUNDLE_DIR.rglob("*") if _.is_file())
    print(f"wrote {BUNDLE_DIR} ({n_files} files)")
    return load_bundle(BUNDLE_DIR)


def check(label: str, ok: bool, detail: str = "") -> bool:
    print(f"  [{'ok' if ok else 'FAIL'}] {label}" + (f": {detail}" if detail else ""))
    return ok


def verify(bundle: Bundle) -> int:
    failures = 0

    def run(config, **kw):
        return run_scenario(bundle, config, **kw)

    # Main scenario: optimal, quick, and exercising storage + ramping.
    t0 = time.perf_counter()
    main = run(default_config())
    elapsed = time.perf_counter() - t0
    ok = main.status == "optimal"
    failures += not check("main scenario optimal", ok, main.status)
    if not ok:
        return failures + 1
    rep = main.report
    failures += not check("main solve under 5 s", elapsed < 5.0, f"{elapsed:.2f} s")
    print(f"       objective ${rep.total_cost_usd:,.0f}  "
          f"lcoe ${rep.lcoe_usd_per_mwh:.2f}/MWh  "
          f"lcp realized {rep.lcp_realized:.3f}")

    x = main.solution_values
    failures += not check(
        "battery cycles at the main point",
        rep.battery_throughput_gwh > 0.01,
        f"{rep.battery_throughput_gwh:.3f} GWh discharged",
    )

    # Ramp linearization must be tight, and the dispatch must actually move.
    worst_gap = 0.0
    biggest_step = 0.0
    for t in range(T):
        prev = (t - 1) % T
        step = abs(x[f"fossil_ex[a,{t}]"] - x[f"fossil_ex[a,{prev}]"])
        worst_gap = max(worst_gap, abs(x[f"ramp_ex[a,{t}]"] - step))
        biggest_step = max(biggest_step, step)
    failures += not check("ramp variables tight", worst_gap <= 1e-6,
                          f"worst gap {worst_gap:.2e}")
    failures += not check("fossil dispatch varies", biggest_step > 1.0,
                          f"largest hourly step {biggest_step:.1f} MWh")

    # Periodic storage balance recomputed from the raw solution.
    eta = bundle.params.eta_batt
    kappa = bundle.params.kappa
    dis = sum(x[f"batt_discharge[b,{t}]"] for t in range(T))
    chg = sum(x[f"batt_charge[b,{t}]"] for t in range(T))
    soc = sum(x[f"batt_soc[b,{t}]"] for t in range(T))
    wrap = dis / eta - eta * chg + kappa * soc
    failures += not check("storage wrap closes", abs(wrap) <= 1e-7,
                          f"residual {wrap:.2e}")

    # Low-carbon share sweep: nondecreasing cost, with 1.0 allowed to be
    # infeasible (the bundle has no night-proof carbon-free capacity mix).
    costs = []
    for lcp in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        res = run(default_config(lcp=lcp))
        if res.status != "optimal":
            failures += not check(
                f"lcp={lcp} infeasible only at the top", lcp == 1.0, res.status)
            continue
        costs.append((lcp, res.report.total_cost_usd))
    seq = [c for _, c in costs]
    monotone = all(b >= a * (1.0 - 1e-6) for a, b in zip(seq, seq[1:]))
    failures += not check(
        "cost nondecreasing in the share target", monotone,
        "  ".join(f"{lcp:.1f}:{c:,.0f}" for lcp, c in costs))
    failures += not check("share sweep feasible through 0.8",
                          len(seq) >= 5, f"{len(seq)} optimal points")
    failures += not check("share target binds by 0.8",
                          seq[-1] > seq[0] * (1.0 + 1e-6))

    # Emissions-target sweep in ghg+hve mode.
    gcosts = []
    for omega in (0.0, 0.2, 0.4, 0.6):
        cfg = default_config(mode="ghg+hve", lcp=None, omega=omega)
        res = run(cfg)
        if not check(f"omega={omega} optimal", res.status == "optimal",
                     res.status):
            failures += 1
            continue
        gcosts.append((omega, res.report.total_cost_usd,
                       res.report.ghg_reduction))
    seq = [c for _, c, _ in gcosts]
    monotone = all(b >= a * (1.0 - 1e-6) for a, b in zip(seq, seq[1:]))
    failures += not check(
        "cost nondecreasing in the emissions target", monotone,
        "  ".join(f"{w:.1f}:{c:,.0f}" for w, c, _ in gcosts))
    failures += not check("emissions target binds by 0.6",
                          seq[-1] > seq[0] * (1.0 + 1e-6))
    for omega, _, red in gcosts:
        if red is not None and red < omega - 1e-6:
            failures += not check(f"omega={omega} met", False, f"{red:.4f}")

    # Free-electrification mode solves too.
    res = run(default_config(mode="ghg+lcp", p_heat=None, p_veh=None,
                             omega=0.3, lcp=0.3))
    failures += not check("ghg+lcp mode optimal", res.status == "optimal",
                          res.status)

    # Cross-check the built-in simplex against HiGHS fed the exported file.
    from _mpsread import solve_mps_with_highs

    exported = run(default_config(), solver="export")
    status, objective, _ = solve_mps_with_highs(exported.mps)
    rel = abs(objective - rep.total_cost_usd) / abs(objective)
    failures += not check("external solver agrees",
                          status == "optimal" and rel <= 1e-6,
                          f"rel diff {rel:.2e}")

    # Byte determinism of the writer.
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        other = Path(tmp) / "again"
        save_bundle(other, bundle.network, bundle.series, bundle.costs,
                    bundle.params, bundle.emissions)
        same = all(
            (other / p.relative_to(BUNDLE_DIR)).read_bytes() == p.read_bytes()
            for p in sorted(BUNDLE_DIR.rglob("*.csv"))
        )
        same = same and ((other / "bundle.json").read_bytes()
                         == (BUNDLE_DIR / "bundle.json").read_bytes())
    failures += not check("writer is byte-deterministic", same)

    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--skip-checks", action="store_true",
                        help="write the bundle without the verification runs")
    args = parser.parse_args(argv)

    bundle = write_bundle()
    if args.skip_checks:
        return 0
    print("verifying:")
    failures = verify(bundle)
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
