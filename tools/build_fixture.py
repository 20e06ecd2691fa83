#!/usr/bin/env python3
"""Regenerate the bundled two-node, 48-hour demo system.

Every series is a closed-form expression of the hour index, so rebuilding
the bundle is deterministic: running this script twice produces identical
bytes. The inputs must pass ``validate`` before anything is written; the
fixture's acceptance checks (feasibility across the policy sweeps, solver
cross-validation, storage and ramp tightness, writer determinism) are in
``tests/test_acceptance.py``.

Usage: python tools/build_fixture.py
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from gridplan.emissions import EmissionsCalibration
from gridplan.model import (
    CostTable,
    InterfaceSpec,
    NetworkSpec,
    NodeSpec,
    TechParams,
    TimeSeriesSet,
    validate,
)
from gridplan.runner import save_bundle

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


def write_bundle() -> None:
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


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    write_bundle()
    return 0


if __name__ == "__main__":
    sys.exit(main())
