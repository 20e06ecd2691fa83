"""Small shared model fixtures used across the unit-test modules, the
scenario-LP build, a builder of small hand-written LPs, a dense view of an
LP for the reference solvers in the solver tests, and the benchmark's
seeded demand factor.

These are deliberately tiny (2 nodes, 48 hours) and hand-sized so expected
values stay derivable by inspection or an independent one-liner.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from gridplan.formulation import BuildInputs, LPInstance, assemble
from gridplan.model import (
    CostTable,
    InterfaceSpec,
    NetworkSpec,
    NodeSpec,
    TechParams,
    TimeSeriesSet,
)

T = 48


def tiny_network() -> NetworkSpec:
    node_a = NodeSpec(
        id="a",
        onshore_existing_mw=100.0,
        us_solar_existing_mw=20.0,
        gas_existing_mw=1200.0,
        hydro_fixed_mw=300.0,
        hydro_flex_mw=200.0,
        hydro_flex_hourly_max_mwh=150.0,
        biofuel_mw=40.0,
        biofuel_daily_mwh=600.0,
        battery_energy_existing_mwh=20.0,
        battery_power_existing_mw=5.0,
        import_limit_mwh=300.0,
        onshore_max_mw=2000.0,
        us_solar_max_mw=1500.0,
        existing_tx_flow_mwh=50000.0,
    )
    node_b = NodeSpec(
        id="b",
        us_solar_existing_mw=50.0,
        btm_solar_existing_mw=80.0,
        gas_existing_mw=2000.0,
        nuclear_mw=600.0,
        nuclear_gen_mwh_per_h=550.0,
        biofuel_mw=30.0,
        biofuel_daily_mwh=450.0,
        battery_energy_existing_mwh=10.0,
        battery_power_existing_mw=3.0,
        onshore_max_mw=400.0,
        us_solar_max_mw=2500.0,
        existing_tx_flow_mwh=80000.0,
    )
    iface = InterfaceSpec(node_a="a", node_b="b", distance_mi=100.0,
                          existing_fwd_mw=800.0, existing_rev_mw=400.0)
    return NetworkSpec(nodes=[node_a, node_b], interfaces=[iface],
                       offshore_cap_total_mw=4000.0)


def tiny_series(net: NetworkSpec, t: int = T) -> TimeSeriesSet:
    hours = np.arange(t)
    day_phase = 2.0 * np.pi * (hours % 24) / 24.0

    def solar_shape() -> np.ndarray:
        s = np.clip(np.sin(day_phase - np.pi / 2.0), 0.0, None)
        return np.minimum(s * 1.05, 1.0)

    d_elec = {
        "a": 900.0 + 180.0 * np.sin(day_phase - 1.0) + 2.0 * hours / t,
        "b": 2300.0 + 500.0 * np.sin(day_phase - 0.7),
    }
    d_heat_full = {
        "a": 260.0 + 120.0 * np.cos(day_phase),
        "b": 640.0 + 300.0 * np.cos(day_phase - 0.4),
    }
    d_veh_full = {
        "a": np.where((hours % 24 >= 17) & (hours % 24 <= 22), 180.0, 40.0),
        "b": np.where((hours % 24 >= 17) & (hours % 24 <= 22), 430.0, 90.0),
    }
    w_on = {
        "a": 0.35 + 0.3 * np.sin(2.0 * np.pi * hours / 37.0),
        "b": 0.2 + 0.15 * np.sin(2.0 * np.pi * hours / 31.0 + 1.0),
    }
    w_off = {"a": np.zeros(t), "b": 0.5 + 0.35 * np.sin(2.0 * np.pi * hours / 29.0)}
    w_us = {"a": solar_shape(), "b": solar_shape() * 0.93}
    w_btm = {"a": solar_shape() * 0.9, "b": solar_shape() * 0.88}
    h_fix = {"a": np.full(t, 250.0), "b": np.zeros(t)}
    nuclear = {"a": np.zeros(t), "b": np.full(t, 550.0)}
    n_days = max(t // 24, 1)
    h_flex_daily = {"a": np.full(n_days, 2400.0), "b": np.zeros(n_days)}
    return TimeSeriesSet(
        d_elec=d_elec,
        d_heat_full=d_heat_full,
        d_veh_full=d_veh_full,
        w_on=w_on,
        w_off=w_off,
        w_us_solar=w_us,
        w_btm_solar=w_btm,
        h_fix=h_fix,
        nuclear=nuclear,
        h_flex_daily=h_flex_daily,
    )


def tiny_costs(net: NetworkSpec) -> CostTable:
    nodes = [n.id for n in net.nodes]
    ifaces = [i.key for i in net.interfaces]

    def per_node(v: float) -> dict[str, float]:
        return {n: v for n in nodes}

    return CostTable(
        cap_on=per_node(1700.0),
        cap_off={"b": 2256.0},
        cap_us_solar=per_node(1006.0),
        cap_batt_e=per_node(208.0),
        cap_batt_p=per_node(300.0),
        cap_h2_e=per_node(8.29),
        cap_h2_p=per_node(3013.0),
        cap_ff=per_node(772.0),
        cap_tx={k: 2400.0 for k in ifaces},
        omf_on=per_node(18.1),
        omf_off={"b": 38.0},
        omf_us_solar=per_node(10.4),
        omf_batt_e=per_node(0.0),
        omf_batt_p=per_node(8.5),
        omf_h2_e=per_node(48.87),
        omf_h2_p=per_node(0.0),
        omf_ff=per_node(6.97),
        omf_tx={k: 2806.0 for k in ifaces},
        omv_ff=4.48,
        c_ff={"a": 3.5, "b": 4.04},
        c_hydro=per_node(18.47),
        c_nuc=per_node(26.82),
        c_bio={"a": 24.0, "b": 27.41},
        c_imp={"a": 22.13, "b": 70.0},
        c_existing_ramp=79.0,
        c_new_ramp=69.0,
        ex_cap={"a": 27.64, "b": 53.44},
        ex_tx={"a": 16.9, "b": 16.9},
    )


def tiny_params(t: int = T) -> TechParams:
    return TechParams(n_years=t / 8760.0)


def build_lp(*args, **kw):
    """The scenario LP and its catalog: ``assemble(BuildInputs(...))``."""
    return assemble(BuildInputs(*args, **kw))


def demand_factor(seed: int, node_index: int, n_hours: int) -> np.ndarray:
    """Smooth per-hour demand factor within [0.999, 1.0]; all ones for
    seed 0.

    The benchmark's seeded perturbation (``perfbench/bundles.py``), restated
    so the tests need nothing outside the package: a daily and a weekly
    sinusoid with phases drawn from ``default_rng([seed, node_index])``.
    """
    if seed == 0:
        return np.ones(n_hours)
    rng = np.random.default_rng([seed, node_index])
    daily, weekly = rng.uniform(0.0, 2.0 * np.pi, size=2)
    t = np.arange(n_hours, dtype=float)
    wave = (np.sin(2.0 * np.pi * t / 24.0 + daily)
            + np.sin(2.0 * np.pi * t / 168.0 + weekly))
    return 1.0 - 0.0005 * (1.0 + 0.5 * wave)


def dense_matrix(lp: LPInstance) -> np.ndarray:
    """The LP's constraint matrix as a dense n_rows x n_cols array."""
    a = np.zeros((lp.n_rows, lp.n_cols))
    a[lp.row_of, lp.indices] = lp.data
    return a


def make_lp(objective: Sequence[float],
            rows: Sequence[tuple],
            *,
            upper=None,
            lower=None,
            col_names=None,
            offset: float = 0.0,
            audit=None) -> LPInstance:
    """Construct an LPInstance from dense per-row coefficient lists.

    Each row is (coefficients, sense, rhs) or (coefficients, sense,
    rhs, name). Intended for small hand-written problems; the grid
    builder constructs rows sparsely.
    """
    c = np.asarray(objective, dtype=float)
    n = c.size
    if col_names is None:
        col_names = tuple(f"x{j}" for j in range(n))
    if lower is None:
        lower = np.zeros(n)
    if upper is None:
        upper = np.full(n, np.inf)
    coeffs, senses, rhs, names = zip(*(
        spec if len(spec) == 4 else (*spec, f"r{i}")
        for i, spec in enumerate(rows))) if rows else ((),) * 4
    coeffs = [np.asarray(a, dtype=float) for a in coeffs]
    nz = [np.flatnonzero(a) for a in coeffs]
    return LPInstance(
        n_cols=n, objective=c, indptr=np.cumsum([0] + [k.size for k in nz]),
        indices=np.concatenate([np.zeros(0, np.int64)] + nz),
        data=np.concatenate([np.zeros(0)] + [a[k] for a, k in zip(coeffs, nz)]),
        sense=senses, rhs=[float(r) for r in rhs], row_names=names,
        row_tags=[""] * len(names), lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
        col_names=tuple(col_names), offset=offset, audit=dict(audit or {}))
