"""Small shared model fixtures used across the unit-test modules, the
scenario-LP build, a builder of small hand-written LPs, a dense view of an
LP for the reference solvers in the solver tests, the benchmark's seeded
demand factor, the shipped fixture tiled in time, per-line renderings of
the MPS, operations and series CSV text that the array writers are checked
against, and the dual simplex's ratio test in its mask-based form.

These are deliberately tiny (2 nodes, 48 hours) and hand-sized so expected
values stay derivable by inspection or an independent one-liner.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Sequence

import numpy as np

import gridplan
from gridplan import reporting
from gridplan.formulation import GE, LE, BuildInputs, LPInstance, assemble
from gridplan.model import (
    CostTable,
    InterfaceSpec,
    NetworkSpec,
    NodeSpec,
    TechParams,
    TimeSeriesSet,
)
from gridplan.runner import load_bundle
from gridplan.solver import _Simplex

T = 48
FIXTURE = Path(gridplan.__file__).parent / "data" / "two_node_48h"


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


def tiled_fixture(k: int, seed: int = 0):
    """The shipped bundle, tiled by ``tile_bundle``."""
    return tile_bundle(load_bundle(FIXTURE), k, seed)


def tile_bundle(bundle, k: int, seed: int = 0):
    """``bundle`` with every series tiled ``k`` times, n_years scaled to
    match and its hourly demand scaled by the benchmark's factor for
    ``seed``."""
    series = bundle.series
    nodes = sorted(series.d_elec)
    n_hours = series.n_hours * k

    def tile(name, node, arr):
        arr = np.tile(arr, k)
        if name in ("d_elec", "d_heat_full", "d_veh_full"):
            arr = arr * demand_factor(seed, nodes.index(node), n_hours)
        return arr

    return dataclasses.replace(
        bundle,
        series=dataclasses.replace(series, **{
            name: {node: tile(name, node, arr)
                   for node, arr in mapping.items()}
            for name, mapping in vars(series).items() if mapping is not None}),
        params=dataclasses.replace(bundle.params,
                                   n_years=bundle.params.n_years * k))


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


def mps_lines_oracle(left_text, left, right_text, right, values) -> str:
    """MPS section lines rendered one at a time: line i is
    ``left_text[left[i]] + right_text[right[i]] + repr(values[i])``."""
    return "".join(f"{left_text[i]}{right_text[j]}{value!r}\n"
                   for i, j, value in zip(np.asarray(left).tolist(),
                                          np.asarray(right).tolist(),
                                          np.asarray(values).tolist()))


def operations_csv_oracle(inp: BuildInputs, lp: LPInstance, solution) -> str:
    """``operations.csv`` rendered one line at a time, by node, then hour,
    then resource name, each line ``"{node},{t},{resource},{mwh!r}"``."""
    hourly = reporting._hourly_series(inp, solution.x)
    slacks = reporting._balance_slacks(inp, lp, solution)
    lines = ["node,t,resource,mwh\n"]
    for n in inp.node_ids:
        series = {**hourly[n], "curtailment": np.maximum(slacks[n], 0.0)}
        for t in range(inp.n_hours):
            lines.extend(f"{n},{t},{r},{float(series[r][t])!r}\n"
                         for r in sorted(series))
    return "".join(lines)


def series_csv_oracle(mapping) -> str:
    """A series CSV as ``save_bundle`` writes it, rendered one line at a
    time: nodes sorted, hours ascending, each line
    ``"{node},{t},{value!r}"``."""
    lines = ["node,t,value"]
    for node in sorted(mapping):
        arr = np.asarray(mapping[node], dtype=float)
        lines.extend(f"{node},{t},{float(arr[t])!r}" for t in range(len(arr)))
    return "\n".join(lines) + "\n"


def make_lp(objective: Sequence[float],
            rows: Sequence[tuple],
            *,
            upper=None,
            lower=None,
            col_names=None,
            offset: float = 0.0) -> LPInstance:
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
        col_names=tuple(col_names), offset=offset)


def count_inverts(monkeypatch) -> list:
    """Patch the simplex's ``_invert`` to record each call."""
    inverts = []
    invert = _Simplex._invert

    def counted(self):
        inverts.append(None)
        return invert(self)

    monkeypatch.setattr(_Simplex, "_invert", counted)
    return inverts


def worst_reduced_cost(lp: LPInstance, sol) -> float:
    """The largest reduced cost of an optimal ``sol`` that prices a move the
    wrong way, in the LP's own units (objective per unit of the column or
    of the row's slack), from the LP's arrays and ``sol.duals`` alone; 0 at
    a proven optimum.

    A column's reduced cost is d_j = c_j - sum_i y_i a_ij. It is wrong when
    d_j < 0 and the column is below its upper bound, or d_j > 0 and above
    its lower bound. A <= row's slack has reduced cost -y_i, and a >= row's
    surplus y_i; either is wrong when negative, or positive while the row
    is loose. "At a bound" and "tight" are judged to 1e-9 relative of the
    bound or of the row's largest term.
    """
    x, y = sol.x, sol.duals
    d = lp.objective - np.bincount(lp.indices, weights=lp.data * y[lp.row_of],
                                   minlength=lp.n_cols)
    below_upper = lp.upper - x > 1e-9 * np.maximum(1.0, np.abs(lp.upper))
    above_lower = x - lp.lower > 1e-9 * np.maximum(1.0, np.abs(lp.lower))
    wrong = np.where(d < 0.0, below_upper, above_lower) * np.abs(d)
    term = np.zeros(lp.n_rows)
    np.maximum.at(term, lp.row_of, np.abs(lp.data * x[lp.indices]))
    loose = sol.slacks > 1e-9 * np.maximum(1.0, term)
    d_row = np.where(lp.sense == LE, -y, np.where(lp.sense == GE, y, 0.0))
    wrong_row = np.where(d_row < 0.0, 1.0, loose) * np.abs(d_row)
    return float(max(wrong.max(initial=0.0), wrong_row.max(initial=0.0)))


def mask_ratio_test(alpha, vstat, ub, d, violation, to_lower, ftol):
    """The bound-flipping ratio test as ``_Simplex.dual`` ran it inline
    before ``_Simplex._ratio_test`` took it over, with its masks and sign
    choices, kept as that method's oracle: the entering column and the
    columns flipped, or None.

    The leaving variable's pivot row is ``alpha``; it misses its lower
    bound (``to_lower``) or its upper one by ``violation``; ``vstat``,
    ``ub`` and ``d`` are every column's status, upper bound and reduced
    cost.
    """
    movable = ub > 0.0  # fixed columns never enter
    # Moving a candidate off its bound moves x_Br toward the bound
    # it violates.
    toward = -alpha if to_lower else alpha
    at_lower = vstat == _Simplex.AT_LOWER
    at_upper = vstat == _Simplex.AT_UPPER
    piv_tol = 1e-7 * min(1.0, float(np.abs(
        alpha[movable & (at_lower | at_upper)]).max(initial=0.0)))
    cand = np.flatnonzero(movable & (
        (at_lower & (toward > piv_tol))
        | (at_upper & (toward < -piv_tol))))
    # Reduced costs a hair on the wrong side count as 0.
    ratio = np.maximum(np.where(at_lower[cand], d[cand], -d[cand]),
                       0.0) / np.abs(toward[cand])
    order = np.argsort(ratio, kind="stable")
    cand, ratio = cand[order], ratio[order]
    # What is left of the violation after passing each breakpoint;
    # within the tolerance is none, as flips that exactly close it
    # can leave roundoff.
    left = violation - np.cumsum(np.abs(alpha[cand]) * ub[cand])
    if cand.size == 0 or left[-1] > ftol:
        return None
    stop = int(np.argmax(left <= ftol))
    # Of the breakpoints tied with the stop, the largest pivot.
    tied = stop + np.flatnonzero(ratio[stop:] <= ratio[stop] + 1e-12)
    q = int(cand[tied[np.argmax(np.abs(alpha[cand[tied]]))]])
    return q, cand[:stop]
