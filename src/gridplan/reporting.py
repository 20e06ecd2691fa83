"""Turn a solved scenario into numbers someone can act on.

Everything here is post-processing: cost attribution by resource, levelized
cost of delivered electricity, curtailment split across the variable
resources that could have produced it, realized policy metrics (low-carbon
share, emissions), and serialization: ``report.json`` and ``report.csv``
hold scalars and totals, and ``operations.csv`` every hourly series.

Every hourly quantity comes from one table, built by ``_hourly_series``
from the raw inputs and the solution vector: for each node, its hourly
series keyed by the resource names of ``operations.csv`` (wind and solar
potentials, must-run hydro and nuclear, the dispatch, storage and EV
families, the consumer load, and the sent and delivered energy of each
flow direction), and two name sets say how each enters the node's balance
row. Curtailment attribution, excess low-carbon energy, generation
totals, net demand, the operations dump and energy closure all read this
table, so which series make up a node's supply and load is decided once.

Two closure checks keep the bookkeeping honest. Cost closure requires the
per-resource buckets plus the nominal activity charges to re-add to the
optimizer's objective. Energy closure sums each node-hour's supply and load
from the hourly table and measures the worst residual against the recorded
row slack. It reads nothing of the constraint matrix, so it stays an
independent check of the formulation.
"""

from __future__ import annotations

import csv
import dataclasses
import io
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .emissions import EmissionsLedger, electricity_emissions, ghg_reduction
from .formulation import VRE, BuildInputs, LPInstance
from .solver import Solution, float_text, write_lines

__all__ = [
    "CSV_COLUMNS",
    "CurtailmentReport",
    "ExcessReport",
    "ScenarioReport",
    "attribute_curtailment",
    "compute_lcoe",
    "csv_row",
    "energy_closure",
    "excess_percent",
    "excess_series",
    "realized_emissions",
    "report_json_dict",
    "summarize",
    "unit_cost",
    "write_operations_csv",
    "write_report_csv",
]


# --------------------------------------------------------------------------
# scalar primitives


def compute_lcoe(total_cost_usd: float, net_demand_mwh: float) -> float:
    """Levelized cost of energy in $/MWh over the net served demand."""
    if net_demand_mwh <= 0.0:
        raise ValueError(
            f"net demand must be positive to level costs, got {net_demand_mwh!r}")
    return total_cost_usd / net_demand_mwh


def unit_cost(cost_usd: float, delivered_mwh: float) -> float | None:
    """Attributed cost per delivered MWh, or None when nothing was delivered.

    An idle resource has no meaningful unit cost; returning None (serialized
    as an empty field) keeps it distinct from a genuinely free resource.
    """
    if delivered_mwh <= 0.0:
        return None
    return cost_usd / delivered_mwh


def attribute_curtailment(
        slack_mwh: float | np.ndarray,
        potentials: Mapping[str, float | np.ndarray]) -> dict:
    """Split curtailed energy across resources by potential, hour by hour.

    ``slack_mwh`` and each potential are one hour's number or an array of
    hours. Each resource receives a share proportional to what it could
    have produced that hour. In an hour where nothing had potential the
    whole slack lands in an ``"other"`` bucket rather than being divided by
    zero. Scalar inputs give floats, array inputs arrays.
    """
    slack = np.asarray(slack_mwh, dtype=float)
    pots = {key: np.asarray(value, dtype=float)
            for key, value in potentials.items()}
    total = sum(pots.values())
    idle = total <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = {key: np.where(idle, 0.0, slack * value / total)
               for key, value in pots.items()}
    out["other"] = np.where(idle, slack, 0.0)
    return {key: value if value.ndim else float(value)
            for key, value in out.items()}


def excess_series(potential, demand) -> np.ndarray:
    """Hourly low-carbon energy beyond concurrent demand (never negative)."""
    pot = np.asarray(potential, dtype=float)
    dem = np.asarray(demand, dtype=float)
    return np.maximum(pot - dem, 0.0)


def excess_percent(potential, demand) -> float:
    """Excess low-carbon energy as a percentage of low-carbon potential."""
    pot = np.asarray(potential, dtype=float)
    total = float(pot.sum())
    if total <= 0.0:
        return 0.0
    return 100.0 * float(excess_series(pot, demand).sum()) / total


# --------------------------------------------------------------------------
# solution access helpers


def _col_scalar(inp: BuildInputs, x: np.ndarray, fam: str, key: str) -> float:
    j = inp.catalog.col(fam, key)
    return float(x[j]) if j is not None else 0.0


def _family_total(inp: BuildInputs, x: np.ndarray, fam: str) -> float:
    """Sum of one variable family over all its nodes and hours."""
    return float(x[inp.catalog.family(fam)].sum())


def _require_x(solution: Solution) -> np.ndarray:
    if solution.x is None:
        raise ValueError(
            f"no solution values to report (status={solution.status})")
    return solution.x


def _solved_rates(inp: BuildInputs, x: np.ndarray) -> tuple[float, float]:
    return (float(x[inp.catalog.col("rate_heat")]),
            float(x[inp.catalog.col("rate_veh")]))


def _weighted_rate(value, weights: Mapping[str, float]) -> float:
    """Energy-weighted mean of a per-node fraction (scalar passes through)."""
    if value is None:
        return 0.0
    if not isinstance(value, Mapping):
        return float(value)
    total = float(sum(weights.get(n, 0.0) for n in value))
    if total <= 0.0:
        return float(np.mean([float(v) for v in value.values()])) if value else 0.0
    return sum(float(value[n]) * weights.get(n, 0.0) for n in value) / total


def _electrified_rates(inp: BuildInputs, x: np.ndarray) -> tuple[float, float]:
    if inp.free_p:
        return _solved_rates(inp, x)
    series = inp.series
    heat_w = {n: float(np.sum(series.d_heat_full[n])) for n in inp.node_ids} \
        if series.d_heat_full is not None else {}
    if series.d_veh_full is not None:
        veh_w = {n: float(np.sum(series.d_veh_full[n])) for n in inp.node_ids}
    else:
        veh_w = {n: float(np.sum(series.e_veh_daily_full[n]))
                 for n in inp.node_ids}
    return (_weighted_rate(inp.config.p_heat, heat_w),
            _weighted_rate(inp.config.p_veh, veh_w))


_POTENTIALS = (*VRE, "btm-solar")  # curtailment buckets, besides "other"

# operations resource -> the variable family holding its hourly values
_FAMILY_SERIES = {
    "fossil-existing": "fossil_ex",
    "fossil-new": "fossil_new",
    "hydro-flex": "hydro_flex",
    "biofuel": "biofuel",
    "imports": "imports",
    "battery-charge": "batt_charge",
    "battery-discharge": "batt_discharge",
    "battery-soc": "batt_soc",
    "h2-charge": "h2_charge",
    "h2-discharge": "h2_discharge",
    "h2-soc": "h2_soc",
}

# Series that draw on their node's balance row (with every flow-out[d]),
# and series that stay outside it (storage levels, and EV charging, which
# "load" already holds). Every other series supplies the node.
_DRAWS = frozenset({"load", "battery-charge", "h2-charge"})
_OUTSIDE_BALANCE = frozenset({"battery-soc", "h2-soc", "ev-charging"})


def _hourly_series(inp: BuildInputs,
                   x: np.ndarray) -> dict[str, dict[str, np.ndarray]]:
    """Each node's hourly series in MWh, keyed by operations resource name.

    A node has a wind or solar potential where that capacity exists or can
    be built, a family's series where the catalog holds its columns,
    must-run hydro and nuclear where they produce, EV charging at EV nodes,
    a consumer load (grid demand, electrified end uses and EV charging),
    and ``flow-out[d]``/``flow-in[d]`` (sent, and delivered net of losses)
    at the two ends of each flow direction ``d``. ``_DRAWS`` and
    ``_OUTSIDE_BALANCE`` say how each series enters the node's balance.
    """
    dem, series, cat = inp.demand, inp.series, inp.catalog
    receive = 1.0 - inp.params.tx_loss
    # Fixed rates are already applied in the end-use series, which then
    # scale by 1.0 (an exact product).
    r_heat, r_veh = _solved_rates(inp, x) if inp.free_p else (1.0, 1.0)
    table = {}
    for n in inp.node_ids:
        node = inp.network.node(n)
        out = {}
        for bucket, (fam, existing, weather) in VRE.items():
            mw = getattr(node, existing)
            if mw or cat.col(fam, n) is not None:
                out[bucket] = (mw + _col_scalar(inp, x, fam, n)) * np.asarray(
                    getattr(series, weather)[n], dtype=float)
        if dem.x_btm_mw[n] > 0.0:
            out["btm-solar"] = dem.x_btm_mw[n] * np.asarray(
                series.w_btm_solar[n], dtype=float)
        for resource, fam in _FAMILY_SERIES.items():
            cols = cat.cols(fam, n)
            if cols is not None:
                out[resource] = x[cols]
        h_fix = np.asarray(series.h_fix[n], dtype=float)
        if np.any(h_fix != 0.0):
            out["hydro-fixed"] = h_fix
        nuclear = np.asarray(series.nuclear[n], dtype=float)
        if inp.config.include_nuclear and np.any(nuclear != 0.0):
            out["nuclear"] = nuclear
        ev = np.zeros(inp.n_hours)
        if n in inp.ev_nodes:
            ev[list(inp.ev_hours)] = x[cat.cols("ev_flex", n)]
            out["ev-charging"] = ev
        heat = np.asarray(dem.d_heat[n], dtype=float)
        veh = np.asarray(dem.d_veh_fix[n], dtype=float)
        out["load"] = np.asarray(series.d_elec[n], dtype=float) \
            + (r_heat * heat + r_veh * veh) + ev
        for direction in inp.outflow[n]:
            out[f"flow-out[{direction}]"] = x[cat.cols("flow", direction)]
        for direction in inp.inflow[n]:
            out[f"flow-in[{direction}]"] = \
                receive * x[cat.cols("flow", direction)]
        table[n] = out
    return table


def _balance_slacks(inp: BuildInputs, lp: LPInstance,
                    solution: Solution) -> dict[str, np.ndarray]:
    """Signed surplus of every node-hour balance row (the curtailment), as
    recorded with the solution: every solver and import records slacks
    beside its point, so nothing here reads the constraint matrix."""
    # The formulation adds balance rows node by node, hours ascending.
    rows = np.flatnonzero(lp.row_tags == "balance")
    return dict(zip(inp.node_ids, solution.slacks[rows].reshape(
        len(inp.node_ids), inp.n_hours)))


# --------------------------------------------------------------------------
# realized metrics


def _net_demand(inp: BuildInputs, hourly) -> float:
    """Served load net of behind-the-meter solar, in MWh: the denominator
    of every levelized cost."""
    return sum(float(hourly[n]["load"].sum()) - inp.demand.x_btm_mw[n]
               * float(np.sum(inp.series.w_btm_solar[n]))
               for n in inp.node_ids)


def _low_carbon_share(inp: BuildInputs, x: np.ndarray,
                      net_demand: float) -> float:
    """Low-carbon share of in-state supply, by the policy row's algebra,
    so a binding target is met exactly."""
    non_qualifying = sum(_family_total(inp, x, fam)
                         for fam in ("fossil_ex", "fossil_new", "biofuel"))
    denom = net_demand - _family_total(inp, x, "imports")
    if denom <= 0.0:
        return 1.0
    return 1.0 - non_qualifying / denom


def realized_emissions(inp: BuildInputs,
                       solution: Solution) -> EmissionsLedger | None:
    """Emissions ledger at the solved operating point, or None when the
    scenario carries no emissions calibration."""
    cal = inp.emissions
    if cal is None:
        return None
    x = _require_x(solution)
    params = inp.params
    eps_elec = electricity_emissions(
        *(_family_total(inp, x, fam)
          for fam in ("fossil_ex", "fossil_new", "imports")),
        eta_existing=params.eta_ff_existing,
        eta_new=params.eta_ff_new,
        theta_ff_t_per_mwh=cal.theta_ff_t_per_mwh,
        theta_imp_t_per_mwh=cal.theta_imp_t_per_mwh,
        n_years=params.n_years,
    )
    if inp.free_p:
        r_heat, r_veh = _solved_rates(inp, x)
        # keep solver round-off from producing a (tiny) negative emission
        p_heat = min(max(r_heat, 0.0), 1.0)
        p_veh = min(max(r_veh, 0.0), 1.0)
    else:
        p_heat, p_veh = inp.demand.p_heat, inp.demand.p_veh
    eps_heat, eps_veh = cal.sector_constants(p_heat, p_veh)
    return EmissionsLedger(
        eps_elec=eps_elec,
        eps_heat=eps_heat,
        eps_veh=eps_veh,
        eps_transp_other=cal.eps_transp_other_mmt,
        eps_ind=cal.eps_industrial_mmt,
        eps_reference=cal.reference_mmt,
    )


# --------------------------------------------------------------------------
# curtailment and excess


@dataclass(frozen=True)
class CurtailmentReport:
    """Curtailed MWh over the horizon, split hour by hour across resources;
    ``operations.csv`` holds each node's hourly ``curtailment``."""

    total_mwh: float
    by_bucket_mwh: Mapping[str, float]


def _curtailment(inp: BuildInputs, hourly, slacks):
    """Balance-row surplus per node-hour, split across the variable
    resources by their potential that hour; the rest goes to "other".
    Returns the report and each bucket's MWh per node."""
    zero = np.zeros(inp.n_hours)
    by_node = {b: {} for b in (*_POTENTIALS, "other")}
    for n in inp.node_ids:
        # max(slack, 0.0) hour by hour, keeping its sign of zero
        surplus = np.where(0.0 > slacks[n], 0.0, slacks[n])
        shares = attribute_curtailment(
            surplus, {b: hourly[n].get(b, zero) for b in _POTENTIALS})
        for bucket, values in shares.items():
            by_node[bucket][n] = float(values.sum())
    totals = {b: sum(nodes.values()) for b, nodes in by_node.items()}
    return CurtailmentReport(total_mwh=float(sum(totals.values())),
                             by_bucket_mwh=totals), by_node


@dataclass(frozen=True)
class ExcessReport:
    """System-wide low-carbon MWh beyond concurrent demand over the
    horizon: each hour's ``operations.csv`` rows of the ``_LOW_CARBON``
    resources minus ``load``, summed over nodes and clipped at 0."""

    total_mwh: float
    potential_mwh: float
    percent: float


_LOW_CARBON = (*_POTENTIALS, "hydro-fixed", "hydro-flex", "nuclear")


def _excess(inp: BuildInputs, hourly) -> ExcessReport:
    """Hourly low-carbon potential beyond total consumer load, system-wide;
    storage and flows, being internal, count on neither side."""
    potential = np.zeros(inp.n_hours)
    load = np.zeros(inp.n_hours)
    for n in inp.node_ids:
        for name in _LOW_CARBON:
            if name in hourly[n]:
                potential += hourly[n][name]
        load += hourly[n]["load"]
    return ExcessReport(total_mwh=float(excess_series(potential, load).sum()),
                        potential_mwh=float(potential.sum()),
                        percent=excess_percent(potential, load))


# --------------------------------------------------------------------------
# energy closure


def energy_closure(inp: BuildInputs, lp: LPInstance,
                   solution: Solution) -> float:
    """Worst node-hour residual of supply - curtailment - load, in MWh.

    Supply and load are the hourly table's series, built from the inputs
    and the solution vector alone; curtailment comes from the recorded row
    slacks. The two routes only agree when the solution vector, the slacks,
    and this module's reading of the system all describe the same physics.
    """
    hourly = _hourly_series(inp, _require_x(solution))
    slacks = _balance_slacks(inp, lp, solution)
    worst = 0.0
    for n in inp.node_ids:
        residual = -slacks[n]
        for name, values in hourly[n].items():
            if name in _DRAWS or name.startswith("flow-out["):
                residual -= values
            elif name not in _OUTSIDE_BALANCE:
                residual += values
        worst = max(worst, float(np.max(np.abs(residual))))
    return worst


# --------------------------------------------------------------------------
# cost attribution


COST_KEYS = (
    "onshore", "offshore", "us-solar", "btm-solar", "fossil-existing",
    "fossil-new", "hydro", "nuclear", "biofuel", "imports", "battery",
    "hydrogen", "transmission", "existing-capacity",
)

LCOE_KEYS = (
    "onshore", "offshore", "us-solar", "btm-solar", "fossil-existing",
    "fossil-new", "hydro", "nuclear", "biofuel", "imports", "battery",
    "hydrogen",
)

# A resource whose delivered energy is at most this share of the scenario's
# net demand delivers nothing and has no LCOE: such an amount is a basic
# value at roundoff level (biofuel at 8e-27 GWh/h in a chained sweep's
# lcp 1 cell), and its unit cost would be a cost over no energy.
_IDLE_SHARE = 1e-9

CAPACITY_KEYS = (
    "onshore", "offshore", "us-solar", "btm-solar", "fossil-existing",
    "fossil-new", "hydro", "nuclear", "battery-power", "battery-energy",
    "h2-power", "h2-energy", "new-transmission",
)

GENERATION_KEYS = (
    "onshore", "offshore", "us-solar", "btm-solar", "hydro-fixed",
    "hydro-flex", "nuclear", "fossil-existing", "fossil-new", "biofuel",
    "imports", "battery-discharge", "h2-discharge",
)

# column families carrying real costs, mapped to their reporting bucket
_FAMILY_BUCKET = {
    "cap_onshore": "onshore",
    "cap_offshore": "offshore",
    "cap_us_solar": "us-solar",
    "cap_fossil": "fossil-new",
    "fossil_new": "fossil-new",
    "ramp_new": "fossil-new",
    "fossil_ex": "fossil-existing",
    "ramp_ex": "fossil-existing",
    "hydro_flex": "hydro",
    "biofuel": "biofuel",
    "imports": "imports",
    "cap_battery_energy": "battery",
    "cap_battery_power": "battery",
    "cap_h2_energy": "hydrogen",
    "cap_h2_power": "hydrogen",
    "cap_tx": "transmission",
}

# families whose only cost is the nominal anti-churn charge
_NOMINAL_FAMILIES = frozenset(
    {"batt_charge", "batt_discharge", "h2_charge", "h2_discharge", "flow"})


def _cost_buckets(inp: BuildInputs, lp: LPInstance,
                  x: np.ndarray) -> tuple[dict[str, float], float]:
    """(per-resource costs, nominal activity charges); sums to the objective.

    Each priced variable family contributes objective coefficients times
    values; the objective's constant offset is each node's fixed charges
    (``BuildInputs.fixed_charges``), split between the existing-capacity
    charge and the must-run energy buckets.
    """
    buckets = {key: 0.0 for key in COST_KEYS}
    nominal = 0.0
    for fam, block in inp.catalog.blocks.items():
        span = slice(block.offset, block.stop)
        if not lp.objective[span].any():
            continue
        cost = float(lp.objective[span] @ x[span])
        if fam in _NOMINAL_FAMILIES:
            nominal += cost
        else:
            buckets[_FAMILY_BUCKET[fam]] += cost
    for n in inp.node_ids:
        for key, charge in zip(("existing-capacity", "hydro", "nuclear"),
                               inp.fixed_charges(n)):
            buckets[key] += charge
    return buckets, nominal


def _generation_mwh(inp: BuildInputs, x: np.ndarray, hourly,
                    curtailed) -> dict[str, float]:
    """Delivered energy per generation key over the horizon, in MWh:
    potentials net of ``curtailed`` (bucket -> node -> MWh)."""
    out = {key: 0.0 for key in GENERATION_KEYS}
    for n in inp.node_ids:
        for key, values in hourly[n].items():
            if key in _POTENTIALS:
                out[key] += float(values.sum()) - curtailed[key][n]
            elif key in ("hydro-fixed", "nuclear"):
                out[key] += float(values.sum())
    for key, fam in _FAMILY_SERIES.items():
        if key in out:
            out[key] = _family_total(inp, x, fam)
    return out


def _delivered_mwh(generation: Mapping[str, float]) -> dict[str, float]:
    """Delivered energy per LCOE key, matching the cost buckets."""
    out = {key: generation.get(key, 0.0) for key in LCOE_KEYS}
    out["hydro"] = generation["hydro-fixed"] + generation["hydro-flex"]
    out["battery"] = generation["battery-discharge"]
    out["hydrogen"] = generation["h2-discharge"]
    return out


def _capacity_gw(inp: BuildInputs, x: np.ndarray) -> dict[str, float]:
    """Installed capacity after the build decisions, in GW (energy in GWh)."""
    out = {key: 0.0 for key in CAPACITY_KEYS}
    for n in inp.node_ids:
        node = inp.network.node(n)
        for bucket, (fam, existing, _) in VRE.items():
            out[bucket] += getattr(node, existing) \
                + _col_scalar(inp, x, fam, n)
        out["btm-solar"] += inp.demand.x_btm_mw[n]
        out["fossil-existing"] += node.gas_existing_mw
        out["fossil-new"] += _col_scalar(inp, x, "cap_fossil", n)
        out["hydro"] += node.hydro_fixed_mw + node.hydro_flex_mw
        out["nuclear"] += node.nuclear_mw if inp.config.include_nuclear else 0.0
        out["battery-power"] += node.battery_power_existing_mw \
            + _col_scalar(inp, x, "cap_battery_power", n)
        out["battery-energy"] += node.battery_energy_existing_mwh \
            + _col_scalar(inp, x, "cap_battery_energy", n)
        out["h2-power"] += _col_scalar(inp, x, "cap_h2_power", n)
        out["h2-energy"] += _col_scalar(inp, x, "cap_h2_energy", n)
    out["new-transmission"] = _family_total(inp, x, "cap_tx")
    return {key: value / 1000.0 for key, value in out.items()}


# --------------------------------------------------------------------------
# the scenario report


@dataclass(frozen=True)
class ScenarioReport:
    """Everything reported for one solved scenario.

    ``None`` means "not defined here" (no emissions calibration, resource
    that delivered nothing, or at most 1e-9 of the net demand) and
    serializes as an empty CSV field or JSON null, never as zero.
    """

    label: str
    mode: str
    status: str
    lcp_target: float | None
    rgt_target: float | None
    omega_target: float | None
    heat_electrified: float
    vehicle_electrified: float
    lcp_realized: float
    ghg_reduction: float | None
    ghg_change_percent: float | None
    net_demand_mwh: float
    avg_load_gwh_per_hour: float
    total_cost_usd: float
    nominal_cost_usd: float
    lcoe_usd_per_mwh: float
    battery_throughput_gwh: float
    capacity: Mapping[str, float]
    generation_avg_gwh_per_hour: Mapping[str, float]
    cost_usd: Mapping[str, float]
    resource_lcoe_usd_per_mwh: Mapping[str, float | None]
    curtailment: CurtailmentReport
    excess: ExcessReport
    emissions: EmissionsLedger | None


def summarize(inp: BuildInputs, lp: LPInstance, solution: Solution,
              label: str = "") -> ScenarioReport:
    """Assemble the full report for a solved scenario."""
    x = _require_x(solution)
    hourly = _hourly_series(inp, x)
    curtail, curtailed = _curtailment(inp, hourly,
                                      _balance_slacks(inp, lp, solution))
    buckets, nominal = _cost_buckets(inp, lp, x)
    generation = _generation_mwh(inp, x, hourly, curtailed)
    delivered = _delivered_mwh(generation)
    per_hour = 1.0 / (inp.n_hours * 1000.0)
    net_demand = _net_demand(inp, hourly)
    resource_lcoe = {
        key: (unit_cost(buckets[key], delivered[key])
              if delivered[key] > _IDLE_SHARE * net_demand else None)
        for key in LCOE_KEYS}
    ledger = realized_emissions(inp, solution)
    reduction = ghg_reduction(ledger) if ledger is not None else None
    r_heat, r_veh = _electrified_rates(inp, x)
    return ScenarioReport(
        label=label,
        mode=inp.config.mode,
        status=solution.status,
        lcp_target=inp.config.lcp,
        rgt_target=inp.config.rgt,
        omega_target=inp.config.omega,
        heat_electrified=r_heat,
        vehicle_electrified=r_veh,
        lcp_realized=_low_carbon_share(inp, x, net_demand),
        ghg_reduction=reduction,
        ghg_change_percent=(
            -100.0 * reduction if reduction is not None else None),
        net_demand_mwh=net_demand,
        avg_load_gwh_per_hour=net_demand / (inp.n_hours * 1000.0),
        total_cost_usd=float(solution.objective),
        nominal_cost_usd=nominal,
        lcoe_usd_per_mwh=compute_lcoe(float(solution.objective), net_demand),
        battery_throughput_gwh=delivered["battery"] / 1000.0,
        capacity=_capacity_gw(inp, x),
        generation_avg_gwh_per_hour={
            key: value * per_hour for key, value in generation.items()},
        cost_usd=buckets,
        resource_lcoe_usd_per_mwh=resource_lcoe,
        curtailment=curtail,
        excess=_excess(inp, hourly),
        emissions=ledger,
    )


# --------------------------------------------------------------------------
# serialization


# ScenarioReport fields written as they are, then two derived by csv_row
_SCALAR_COLUMNS = (
    "label", "mode", "status", "lcp_target", "rgt_target", "omega_target",
    "heat_electrified", "vehicle_electrified", "lcp_realized",
    "ghg_reduction", "ghg_change_percent", "net_demand_mwh",
    "avg_load_gwh_per_hour", "total_cost_usd", "nominal_cost_usd",
    "lcoe_usd_per_mwh", "battery_throughput_gwh", "curtailment_gwh",
    "excess_low_carbon_percent",
)

# (ScenarioReport mapping field, column prefix, keys) per keyed family
_KEYED_COLUMNS = (
    ("capacity", "cap", CAPACITY_KEYS),
    ("generation_avg_gwh_per_hour", "gen", GENERATION_KEYS),
    ("cost_usd", "cost", COST_KEYS),
    ("resource_lcoe_usd_per_mwh", "lcoe", LCOE_KEYS),
)

CSV_COLUMNS = _SCALAR_COLUMNS + tuple(
    f"{prefix}[{key}]" for _, prefix, keys in _KEYED_COLUMNS for key in keys)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_row(report: ScenarioReport) -> dict[str, str]:
    """One flat CSV row; None becomes an empty field, floats use repr."""
    row = {name: getattr(report, name) for name in _SCALAR_COLUMNS[:-2]}
    row["curtailment_gwh"] = report.curtailment.total_mwh / 1000.0
    row["excess_low_carbon_percent"] = report.excess.percent
    for field, prefix, keys in _KEYED_COLUMNS:
        values = getattr(report, field)
        row.update((f"{prefix}[{key}]", values[key]) for key in keys)
    return {key: _cell(value) for key, value in row.items()}


def render_report_csv(items) -> str:
    """The report CSV as a string: one row per scenario.

    ``items`` may mix ScenarioReport objects with pre-rendered mappings
    (used for cells that failed to solve): their fields outside
    ``CSV_COLUMNS`` are ignored and missing ones are left empty.
    """
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS,
                            lineterminator="\n")
    writer.writeheader()
    for item in items:
        if isinstance(item, ScenarioReport):
            row = csv_row(item)
        else:
            row = {key: _cell(item.get(key)) for key in CSV_COLUMNS}
        writer.writerow(row)
    return buffer.getvalue()


def write_report_csv(path, items) -> None:
    """Write one CSV row per scenario (see render_report_csv)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(render_report_csv(items))


def _jsonify(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonify(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return value


def report_json_dict(report: ScenarioReport) -> dict:
    """The report as nested dicts of scalars, holding no list."""
    return _jsonify(report)


def write_operations_csv(path, inp: BuildInputs, lp: LPInstance,
                         solution: Solution) -> None:
    """Dump hourly operation as (node, t, resource, mwh) rows.

    Every series of the hourly table appears (dispatch decisions, must-run
    output, variable-resource potentials, storage state, load, and both
    ends of every interface flow, sent and delivered), plus each node's
    curtailment. Rows run node by node in ``inp.node_ids`` order (sorted),
    hours ascending, resources by name within an hour, so the file is
    sorted by (node, hour, resource) and repeat writes are byte-identical.
    """
    hourly = _hourly_series(inp, _require_x(solution))
    slacks = _balance_slacks(inp, lp, solution)
    hours = np.arange(inp.n_hours)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("node,t,resource,mwh\n")
        for n in inp.node_ids:
            series = {**hourly[n], "curtailment": np.maximum(slacks[n], 0.0)}
            names = sorted(series)
            # one line per (hour, resource), hour-major
            write_lines(
                fh,
                ([f"{n},{t}," for t in hours.tolist()],
                 np.repeat(hours, len(names))),
                ([f"{r}," for r in names],
                 np.tile(np.arange(len(names)), inp.n_hours)),
                float_text(np.column_stack([series[r] for r in names]),
                           "\n"))
