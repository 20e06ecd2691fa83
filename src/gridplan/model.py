"""Shared domain types, the capacity table, the input requirements, and
the capital-annualization primitive.

Everything here is an immutable value type: construction either succeeds and
yields an object safe to share across threads, or raises ``ValueError``.
``requirements`` (what the LP needs of the inputs) and ``validate`` (those
plus the bundle's conventions) are the exception - they never raise, they
return a report; ``formulation.BuildInputs`` raises on ``requirements``.

Unit conventions used throughout the package: power in MW, energy in MWh on a
1-hour grid (so hourly energy equals average power numerically), money in
dollars. Capital costs are quoted per kW (or per kWh for storage energy) in
inputs and converted to per-MW / per-MWh once, at formulation time.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields
from typing import Mapping

import numpy as np

HOURS_PER_YEAR = 8760
HOURS_PER_DAY = 24

#: Heat-rate constant converting electrical MWh to fuel MMBTU at unit efficiency.
HEAT_RATE_MMBTU_PER_MWH = 3.412

_POTENTIAL_TOL = 1e-9
FRACTION_SUM_TOL = 1e-6


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _freeze_series(mapping: Mapping[str, np.ndarray] | None):
    if mapping is None:
        return None
    return {k: _frozen_array(v) for k, v in mapping.items()}


@dataclass(frozen=True)
class NodeSpec:
    """Existing capacities, resource caps, and per-node operating limits."""

    id: str
    onshore_existing_mw: float = 0.0
    offshore_existing_mw: float = 0.0
    us_solar_existing_mw: float = 0.0
    btm_solar_existing_mw: float = 0.0
    gas_existing_mw: float = 0.0
    hydro_fixed_mw: float = 0.0
    hydro_flex_mw: float = 0.0
    hydro_flex_hourly_max_mwh: float = 0.0
    nuclear_mw: float = 0.0
    nuclear_gen_mwh_per_h: float = 0.0
    biofuel_mw: float = 0.0
    biofuel_daily_mwh: float = 0.0
    battery_energy_existing_mwh: float = 0.0
    battery_power_existing_mw: float = 0.0
    import_limit_mwh: float = 0.0
    onshore_max_mw: float = 0.0
    us_solar_max_mw: float = 0.0
    btm_fraction: float = 0.0
    existing_tx_flow_mwh: float = 0.0

    def charged_mw(self, include_nuclear: bool) -> float:
        """Existing capacity subject to the fixed maintenance charge: all
        existing hydro, nuclear, fossil and biofuel capacity, less nuclear
        when the scenario excludes it."""
        mw = (self.hydro_fixed_mw + self.hydro_flex_mw + self.nuclear_mw
              + self.gas_existing_mw + self.biofuel_mw)
        return mw if include_nuclear else mw - self.nuclear_mw

    @property
    def burns_biofuel(self) -> bool:
        """Whether the node has biofuel capacity or daily biofuel energy."""
        return self.biofuel_mw > 0.0 or self.biofuel_daily_mwh > 0.0


@dataclass(frozen=True)
class InterfaceSpec:
    """A transmission interface between two nodes.

    Existing limits may differ by direction; new capacity built on the
    interface raises both directional limits equally.
    """

    node_a: str
    node_b: str
    distance_mi: float
    existing_fwd_mw: float = 0.0  # flow limit a -> b
    existing_rev_mw: float = 0.0  # flow limit b -> a

    @property
    def key(self) -> str:
        return f"{self.node_a}:{self.node_b}"


@dataclass(frozen=True)
class NetworkSpec:
    nodes: tuple[NodeSpec, ...]
    interfaces: tuple[InterfaceSpec, ...]
    offshore_cap_total_mw: float = 0.0

    def __init__(self, nodes, interfaces=(), offshore_cap_total_mw=0.0):
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "interfaces", tuple(interfaces))
        object.__setattr__(self, "offshore_cap_total_mw", float(offshore_cap_total_mw))

    @property
    def node_ids(self) -> list[str]:
        return [n.id for n in self.nodes]

    def node(self, node_id: str) -> NodeSpec:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)


@dataclass(frozen=True)
class CostTable:
    """All cost inputs, keyed per node (or per interface for transmission).

    Capital costs are $/kW ($/kWh for storage energy); fixed O&M $/kW-yr
    ($/MW-yr for transmission); variable O&M and energy prices $/MWh; fuel
    $/MMBTU; ramping $/MW-h. A node may build a technology only when it
    appears in that technology's capital-cost map.

    ``ex_tx`` is quoted per MWh of the fixed historical annual interface
    flow; the product with that flow is treated as a plain $/yr charge.
    """

    cap_on: Mapping[str, float] = field(default_factory=dict)
    cap_off: Mapping[str, float] = field(default_factory=dict)
    cap_us_solar: Mapping[str, float] = field(default_factory=dict)
    cap_batt_e: Mapping[str, float] = field(default_factory=dict)
    cap_batt_p: Mapping[str, float] = field(default_factory=dict)
    cap_h2_e: Mapping[str, float] = field(default_factory=dict)
    cap_h2_p: Mapping[str, float] = field(default_factory=dict)
    cap_ff: Mapping[str, float] = field(default_factory=dict)
    cap_tx: Mapping[str, float] = field(default_factory=dict)
    omf_on: Mapping[str, float] = field(default_factory=dict)
    omf_off: Mapping[str, float] = field(default_factory=dict)
    omf_us_solar: Mapping[str, float] = field(default_factory=dict)
    omf_batt_e: Mapping[str, float] = field(default_factory=dict)
    omf_batt_p: Mapping[str, float] = field(default_factory=dict)
    omf_h2_e: Mapping[str, float] = field(default_factory=dict)
    omf_h2_p: Mapping[str, float] = field(default_factory=dict)
    omf_ff: Mapping[str, float] = field(default_factory=dict)
    omf_tx: Mapping[str, float] = field(default_factory=dict)
    omv_ff: float = 0.0
    c_ff: Mapping[str, float] = field(default_factory=dict)
    c_hydro: Mapping[str, float] = field(default_factory=dict)
    c_nuc: Mapping[str, float] = field(default_factory=dict)
    c_bio: Mapping[str, float] = field(default_factory=dict)
    c_imp: Mapping[str, float] = field(default_factory=dict)
    c_existing_ramp: float = 0.0
    c_new_ramp: float = 0.0
    ex_cap: Mapping[str, float] = field(default_factory=dict)
    ex_tx: Mapping[str, float] = field(default_factory=dict)
    nominal_storage_charge: float = 0.01
    nominal_tx_charge: float = 0.01


#: One row per capital family: (LP column family, CostTable capital-cost
#: map, fixed-O&M map, TechParams.p_years class). A key (node or interface)
#: in the capital-cost map may build the family.
CAPACITY = (
    ("cap_onshore", "cap_on", "omf_on", "generation"),
    ("cap_offshore", "cap_off", "omf_off", "generation"),
    ("cap_us_solar", "cap_us_solar", "omf_us_solar", "generation"),
    ("cap_fossil", "cap_ff", "omf_ff", "generation"),
    ("cap_battery_energy", "cap_batt_e", "omf_batt_e", "storage"),
    ("cap_battery_power", "cap_batt_p", "omf_batt_p", "storage"),
    ("cap_h2_energy", "cap_h2_e", "omf_h2_e", "storage"),
    ("cap_h2_power", "cap_h2_p", "omf_h2_p", "storage"),
    ("cap_tx", "cap_tx", "omf_tx", "transmission"),
)


def build_keys(network: NetworkSpec, costs: CostTable,
               include_h2: bool) -> dict[str, tuple[str, ...]]:
    """Capital family -> the nodes (interfaces, for cap_tx) that may build
    it, sorted: the keys of its capital-cost map. Hydrogen builds nowhere
    when the scenario excludes it."""
    nodes = sorted(network.node_ids)
    ifaces = sorted(iface.key for iface in network.interfaces)
    keys = {fam: tuple(k for k in (ifaces if fam == "cap_tx" else nodes)
                       if k in getattr(costs, cap_field))
            for fam, cap_field, _, _ in CAPACITY}
    if not include_h2:
        keys["cap_h2_energy"] = keys["cap_h2_power"] = ()
    return keys


@dataclass(frozen=True)
class TechParams:
    """Technology performance parameters and financial settings."""

    eta_ff_existing: float = 0.428
    eta_ff_new: float = 0.344
    eta_batt: float = 0.946
    eta_h2: float = 0.592
    eta_veh: float = 1.0
    kappa: float = 0.001
    tx_loss: float = 0.03
    reserve_margin: float = 0.189
    phi_batt_min: float = 0.25
    phi_batt_max: float = 0.25
    p_years: Mapping[str, int] = field(
        default_factory=lambda: {"generation": 20, "storage": 10,
                                 "transmission": 20}
    )
    interest_rate: float = 0.05
    n_years: float = 1.0


@dataclass(frozen=True)
class TimeSeriesSet:
    """Hourly (and a few daily) input series, one array per node.

    Hourly arrays all share one length T. ``e_veh_daily_full`` and
    ``h_flex_daily`` are per-day arrays of length T/24.
    """

    d_elec: Mapping[str, np.ndarray]
    d_heat_full: Mapping[str, np.ndarray]
    w_on: Mapping[str, np.ndarray]
    w_off: Mapping[str, np.ndarray]
    w_us_solar: Mapping[str, np.ndarray]
    w_btm_solar: Mapping[str, np.ndarray]
    h_fix: Mapping[str, np.ndarray]
    nuclear: Mapping[str, np.ndarray]
    d_veh_full: Mapping[str, np.ndarray] | None = None
    e_veh_daily_full: Mapping[str, np.ndarray] | None = None
    h_flex_daily: Mapping[str, np.ndarray] | None = None

    _HOURLY_FIELDS = (
        "d_elec", "d_heat_full", "d_veh_full", "w_on", "w_off",
        "w_us_solar", "w_btm_solar", "h_fix", "nuclear",
    )
    _DAILY_FIELDS = ("e_veh_daily_full", "h_flex_daily")
    _POTENTIAL_FIELDS = ("w_on", "w_off", "w_us_solar", "w_btm_solar")

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name,
                               _freeze_series(getattr(self, f.name)))

    @property
    def n_hours(self) -> int:
        return len(next(iter(self.d_elec.values())))

    def modal_hours(self) -> int:
        """Most common hourly-series length; robust to one bad series."""
        lengths: dict[int, int] = {}
        for name in self._HOURLY_FIELDS:
            mapping = getattr(self, name)
            if mapping is None:
                continue
            for arr in mapping.values():
                lengths[len(arr)] = lengths.get(len(arr), 0) + 1
        return max(lengths, key=lambda n: (lengths[n], n))


@dataclass(frozen=True)
class EVFlexConfig:
    """Flexible-EV charging settings: daily window and flexibility split."""

    y_flex: float
    h_start: int
    h_end: int
    h_min: int = 4

    def __post_init__(self):
        if not 0.0 <= self.y_flex <= 1.0:
            raise ValueError(f"y_flex must be in [0, 1], got {self.y_flex}")
        if not (0 <= self.h_start <= self.h_end <= 23):
            raise ValueError(
                "charging window must satisfy 0 <= h_start <= h_end <= 23 "
                f"(windows crossing midnight are not supported), got "
                f"[{self.h_start}, {self.h_end}]"
            )
        if self.h_min < 1:
            raise ValueError(f"h_min must be >= 1, got {self.h_min}")

    @property
    def window_hours(self) -> int:
        return self.h_end - self.h_start + 1


_MODES = ("lcp+hve", "ghg+hve", "ghg+lcp")


def _check_fraction(name: str, value) -> None:
    if value is None:
        return
    if isinstance(value, Mapping):
        for node, v in value.items():
            if not 0.0 <= float(v) <= 1.0:
                raise ValueError(f"{name}[{node}] must be in [0, 1], got {v}")
        return
    if not 0.0 <= float(value) <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario pins exactly two of: supply target, electrification, and
    emissions reduction. The third is left to the optimizer."""

    mode: str
    lcp: float | None = None
    p_heat: float | Mapping[str, float] | None = None
    p_veh: float | Mapping[str, float] | None = None
    omega: float | None = None
    rgt: float | None = None
    include_nuclear: bool = True
    include_h2: bool = False
    ev_flex: EVFlexConfig | None = None
    btm_year: int | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {_MODES}")
        has_p = self.p_heat is not None or self.p_veh is not None
        full_p = self.p_heat is not None and self.p_veh is not None
        if self.mode == "lcp+hve":
            if self.lcp is None or not full_p or self.omega is not None:
                raise ValueError(
                    "lcp+hve mode requires lcp and both electrification rates, "
                    "and leaves the emissions reduction free"
                )
        elif self.mode == "ghg+hve":
            if self.omega is None or not full_p or self.lcp is not None:
                raise ValueError(
                    "ghg+hve mode requires omega and both electrification "
                    "rates, and leaves the supply target free"
                )
        elif self.mode == "ghg+lcp":
            if self.omega is None or self.lcp is None or has_p:
                raise ValueError(
                    "ghg+lcp mode requires omega and lcp, and leaves the "
                    "electrification rates free"
                )
        _check_fraction("lcp", self.lcp)
        _check_fraction("p_heat", self.p_heat)
        _check_fraction("p_veh", self.p_veh)
        _check_fraction("rgt", self.rgt)
        if self.omega is not None and self.omega > 1.0:
            raise ValueError(f"omega cannot exceed 1, got {self.omega}")

    def p_heat_for(self, node_id: str) -> float:
        return _per_node_fraction(self.p_heat, node_id)

    def p_veh_for(self, node_id: str) -> float:
        return _per_node_fraction(self.p_veh, node_id)


def _per_node_fraction(value, node_id: str) -> float:
    if value is None:
        raise ValueError("electrification rate is free in this mode")
    if isinstance(value, Mapping):
        return float(value[node_id])
    return float(value)


def annualization_rate(period_years: int, interest_rate: float) -> float:
    """Per-year capital recovery factor for a repayment period and rate.

    Returns ``j(1+j)^P / ((1+j)^P - 1)``; at ``j = 0`` the continuous limit
    ``1/P`` is returned rather than raising, so rate sweeps can include zero.
    """
    if isinstance(period_years, numbers.Real) and not float(period_years).is_integer():
        raise ValueError(f"annualization period must be an integer, got {period_years}")
    p = int(period_years)
    if p < 1:
        raise ValueError(f"annualization period must be >= 1, got {period_years}")
    j = float(interest_rate)
    if j < 0.0:
        raise ValueError(f"interest rate must be >= 0, got {interest_rate}")
    if j == 0.0:
        return 1.0 / p
    growth = (1.0 + j) ** p
    return j * growth / (growth - 1.0)


def flex_hydro(node: NodeSpec, series: TimeSeriesSet) -> bool:
    """Whether the bundle gives ``node`` dispatchable (flexible) hydro:
    flexible capacity, or daily flexible energy."""
    return node.hydro_flex_mw > 0.0 or float(np.max(
        (series.h_flex_daily or {}).get(node.id, ()), initial=0.0)) > 0.0


def requirements(network: NetworkSpec, series: TimeSeriesSet,
                 costs: CostTable, params: TechParams,
                 config: ScenarioConfig | None = None, *,
                 emissions=None) -> list[str]:
    """Every requirement the LP places on the inputs; one message per
    violation. ``validate`` reports them and ``BuildInputs`` raises on them.

    ``config`` None reads the bundle under the most demanding scenario:
    nuclear included, hydrogen buildable and a GHG-reduction target, which
    reads the emissions calibration ``emissions`` (if one is given; a
    scenario with a target needs one).
    """
    v: list[str] = []
    ids = network.node_ids
    for what, keys in (("node ids", ids),
                       ("interface keys", [i.key for i in network.interfaces])):
        if len(set(keys)) != len(keys):
            v.append(f"duplicate {what}: "
                     f"{sorted({k for k in keys if keys.count(k) > 1})}")
    for iface in network.interfaces:
        if iface.node_a not in ids or iface.node_b not in ids:
            v.append(f"interface {iface.key} references an unknown node")
        if iface.node_a == iface.node_b:
            v.append(f"interface {iface.key} joins a node to itself")
        if iface.distance_mi <= 0.0:
            v.append(f"interface {iface.key} distance must be > 0")

    n_hours = series.modal_hours()
    for name in (*TimeSeriesSet._HOURLY_FIELDS, *TimeSeriesSet._DAILY_FIELDS):
        mapping = getattr(series, name)
        expected = (n_hours if name in TimeSeriesSet._HOURLY_FIELDS
                    else n_hours // HOURS_PER_DAY)
        for n in ids if mapping is not None else ():
            if n not in mapping:
                v.append(f"series {name} missing for node {n}")
            elif len(mapping[n]) != expected:
                v.append(f"series {name}[{n}] length {len(mapping[n])} "
                         f"!= expected {expected}")
    if series.d_veh_full is None and series.e_veh_daily_full is None:
        v.append("no vehicle demand series supplied (hourly or daily)")
    elif series.d_veh_full is None and config is not None \
            and config.ev_flex is None:
        v.append("fixed EV charging (no ev_flex) needs the hourly vehicle "
                 "series d_veh_full")

    for node in network.nodes:
        if not 0.0 <= node.btm_fraction <= 1.0:
            v.append(f"node {node.id}: btm_fraction={node.btm_fraction} "
                     "outside [0, 1]")
        if node.hydro_flex_hourly_max_mwh > 0.0 and node.hydro_flex_mw == 0.0:
            v.append(
                f"node {node.id}: flexible-hydro hourly cap set with no "
                "flexible hydro capacity"
            )
        if node.hydro_flex_mw > 0.0 and series.h_flex_daily is None:
            v.append(f"node {node.id} has flexible hydro capacity but no "
                     "daily energy series")

    include_nuclear = config is None or config.include_nuclear
    built = build_keys(network, costs, config is None or config.include_h2)

    def need(cost: str, key: str, why: str) -> None:
        if key not in getattr(costs, cost):
            v.append(f"missing cost {cost}[{key}] for {why}")

    cap_field = {fam: cap for fam, cap, _, _ in CAPACITY}
    for fam, _, omf_field, _ in CAPACITY:
        for key in built[fam]:
            need(omf_field, key, f"{fam}[{key}]")
    for energy, power in (("cap_battery_energy", "cap_battery_power"),
                          ("cap_h2_energy", "cap_h2_power")):
        for have, lack in ((energy, power), (power, energy)):
            for key in built[have]:
                need(cap_field[lack], key, f"{have}[{key}]")
    # The cost of each energy and charge the objective prices
    # (``BuildInputs._classify`` and ``fixed_charges``).
    for node in network.nodes:
        n = node.id
        for cost, why, used in (
            ("c_ff", "fossil fuel",
             node.gas_existing_mw > 0.0 or n in built["cap_fossil"]),
            ("c_hydro", "hydro energy", flex_hydro(node, series)
             or np.sum(series.h_fix.get(n, ())) > 0.0),
            ("c_nuc", "nuclear energy",
             include_nuclear and np.sum(series.nuclear.get(n, ())) > 0.0),
            ("c_bio", "biofuel energy", node.burns_biofuel),
            ("c_imp", "imported energy", node.import_limit_mwh > 0.0),
            ("ex_cap", "existing-capacity maintenance",
             node.charged_mw(include_nuclear) > 0.0),
            ("ex_tx", "existing-transmission charges",
             node.existing_tx_flow_mwh > 0.0),
        ):
            if used:
                need(cost, n, why)

    for name in ("eta_ff_existing", "eta_ff_new", "eta_batt", "eta_h2",
                 "eta_veh"):
        if not 0.0 < getattr(params, name) <= 1.0:
            v.append(f"parameter {name}={getattr(params, name)} "
                     "outside (0, 1]")
    if not 0.0 <= params.kappa <= 1.0:
        v.append(f"parameter kappa={params.kappa} outside [0, 1]")
    if not 0.0 <= params.tx_loss < 1.0:
        v.append(f"parameter tx_loss={params.tx_loss} outside [0, 1)")
    if params.reserve_margin < 0.0:
        v.append("reserve margin must be >= 0")
    if params.phi_batt_min > params.phi_batt_max:
        v.append("phi_batt_min exceeds phi_batt_max")
    if params.phi_batt_min < 0.0:
        v.append("phi_batt_min must be >= 0")
    for cls, years in params.p_years.items():
        if years < 1:
            v.append(f"annualization period for {cls} must be >= 1")
    for cls in sorted({cls for fam, _, _, cls in CAPACITY if built[fam]}
                      - set(params.p_years)):
        v.append(f"p_years has no annualization period for {cls!r}")
    if params.interest_rate < 0.0:
        v.append("interest rate must be >= 0")
    if params.n_years <= 0.0:
        v.append("n_years must be > 0")

    if config is not None and config.omega is not None and emissions is None:
        v.append("a GHG-reduction target needs an emissions calibration")
    if emissions is not None and (config is None or config.omega is not None):
        for name in ("f_heat_tot_mj", "f_veh_tot_mj"):
            keys = set(getattr(emissions, name))
            if keys != set(ids):
                v.append(f"emissions calibration {name} must give one value "
                         f"per network node: missing "
                         f"{sorted(set(ids) - keys)}, unknown "
                         f"{sorted(keys - set(ids))}")

    if config is not None:
        for name in ("p_heat", "p_veh"):
            rates = getattr(config, name)
            if isinstance(rates, Mapping) and set(rates) != set(ids):
                v.append(f"{name} must give one rate per network node: "
                         f"missing {sorted(set(ids) - set(rates))}, "
                         f"unknown {sorted(set(rates) - set(ids))}")
        total = sum(node.btm_fraction for node in network.nodes)
        if config.btm_year is not None \
                and abs(total - 1.0) > FRACTION_SUM_TOL:
            v.append(f"btm_fraction sums to {total:g} over the nodes; "
                     "btm_year needs a sum of 1")
    return v


def validate(network: NetworkSpec, series: TimeSeriesSet, costs: CostTable,
             params: TechParams,
             config: ScenarioConfig | None = None, *,
             emissions=None) -> list[str]:
    """Check the inputs; return one message per violation.

    The messages are those of ``requirements`` (with ``config`` None, under
    the most demanding scenario), then the bundle's own conventions: no
    negative value, potentials at most 1, a whole number of days, and
    ``n_years`` matching the horizon. Report-only: never raises, never
    mutates. An empty list means the inputs are ready for formulation.
    """
    v = requirements(network, series, costs, params, config,
                     emissions=emissions)
    for iface in network.interfaces:
        if iface.existing_fwd_mw < 0.0 or iface.existing_rev_mw < 0.0:
            v.append(f"interface {iface.key} has a negative existing limit")
    if network.offshore_cap_total_mw < 0.0:
        v.append("negative regional offshore capacity limit")
    for node in network.nodes:
        for f in fields(node):
            if f.name not in ("id", "btm_fraction") \
                    and getattr(node, f.name) < 0.0:
                v.append(f"node {node.id}: negative {f.name}")

    n_hours = series.modal_hours()
    if n_hours % HOURS_PER_DAY:
        v.append(f"horizon of {n_hours} hours is not a whole number of days")
    for name in (*TimeSeriesSet._HOURLY_FIELDS, *TimeSeriesSet._DAILY_FIELDS):
        for node, arr in (getattr(series, name) or {}).items():
            if np.any(arr < 0.0):
                v.append(f"series {name}[{node}] contains negative values")
            if name in TimeSeriesSet._POTENTIAL_FIELDS \
                    and np.any(arr > 1.0 + _POTENTIAL_TOL):
                v.append(
                    f"series {name}[{node}] potential exceeds unity "
                    f"(max {float(arr.max()):.6g})"
                )

    for f in fields(costs):
        value = getattr(costs, f.name)
        if isinstance(value, Mapping):
            for key, cost in value.items():
                if cost < 0.0:
                    v.append(f"cost {f.name}[{key}] is negative")
        elif value < 0.0:
            v.append(f"cost {f.name} is negative")
    if abs(params.n_years * HOURS_PER_YEAR - n_hours) > HOURS_PER_DAY + 1e-6:
        v.append(
            f"n_years={params.n_years} inconsistent with a {n_hours}-hour "
            "horizon (more than one leap-day apart)"
        )
    return v
