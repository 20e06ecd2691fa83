"""Builds scenario hourly demands from full-electrification series: heating
and vehicle scaling, fixed/flexible EV charging shapes, and the
behind-the-meter solar capacity projection."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from gridplan.model import (
    FIXED_EV_NEEDS_HOURLY,
    FRACTION_SUM_TOL,
    HOURS_PER_DAY,
    NetworkSpec,
    ScenarioConfig,
    TechParams,
    TimeSeriesSet,
    rate_problems,
)

LOGGER = logging.getLogger(__name__)


@dataclass(frozen=True)
class BTMGrowth:
    """Generalized-logistic growth constants for statewide BTM capacity."""

    k: float
    q: float
    b: float
    m: float
    v: float


DEFAULT_BTM_GROWTH = BTMGrowth(
    k=10982.023, q=1.680925e-4, b=0.1202713, m=1995.067, v=4.955324e-6
)


def btm_statewide_mw(year: float) -> float:
    """Statewide BTM solar capacity in a calendar year.

    Richards generalized logistic ``K / (1 + Q e^{-B(year-M)})^{1/v}``
    (``DEFAULT_BTM_GROWTH``): monotone in year and saturating at K.
    """
    if year < 2000:
        raise ValueError(f"projection starts at year 2000, got {year}")
    growth = DEFAULT_BTM_GROWTH
    z = growth.q * np.exp(-growth.b * (year - growth.m))
    return growth.k / np.power(1.0 + z, 1.0 / growth.v)


def btm_capacity(year: float,
                 nodal_fractions: Mapping[str, float]) -> dict[str, float]:
    """Distribute the statewide projection across nodes by fixed fractions."""
    total_frac = sum(nodal_fractions.values())
    if abs(total_frac - 1.0) > FRACTION_SUM_TOL:
        raise ValueError(f"nodal fractions must sum to 1, got {total_frac}")
    statewide = btm_statewide_mw(year)
    return {node: frac * statewide for node, frac in nodal_fractions.items()}


def _check_rate(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"electrification rate must be in [0, 1], got {p}")
    return p


def scale_heating(p_heat: float, full: np.ndarray) -> np.ndarray:
    """Hourly electrified heating demand at a given electrification rate."""
    return _check_rate(p_heat) * np.asarray(full, dtype=float)


def scale_vehicles(p_veh: float, full):
    """Vehicle demand (hourly series or daily total) at a given rate."""
    p = _check_rate(p_veh)
    if np.isscalar(full):
        return p * float(full)
    return p * np.asarray(full, dtype=float)


def split_ev_daily(e_daily, y_flex: float) -> tuple:
    """Split daily EV energy requirements (one day's, or an array of them)
    into (flexible, fixed) parts.

    The flexible part is computed first and the fixed part is the exact
    remainder, so the two always sum bit-exactly to the input.
    """
    y = _check_rate(y_flex)
    flex = y * e_daily
    return flex, e_daily - flex


def fixed_ev_profile(
    e_fix_daily: np.ndarray, eta_veh: float, window: tuple[int, int]
) -> np.ndarray:
    """Hourly charging load that spreads each day's fixed EV energy evenly
    over the charging window. Hours outside the window draw nothing."""
    if eta_veh <= 0.0:
        raise ValueError("vehicle charging efficiency must be positive")
    h_start, h_end = window
    if not (0 <= h_start <= h_end <= 23):
        raise ValueError(f"invalid charging window [{h_start}, {h_end}]")
    daily = np.asarray(e_fix_daily, dtype=float)
    width = h_end - h_start + 1
    out = np.zeros(len(daily) * HOURS_PER_DAY)
    out.reshape(-1, HOURS_PER_DAY)[:, h_start : h_end + 1] = (
        daily / (eta_veh * width))[:, None]
    return out


@dataclass(frozen=True)
class FlexEnvelope:
    """Per-day flexible-EV charging envelope.

    The optimizer must place exactly ``required_mwh`` of charging load within
    each day's window without exceeding ``hourly_cap_mwh`` in any hour.
    ``feasible`` is False when some day's cap times the window length cannot
    reach the requirement.
    """

    required_mwh: np.ndarray
    hourly_cap_mwh: np.ndarray
    window: tuple[int, int]
    feasible: bool

    def __post_init__(self):
        for name in ("required_mwh", "hourly_cap_mwh"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def flexible_ev_envelope(
    e_flex_daily: np.ndarray, eta_veh: float, h_min: int,
    window: tuple[int, int],
) -> FlexEnvelope:
    """Envelope for the flexible share of daily EV energy.

    The daily charging-load requirement is the energy divided by the
    charging efficiency; the hourly cap is the energy divided by the minimum
    spread duration (no efficiency term, by definition of the cap).
    """
    if eta_veh <= 0.0:
        raise ValueError("vehicle charging efficiency must be positive")
    if h_min < 1:
        raise ValueError("minimum spread must be at least one hour")
    h_start, h_end = window
    width = h_end - h_start + 1
    if width < h_min:
        raise ValueError(
            f"charging window of {width} h is shorter than the minimum "
            f"spread of {h_min} h"
        )
    daily = np.asarray(e_flex_daily, dtype=float)
    required = daily / eta_veh
    cap = daily / h_min
    feasible = bool(np.all(cap * width >= required - 1e-9))
    if not feasible:
        LOGGER.warning(
            "flexible EV envelope infeasible: window %s at cap %.6g cannot "
            "absorb requirement %.6g",
            window, float(cap.max(initial=0.0)), float(required.max(initial=0.0)),
        )
    return FlexEnvelope(required_mwh=required, hourly_cap_mwh=cap,
                        window=window, feasible=feasible)


@dataclass(frozen=True)
class DemandBundle:
    """Synthesized per-node demand for one scenario.

    In free-electrification mode the heating and vehicle quantities are the
    full-electrification values (rate 1.0) and ``free_p`` is set; the
    formulation scales them by the rate decision variables instead.
    ``net_mwh`` is their net demand, which levels every cost: grid load,
    end uses and EV daily totals, less behind-the-meter solar output.
    """

    d_heat: Mapping[str, np.ndarray]
    d_veh_fix: Mapping[str, np.ndarray]
    ev_envelopes: Mapping[str, FlexEnvelope | None]
    x_btm_mw: Mapping[str, float]
    p_heat: Mapping[str, float] | None
    p_veh: Mapping[str, float] | None
    free_p: bool
    net_mwh: float


def _daily_totals(hourly: np.ndarray) -> np.ndarray:
    return hourly.reshape(-1, HOURS_PER_DAY).sum(axis=1)


def synthesize_demand(
    network: NetworkSpec,
    series: TimeSeriesSet,
    config: ScenarioConfig,
    params: TechParams,
) -> DemandBundle:
    """Assemble the scenario's electrified demand from the input series.
    Raises ValueError, in ``validate``'s words, for a rate or a series
    that the demand needs and the inputs lack."""
    problems = rate_problems(config, network.node_ids)
    if config.ev_flex is None and series.d_veh_full is None:
        problems.append(FIXED_EV_NEEDS_HOURLY)
    if problems:
        raise ValueError("; ".join(problems))
    free_p = config.mode == "ghg+lcp"

    if config.btm_year is not None:
        fractions = {n.id: n.btm_fraction for n in network.nodes}
        x_btm = btm_capacity(config.btm_year, fractions)
    else:
        x_btm = {n.id: n.btm_solar_existing_mw for n in network.nodes}

    d_heat: dict[str, np.ndarray] = {}
    d_veh_fix: dict[str, np.ndarray] = {}
    envelopes: dict[str, FlexEnvelope | None] = {}
    p_heat_map: dict[str, float] = {}
    p_veh_map: dict[str, float] = {}

    for node in network.nodes:
        p_h = 1.0 if free_p else config.p_heat_for(node.id)
        p_v = 1.0 if free_p else config.p_veh_for(node.id)
        p_heat_map[node.id] = p_h
        p_veh_map[node.id] = p_v

        d_heat[node.id] = scale_heating(p_h, series.d_heat_full[node.id])

        if config.ev_flex is None:
            d_veh_fix[node.id] = scale_vehicles(p_v, series.d_veh_full[node.id])
            envelopes[node.id] = None
            continue

        ev = config.ev_flex
        if series.e_veh_daily_full is not None:
            daily_full = np.asarray(series.e_veh_daily_full[node.id], float)
        else:
            daily_full = _daily_totals(np.asarray(series.d_veh_full[node.id]))
        flex_daily, fix_daily = split_ev_daily(
            scale_vehicles(p_v, daily_full), ev.y_flex)
        d_veh_fix[node.id] = fixed_ev_profile(
            fix_daily, params.eta_veh, (ev.h_start, ev.h_end)
        )
        envelopes[node.id] = flexible_ev_envelope(
            flex_daily, params.eta_veh, ev.h_min, (ev.h_start, ev.h_end)
        )

    # Net demand, which levels every cost, stays positive only if the
    # largest load the scenario allows (rates at 1 when free) beats BTM.
    load = sum(float(np.sum(series.d_elec[n]) + np.sum(d_heat[n])
                     + np.sum(d_veh_fix[n])) for n in d_heat) + sum(
        float(np.sum(env.required_mwh)) for env in envelopes.values()
        if env is not None)
    btm = sum(x_btm[n.id] * float(np.sum(series.w_btm_solar[n.id]))
              for n in network.nodes)
    if load <= btm:
        raise ValueError(
            f"behind-the-meter solar output of {btm:.6g} MWh is at least "
            f"the largest load of {load:.6g} MWh that the scenario allows")
    return DemandBundle(
        d_heat=d_heat,
        d_veh_fix=d_veh_fix,
        ev_envelopes=envelopes,
        x_btm_mw=x_btm,
        p_heat=None if free_p else p_heat_map,
        p_veh=None if free_p else p_veh_map,
        free_p=free_p,
        net_mwh=load - btm,
    )
