"""Greenhouse-gas accounting: warming-potential factors, sector emissions,
and the overall percent-reduction metric.

Unit chain used everywhere: MWh -> MJ via 3600; MMBTU -> MJ via 1055.056;
grams -> million metric tons via 1e-12. Factors are stored in g/MJ of fuel;
dispatch results arrive in MWh, so :func:`co2e_t_per_mwh_fuel` is the usual
bridge. Sector totals are in MMtCO2e per year.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

MJ_PER_MWH = 3600.0
MJ_PER_MMBTU = 1055.056
MMT_PER_G = 1e-12

#: 20-year global warming potentials (AR5).
GWP20_CH4 = 86.0
GWP20_N2O = 264.0


@dataclass(frozen=True)
class FuelFactors:
    """Per-fuel emission factors in grams per MJ of fuel burned."""

    co2_g_per_mj: float
    ch4_g_per_mj: float
    n2o_g_per_mj: float


@dataclass(frozen=True)
class EmissionFactors:
    """Fuel factor table plus the warming potentials used to blend them."""

    fuels: Mapping[str, FuelFactors]
    gwp_ch4: float = GWP20_CH4
    gwp_n2o: float = GWP20_N2O

    def co2e_g_per_mj(self, fuel: str) -> float:
        f = self.fuels[fuel]
        return (f.co2_g_per_mj + self.gwp_ch4 * f.ch4_g_per_mj
                + self.gwp_n2o * f.n2o_g_per_mj)


DEFAULT_FACTORS = EmissionFactors(
    fuels={
        "coal": FuelFactors(92.0, 0.185, 1.52e-3),
        "petroleum": FuelFactors(73.0, 0.093, 5.69e-4),
        "natural gas": FuelFactors(55.0, 0.641, 9.48e-5),
    }
)


def co2e_factor(fuel: str) -> float:
    """Combined CO2-equivalent factor for a fuel, in g/MJ."""
    return DEFAULT_FACTORS.co2e_g_per_mj(fuel)


def co2e_t_per_mwh_fuel(g_per_mj: float) -> float:
    """Convert a g/MJ factor to metric tons per MWh of fuel energy."""
    return g_per_mj * MJ_PER_MWH * 1e-6


def electricity_emissions(
    gen_existing_mwh: float,
    gen_new_mwh: float,
    imports_mwh: float,
    *,
    eta_existing: float,
    eta_new: float,
    theta_ff_t_per_mwh: float,
    theta_imp_t_per_mwh: float,
    n_years: float = 1.0,
) -> float:
    """Annual electricity-sector emissions in MMtCO2e.

    ``theta_ff_t_per_mwh`` applies to fuel energy (generation divided by the
    class efficiency); ``theta_imp_t_per_mwh`` applies to delivered import
    energy. Horizon totals are divided by ``n_years`` to give a yearly figure.
    """
    if eta_existing <= 0.0 or eta_new <= 0.0:
        raise ValueError("fossil efficiencies must be positive")
    if n_years <= 0.0:
        raise ValueError("n_years must be positive")
    fuel_mwh = gen_existing_mwh / eta_existing + gen_new_mwh / eta_new
    tons = theta_ff_t_per_mwh * fuel_mwh + theta_imp_t_per_mwh * imports_mwh
    return tons / 1e6 / n_years


def _as_rate_map(value, keys) -> dict[str, float]:
    if isinstance(value, Mapping):
        rates = {k: float(value[k]) for k in keys}
    else:
        rates = {k: float(value) for k in keys}
    for k, r in rates.items():
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"electrification rate for {k} outside [0, 1]: {r}")
    return rates


def sector_emissions(
    p_heat,
    p_veh,
    *,
    theta_heat_t_per_mj: float,
    theta_veh_t_per_mj: float,
    f_heat_tot_mj: Mapping[str, float],
    f_veh_tot_mj: Mapping[str, float],
    eps_transp_other_mmt: float,
) -> tuple[float, float, float]:
    """Heating, vehicle, and total transport emissions in MMtCO2e/yr.

    Each node's remaining (non-electrified) share of its annual fuel use is
    charged at the blended sector rate; transport adds the out-of-scope
    constant on top of the vehicle term.
    """
    heat_rates = _as_rate_map(p_heat, f_heat_tot_mj.keys())
    veh_rates = _as_rate_map(p_veh, f_veh_tot_mj.keys())
    eps_heat = sum(
        (1.0 - heat_rates[k]) * theta_heat_t_per_mj * f for k, f in f_heat_tot_mj.items()
    ) / 1e6
    eps_veh = sum(
        (1.0 - veh_rates[k]) * theta_veh_t_per_mj * f for k, f in f_veh_tot_mj.items()
    ) / 1e6
    return eps_heat, eps_veh, eps_veh + eps_transp_other_mmt


# Statewide inventory defaults (MMtCO2e/yr) used by the validation preset:
# the modeled current system and the fixed out-of-scope sectors, against the
# regulatory reference year.
REFERENCE_EMISSIONS_MMT = 302.770
CURRENT_ELEC_MMT = 84.889
CURRENT_HEAT_MMT = 110.853
CURRENT_VEH_MMT = 73.703
CURRENT_WASTE_MMT = 2.784
FIXED_INDUSTRIAL_MMT = 19.365
FIXED_TRANSP_OTHER_MMT = 21.956


@dataclass(frozen=True)
class EmissionsLedger:
    """Sector emissions for one scenario, all in MMtCO2e per year.

    ``eps_waste`` is nonzero only in the current-system validation preset;
    scenario runs set it to zero by policy.
    """

    eps_elec: float
    eps_heat: float
    eps_veh: float
    eps_transp_other: float
    eps_ind: float
    eps_reference: float
    eps_waste: float = 0.0

    def __post_init__(self):
        for name in ("eps_elec", "eps_heat", "eps_veh", "eps_transp_other",
                     "eps_ind", "eps_waste"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.eps_reference <= 0.0:
            raise ValueError("reference emissions must be positive")

    @property
    def eps_transp(self) -> float:
        return self.eps_veh + self.eps_transp_other

    @property
    def total_mmt(self) -> float:
        return (self.eps_elec + self.eps_heat + self.eps_transp
                + self.eps_ind + self.eps_waste)

    @property
    def ghg_change_percent(self) -> float:
        """Percent change in emissions vs the reference (positive = growth)."""
        return -100.0 * ghg_reduction(self)

    @classmethod
    def current_inventory(cls) -> "EmissionsLedger":
        """The modeled current system, including waste incineration."""
        return cls(
            eps_elec=CURRENT_ELEC_MMT,
            eps_heat=CURRENT_HEAT_MMT,
            eps_veh=CURRENT_VEH_MMT,
            eps_transp_other=FIXED_TRANSP_OTHER_MMT,
            eps_ind=FIXED_INDUSTRIAL_MMT,
            eps_waste=CURRENT_WASTE_MMT,
            eps_reference=REFERENCE_EMISSIONS_MMT,
        )


def ghg_reduction(ledger: EmissionsLedger) -> float:
    """Fractional reduction vs the reference; negative means growth."""
    return (ledger.eps_reference - ledger.total_mmt) / ledger.eps_reference


@dataclass(frozen=True)
class EmissionsCalibration:
    """Everything needed to price decisions in MMtCO2e per year.

    Fossil generation is charged per MWh of *fuel* energy, imports per MWh
    delivered. Heating and vehicle fuel totals are the full (pre-electrified)
    annual use per node in MJ; the electrified share avoids the corresponding
    blended-rate emissions. The fixed sectors and the reference year anchor
    the reduction target.
    """

    theta_ff_t_per_mwh: float
    theta_imp_t_per_mwh: float
    theta_heat_t_per_mj: float
    theta_veh_t_per_mj: float
    f_heat_tot_mj: Mapping[str, float]
    f_veh_tot_mj: Mapping[str, float]
    eps_transp_other_mmt: float = FIXED_TRANSP_OTHER_MMT
    eps_industrial_mmt: float = FIXED_INDUSTRIAL_MMT
    reference_mmt: float = REFERENCE_EMISSIONS_MMT

    def __post_init__(self):
        for name in ("theta_ff_t_per_mwh", "theta_imp_t_per_mwh",
                     "theta_heat_t_per_mj", "theta_veh_t_per_mj",
                     "eps_transp_other_mmt", "eps_industrial_mmt"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.reference_mmt <= 0.0:
            raise ValueError("reference emissions must be positive")
        for name in ("f_heat_tot_mj", "f_veh_tot_mj"):
            frozen = {k: float(v) for k, v in getattr(self, name).items()}
            if any(v < 0.0 for v in frozen.values()):
                raise ValueError(f"{name} values must be >= 0")
            object.__setattr__(self, name, frozen)

    def sector_constants(self, p_heat, p_veh) -> tuple[float, float]:
        """(heating, vehicle) emissions in MMt/yr at the given rates."""
        eps_heat, eps_veh, _ = sector_emissions(
            p_heat,
            p_veh,
            theta_heat_t_per_mj=self.theta_heat_t_per_mj,
            theta_veh_t_per_mj=self.theta_veh_t_per_mj,
            f_heat_tot_mj=self.f_heat_tot_mj,
            f_veh_tot_mj=self.f_veh_tot_mj,
            eps_transp_other_mmt=self.eps_transp_other_mmt,
        )
        return eps_heat, eps_veh
