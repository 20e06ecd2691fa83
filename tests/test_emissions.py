"""Warming-potential factors, sector emissions, and reduction bookkeeping."""

from __future__ import annotations

import dataclasses

import pytest

from gridplan.emissions import (
    EmissionsLedger,
    DEFAULT_FACTORS,
    co2e_factor,
    co2e_t_per_mwh_fuel,
    electricity_emissions,
    ghg_reduction,
    sector_emissions,
)


class TestCo2eFactor:
    # Frozen expectations recomputed by hand: co2 + 86*ch4 + 264*n2o.
    def test_coal(self):
        assert 92 + 86 * 0.185 + 264 * 1.52e-3 == pytest.approx(108.31, abs=0.005)
        assert co2e_factor("coal") == pytest.approx(108.31, abs=0.05)

    def test_petroleum(self):
        assert 73 + 86 * 0.093 + 264 * 5.69e-4 == pytest.approx(81.15, abs=0.005)
        assert co2e_factor("petroleum") == pytest.approx(81.15, abs=0.05)

    def test_natural_gas(self):
        # The published rounded inputs land at 110.15; the quoted combined
        # value is 110.18, hence the 0.05 g/MJ tolerance.
        assert co2e_factor("natural gas") == pytest.approx(110.18, abs=0.05)

    def test_unknown_fuel(self):
        with pytest.raises(KeyError):
            co2e_factor("peat")

    def test_gwp_linearity(self):
        base = DEFAULT_FACTORS
        doubled = dataclasses.replace(base, gwp_ch4=2 * base.gwp_ch4)
        ch4_term = base.gwp_ch4 * base.fuels["coal"].ch4_g_per_mj
        assert doubled.co2e_g_per_mj("coal") == pytest.approx(
            co2e_factor("coal") + ch4_term, rel=1e-12
        )


class TestElectricityEmissions:
    def test_all_renewable_is_zero(self):
        assert electricity_emissions(0.0, 0.0, 0.0, eta_existing=0.428,
                                     eta_new=0.344,
                                     theta_ff_t_per_mwh=0.4,
                                     theta_imp_t_per_mwh=0.0) == 0.0

    def test_terawatt_hour_of_existing_gas(self):
        # 1e6 MWh / 0.428 * 3600 MJ/MWh * 110.18 g/MJ * 1e-12 MMt/g = 0.9266.
        theta = co2e_t_per_mwh_fuel(110.18)
        got = electricity_emissions(1e6, 0.0, 0.0, eta_existing=0.428,
                                    eta_new=0.344,
                                    theta_ff_t_per_mwh=theta,
                                    theta_imp_t_per_mwh=0.0)
        assert got == pytest.approx(1e6 / 0.428 * 3600 * 110.18 * 1e-12 * 1e6 / 1e6,
                                    rel=1e-9)
        assert got == pytest.approx(0.9266, abs=5e-4)

    def test_unpriced_imports_contribute_nothing(self):
        got = electricity_emissions(0.0, 0.0, 1e6, eta_existing=0.428,
                                    eta_new=0.344, theta_ff_t_per_mwh=0.4,
                                    theta_imp_t_per_mwh=0.0)
        assert got == 0.0

    def test_annualization_divisor(self):
        theta = co2e_t_per_mwh_fuel(110.18)
        one = electricity_emissions(1e6, 0.0, 0.0, eta_existing=0.428,
                                    eta_new=0.344, theta_ff_t_per_mwh=theta,
                                    theta_imp_t_per_mwh=0.0, n_years=1.0)
        half = electricity_emissions(1e6, 0.0, 0.0, eta_existing=0.428,
                                     eta_new=0.344, theta_ff_t_per_mwh=theta,
                                     theta_imp_t_per_mwh=0.0, n_years=2.0)
        assert half == pytest.approx(one / 2.0, rel=1e-12)


class TestSectorEmissions:
    def test_full_electrification_zeroes_heating(self):
        heat, veh, transp = sector_emissions(
            p_heat={"a": 1.0, "b": 1.0}, p_veh={"a": 0.0, "b": 0.0},
            theta_heat_t_per_mj=1.1018e-4, theta_veh_t_per_mj=8.115e-5,
            f_heat_tot_mj={"a": 1e11, "b": 2e11},
            f_veh_tot_mj={"a": 1e11, "b": 2e11},
            eps_transp_other_mmt=21.956,
        )
        assert heat == 0.0
        assert veh > 0.0
        assert transp == pytest.approx(veh + 21.956, rel=1e-12)

    def test_calibrated_current_values(self):
        # Calibrated fuel totals reproduce the current-system inventory.
        theta_heat = co2e_t_per_mwh_fuel(110.18) / 3600.0  # back to t/MJ
        theta_veh = co2e_t_per_mwh_fuel(81.15) / 3600.0
        f_heat = 110.853e6 / theta_heat
        f_veh = 73.703e6 / theta_veh
        heat, veh, transp = sector_emissions(
            p_heat=0.0, p_veh=0.0,
            theta_heat_t_per_mj=theta_heat, theta_veh_t_per_mj=theta_veh,
            f_heat_tot_mj={"x": f_heat}, f_veh_tot_mj={"x": f_veh},
            eps_transp_other_mmt=21.956,
        )
        assert heat == pytest.approx(110.853, rel=1e-9)
        assert veh == pytest.approx(73.703, rel=1e-9)
        assert transp == pytest.approx(73.703 + 21.956, rel=1e-9)

    def test_rate_out_of_range(self):
        with pytest.raises(ValueError):
            sector_emissions(p_heat=1.5, p_veh=0.0,
                             theta_heat_t_per_mj=1e-4, theta_veh_t_per_mj=1e-4,
                             f_heat_tot_mj={"a": 1.0}, f_veh_tot_mj={"a": 1.0},
                             eps_transp_other_mmt=0.0)


class TestGhgReduction:
    def test_current_system_preset(self):
        # Current inventory: variable 84.889 + 110.853 + 73.703 + 2.784 plus
        # fixed 21.956 + 19.365 = 313.550 total against a 302.770 reference.
        ledger = EmissionsLedger.current_inventory()
        assert ledger.total_mmt == pytest.approx(313.550, abs=1e-3)
        omega = ghg_reduction(ledger)
        assert omega == pytest.approx((302.770 - 313.550) / 302.770, rel=1e-6)
        assert omega * 100 == pytest.approx(-3.56, abs=0.1)
        # Reported sign convention flips omega.
        assert ledger.ghg_change_percent == pytest.approx(3.56, abs=0.1)

    def test_variable_sectors_zeroed(self):
        ledger = EmissionsLedger(
            eps_elec=0.0, eps_heat=0.0, eps_veh=0.0,
            eps_transp_other=21.956, eps_ind=19.365, eps_waste=0.0,
            eps_reference=302.770,
        )
        assert ledger.total_mmt == pytest.approx(41.321, rel=1e-9)
        assert ghg_reduction(ledger) * 100 == pytest.approx(86.35, abs=0.1)

    def test_reference_equality_gives_zero(self):
        ledger = EmissionsLedger(eps_elec=302.770, eps_heat=0.0, eps_veh=0.0,
                                 eps_transp_other=0.0, eps_ind=0.0,
                                 eps_waste=0.0, eps_reference=302.770)
        assert ghg_reduction(ledger) == 0.0

    def test_affine_in_each_component(self):
        base = EmissionsLedger(eps_elec=10.0, eps_heat=5.0, eps_veh=3.0,
                               eps_transp_other=2.0, eps_ind=1.0,
                               eps_waste=0.0, eps_reference=100.0)
        bumped = dataclasses.replace(base, eps_heat=base.eps_heat + 1.0)
        # d(omega)/d(eps) = -1 / reference exactly.
        assert ghg_reduction(bumped) - ghg_reduction(base) == pytest.approx(
            -1.0 / 100.0, rel=1e-12
        )

    def test_transport_composition(self):
        ledger = EmissionsLedger(eps_elec=0.0, eps_heat=0.0, eps_veh=7.0,
                                 eps_transp_other=3.0, eps_ind=0.0,
                                 eps_waste=0.0, eps_reference=100.0)
        assert ledger.eps_transp == pytest.approx(10.0)
