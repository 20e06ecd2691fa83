"""Tests for the scenario runner: input bundles on disk, the staged
single-scenario pipeline with exit codes, grid sweeps, the minimum-cost
electrification search, and the command-line interface.

Bundles are tiny single-node systems written to tmp dirs through the
runner's own serialization, so every test exercises the disk round trip.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

import gridplan
from gridplan import runner
from gridplan.demand import btm_statewide_mw, synthesize_demand
from gridplan.formulation import LPError
from gridplan.model import (
    CostTable,
    NetworkSpec,
    NodeSpec,
    ScenarioConfig,
    TechParams,
    TimeSeriesSet,
    validate,
)
from gridplan.emissions import EmissionsCalibration
from gridplan.runner import (
    EXIT_ERROR,
    EXIT_INFEASIBLE,
    EXIT_INVALID,
    EXIT_ITERATION_LIMIT,
    EXIT_OK,
    InvalidScenarioError,
    RunResult,
    RunnerError,
    SearchError,
    SweepSpec,
    load_bundle,
    load_config,
    main,
    min_lcoe_search,
    parse_range,
    run_scenario,
    run_sweep,
    save_bundle,
)
from gridplan.solver import SolveOptions

from _mpsread import solve_mps_with_highs
from helpers import (build_lp, count_inverts, series_csv_oracle,
                     tiled_fixture, worst_reduced_cost)

T = 24
PARAMS = TechParams(n_years=T / 8760.0)
FIXTURE = Path(gridplan.__file__).parent / "data" / "two_node_48h"


def _flat(net, value):
    return {n: np.full(T, float(value)) for n in net.node_ids}


def micro_system(*, wind=True):
    """One node, flat load, existing gas, optionally buildable wind."""
    node = NodeSpec(id="n", gas_existing_mw=300.0,
                    onshore_max_mw=2000.0 if wind else 0.0)
    net = NetworkSpec(nodes=[node])
    series = TimeSeriesSet(
        d_elec=_flat(net, 100.0),
        d_heat_full=_flat(net, 20.0),
        d_veh_full=_flat(net, 10.0),
        w_on=_flat(net, 0.5),
        w_off=_flat(net, 0.0),
        w_us_solar=_flat(net, 0.0),
        w_btm_solar=_flat(net, 0.0),
        h_fix=_flat(net, 0.0),
        nuclear=_flat(net, 0.0),
    )
    costs = CostTable(
        omv_ff=4.48,
        c_ff={"n": 3.5},
        c_hydro={"n": 18.47},
        c_nuc={"n": 26.82},
        c_bio={"n": 24.0},
        c_imp={"n": 22.13},
        ex_cap={"n": 27.64},
        ex_tx={"n": 0.0},
        **({"cap_on": {"n": 1700.0}, "omf_on": {"n": 18.1}} if wind else {}),
    )
    cal = EmissionsCalibration(
        theta_ff_t_per_mwh=0.4,
        theta_imp_t_per_mwh=0.23,
        theta_heat_t_per_mj=1.1e-4,
        theta_veh_t_per_mj=8.1e-5,
        f_heat_tot_mj={"n": 1.0e9},
        f_veh_tot_mj={"n": 5.0e8},
        eps_transp_other_mmt=0.05,
        eps_industrial_mmt=0.04,
        reference_mmt=1.0,
    )
    return net, series, costs, PARAMS, cal


@pytest.fixture(scope="module")
def micro_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "micro"
    save_bundle(path, *micro_system())
    return path


@pytest.fixture(scope="module")
def fossil_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "fossil"
    save_bundle(path, *micro_system(wind=False))
    return path


def btm_system(fractions, d_elec):
    """Nodes a and b with a flat load, existing gas, a flat behind-the-meter
    solar factor, and the given shares of statewide BTM capacity."""
    net = NetworkSpec(nodes=[
        NodeSpec(id=n, gas_existing_mw=2.0 * d_elec, btm_fraction=f)
        for n, f in zip("ab", fractions)])
    zero = _flat(net, 0.0)
    series = TimeSeriesSet(
        d_elec=_flat(net, d_elec), d_heat_full=zero, d_veh_full=zero,
        w_on=zero, w_off=zero, w_us_solar=zero,
        w_btm_solar=_flat(net, 0.2), h_fix=zero, nuclear=zero)
    costs = CostTable(c_ff={"a": 3.5, "b": 3.5},
                      ex_cap={"a": 27.64, "b": 27.64})
    return net, series, costs, PARAMS


def fixture_copy(tmp_path, edit):
    """A copy of the shipped fixture bundle whose bundle.json payload
    ``edit`` has changed in place."""
    path = tmp_path / "bundle"
    shutil.copytree(FIXTURE, path)
    manifest = path / "bundle.json"
    payload = json.loads(manifest.read_text())
    edit(payload)
    manifest.write_text(json.dumps(payload))
    return path


def lcp_config(lcp=0.4, hve=0.0) -> ScenarioConfig:
    return ScenarioConfig(mode="lcp+hve", lcp=lcp, p_heat=hve, p_veh=hve)


# --------------------------------------------------------------------------
# bundle serialization


class TestBundleIO:
    def test_round_trip(self, tmp_path):
        net, series, costs, params, cal = micro_system()
        path = tmp_path / "b"
        save_bundle(path, net, series, costs, params, cal)
        bundle = load_bundle(path)
        assert bundle.network == net
        assert bundle.costs == costs
        assert bundle.params == params
        assert bundle.emissions == cal
        np.testing.assert_array_equal(bundle.series.d_elec["n"],
                                      series.d_elec["n"])
        np.testing.assert_array_equal(bundle.series.w_on["n"],
                                      series.w_on["n"])
        assert bundle.series.e_veh_daily_full is None

    def test_save_is_deterministic(self, tmp_path):
        net, series, costs, params, cal = micro_system()
        p1, p2 = tmp_path / "b1", tmp_path / "b2"
        save_bundle(p1, net, series, costs, params, cal)
        save_bundle(p2, net, series, costs, params, cal)
        files1 = sorted(f.relative_to(p1) for f in p1.rglob("*") if f.is_file())
        files2 = sorted(f.relative_to(p2) for f in p2.rglob("*") if f.is_file())
        assert files1 == files2
        for rel in files1:
            assert (p1 / rel).read_bytes() == (p2 / rel).read_bytes()

    def test_emissions_block_is_optional(self, tmp_path):
        net, series, costs, params, _ = micro_system()
        path = tmp_path / "b"
        save_bundle(path, net, series, costs, params)
        assert load_bundle(path).emissions is None

    def test_unknown_series_file_rejected(self, tmp_path):
        net, series, costs, params, _ = micro_system()
        path = tmp_path / "b"
        save_bundle(path, net, series, costs, params)
        (path / "series" / "bogus.csv").write_text("node,t,value\nn,0,1.0\n")
        with pytest.raises(RunnerError, match="bogus"):
            load_bundle(path)

    def test_monthly_hydro_series_rejected(self, tmp_path):
        # Monthly hydro is disaggregated into h_fix/h_flex_daily before
        # it goes into a bundle.
        path = tmp_path / "b"
        shutil.copytree(FIXTURE, path)
        (path / "series" / "h_monthly.csv").write_text(
            "node,t,value\na,0,1.0\n")
        with pytest.raises(RunnerError, match="unknown series file "
                           "h_monthly.csv"):
            load_bundle(path)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(RunnerError, match="bundle"):
            load_bundle(tmp_path / "nope")

    def test_gap_in_hours_rejected(self, tmp_path):
        net, series, costs, params, _ = micro_system()
        path = tmp_path / "b"
        save_bundle(path, net, series, costs, params)
        csv_path = path / "series" / "d_elec.csv"
        lines = csv_path.read_text().splitlines()
        del lines[3]  # drop one (node, t) observation
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RunnerError) as exc:
            load_bundle(path)
        assert str(exc.value) == ("series d_elec: node n is missing hour 2 "
                                  "(expected contiguous 0..22)")

    def test_year_long_round_trip_is_bit_identical(self, tmp_path):
        fixture = load_bundle(FIXTURE)
        k = 183  # 48 h x 183 = 8784 h, a leap year
        series = dataclasses.replace(fixture.series, **{
            name: {node: np.tile(arr, k) * (1.0 + np.arange(len(arr) * k)
                                            * 1e-7)
                   for node, arr in mapping.items()}
            for name, mapping in vars(fixture.series).items()
            if mapping is not None})
        save_bundle(tmp_path / "year", fixture.network, series,
                    fixture.costs, fixture.params, fixture.emissions)
        loaded = load_bundle(tmp_path / "year").series
        for name, mapping in vars(series).items():
            got = getattr(loaded, name)
            if mapping is None:
                assert got is None
                continue
            assert list(got) == sorted(mapping)
            for node, arr in mapping.items():
                np.testing.assert_array_equal(got[node].view(np.int64),
                                              arr.view(np.int64))

    def test_year_long_series_match_per_line_rendering(self, tmp_path):
        # Tiled values repeat, perturbed ones do not; 0.0 and -0.0 are
        # equal but print apart.
        fixture = load_bundle(FIXTURE)
        k = 183
        tiled = {name: {node: np.tile(arr, k) * (
                    1.0 + (node == "b") * np.arange(len(arr) * k) * 1e-7)
                        for node, arr in mapping.items()}
                 for name, mapping in vars(fixture.series).items()
                 if mapping is not None}
        tiled["d_elec"]["a"][:2] = (0.0, -0.0)
        series = dataclasses.replace(fixture.series, **tiled)
        save_bundle(tmp_path / "year", fixture.network, series,
                    fixture.costs, fixture.params, fixture.emissions)
        for name, mapping in vars(series).items():
            path = tmp_path / "year" / "series" / f"{name}.csv"
            if mapping is None:
                assert not path.exists()
                continue
            assert path.read_bytes().decode("utf-8") == \
                series_csv_oracle(mapping)
        text = (tmp_path / "year" / "series" / "d_elec.csv").read_text()
        assert "\na,0,0.0\na,1,-0.0\n" in text

    def test_nodes_keep_file_order_and_hours_any_order(self, tmp_path):
        # Node a is renamed so that ids of different lengths are read.
        path = tmp_path / "b"
        shutil.copytree(FIXTURE, path)
        csv_path = path / "series" / "d_elec.csv"
        header, *rows = csv_path.read_text().splitlines()
        rows = [f"north east{row[1:]}" if row.startswith("a,") else row
                for row in reversed(rows)]
        csv_path.write_text("\n".join([header, *rows]) + "\n")
        got = load_bundle(path).series.d_elec
        want = load_bundle(FIXTURE).series.d_elec
        assert list(got) == ["b", "north east"]
        for node, old in (("b", "b"), ("north east", "a")):
            np.testing.assert_array_equal(got[node].view(np.int64),
                                          want[old].view(np.int64))

    def test_blank_lines_and_crlf_load(self, tmp_path):
        path = tmp_path / "b"
        shutil.copytree(FIXTURE, path)
        csv_path = path / "series" / "d_elec.csv"
        lines = csv_path.read_text().splitlines()
        lines[10:10] = ["", ""]
        csv_path.write_bytes(("\r\n".join(lines) + "\r\n\r\n").encode())
        got = load_bundle(path).series.d_elec
        want = load_bundle(FIXTURE).series.d_elec
        for node in want:
            np.testing.assert_array_equal(got[node].view(np.int64),
                                          want[node].view(np.int64))

    LINE_FAULTS = [
        ("a,5", "expected 3 fields"),
        ("a,5,1.0,2.0", "expected 3 fields"),
        ("a,5,abc", "could not convert string to float: 'abc'"),
        ("a,5.0,1.0", "invalid literal for int() with base 10: '5.0'"),
        ("a,-1,5.0", "hour -1 is out of range"),
        # Python's int and float read these; the series reader does not.
        ("   ", "expected 3 fields"),
        ("a,5,1_000.5", "numbers must be ASCII, without '_'"),
        ("a,٥,1.0", "numbers must be ASCII, without '_'"),
        ("a,9223372036854775808,1.0",
         "hour 9223372036854775808 is out of range"),
    ]

    @pytest.mark.parametrize("line, message", LINE_FAULTS,
                             ids=[line for line, _ in LINE_FAULTS])
    def test_bad_line_is_named(self, tmp_path, line, message):
        path = tmp_path / "b"
        shutil.copytree(FIXTURE, path)
        csv_path = path / "series" / "d_elec.csv"
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        lines[6] = line
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(RunnerError) as exc:
            load_bundle(path)
        assert str(exc.value) == f"series d_elec line 7: {message}"

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "b"
        shutil.copytree(FIXTURE, path)
        csv_path = path / "series" / "w_on.csv"
        csv_path.write_text(csv_path.read_text().replace(
            "node,t,value", "node,hour,value", 1))
        with pytest.raises(RunnerError) as exc:
            load_bundle(path)
        assert str(exc.value) == ("series w_on: expected header "
                                  "'node,t,value', got 'node,hour,value'")

    def test_repeated_hour_rejected(self, tmp_path, capsys):
        path = tmp_path / "b"
        shutil.copytree(FIXTURE, path)
        csv_path = path / "series" / "d_elec.csv"
        lines = csv_path.read_text().splitlines()
        first = lines.index(next(ln for ln in lines if ln.startswith("a,5,")))
        lines.append("a,5,999999.0")
        csv_path.write_text("\n".join(lines) + "\n")
        message = (f"series d_elec: node a hour 5 is given on line "
                   f"{first + 1} and again on line {len(lines)}")
        with pytest.raises(RunnerError) as exc:
            load_bundle(path)
        assert str(exc.value) == message
        assert main(["validate", "--inputs", str(path)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"

    NOT_NUMBERS = [
        (lambda p: p["network"]["nodes"][0].update(gas_existing_mw="100"),
         "node a: gas_existing_mw must be a number, got '100'"),
        (lambda p: p["network"]["nodes"][1].update(biofuel_mw=True),
         "node b: biofuel_mw must be a number, got True"),
        (lambda p: p["network"]["interfaces"][0].update(distance_mi=None),
         "interface a:b: distance_mi must be a number, got None"),
        (lambda p: p["costs"].update(omv_ff="4.48"),
         "costs: omv_ff must be a number, got '4.48'"),
        (lambda p: p["costs"]["c_ff"].update(b="3.5"),
         "costs: c_ff[b] must be a number, got '3.5'"),
        (lambda p: p["costs"].update(c_imp=22.13),
         "costs: c_imp must be an object of numbers, got 22.13"),
        (lambda p: p["params"].update(kappa=[0.001]),
         "params: kappa must be a number, got [0.001]"),
        (lambda p: p["params"]["p_years"].update(storage="10"),
         "params: p_years[storage] must be a number, got '10'"),
        (lambda p: p["emissions"].update(theta_ff_t_per_mwh="0.396648"),
         "emissions: theta_ff_t_per_mwh must be a number, got '0.396648'"),
        (lambda p: p["emissions"]["f_heat_tot_mj"].update(a="2e11"),
         "emissions: f_heat_tot_mj[a] must be a number, got '2e11'"),
        (lambda p: p["emissions"].update(f_veh_tot_mj=3.3e9),
         "emissions: f_veh_tot_mj must be an object of numbers, got "
         "3300000000.0"),
        # JSON's NaN and Infinity parse as floats, and 10.0 as a float:
        # each would pass validate and stop a later stage naming nothing.
        (lambda p: p["costs"]["c_imp"].update(a=math.nan),
         "costs: c_imp[a] must be finite, got nan"),
        (lambda p: p["params"].update(reserve_margin=math.nan),
         "params: reserve_margin must be finite, got nan"),
        (lambda p: p["network"]["nodes"][0].update(gas_existing_mw=-math.inf),
         "node a: gas_existing_mw must be finite, got -inf"),
        (lambda p: p["emissions"].update(reference_mmt=math.inf),
         "emissions: reference_mmt must be finite, got inf"),
        (lambda p: p["params"]["p_years"].update(storage=10.0),
         "params: p_years[storage] must be a whole number, got 10.0"),
        (lambda p: p["network"].update(offshore_cap_total_mw="5"),
         "network: offshore_cap_total_mw must be a number, got '5'"),
        (lambda p: p["network"].update(offshore_cap_total_mw=True),
         "network: offshore_cap_total_mw must be a number, got True"),
        (lambda p: p["network"].update(offshore_cap_total_mw=math.nan),
         "network: offshore_cap_total_mw must be finite, got nan"),
    ]

    @pytest.mark.parametrize("edit, message", NOT_NUMBERS,
                             ids=[message for _, message in NOT_NUMBERS])
    def test_non_number_in_numeric_field_rejected(self, tmp_path, capsys,
                                                  edit, message):
        bundle = fixture_copy(tmp_path, edit)
        with pytest.raises(RunnerError) as exc:
            load_bundle(bundle)
        assert str(exc.value) == f"bundle.json: {message}"
        for command in (["validate"], ["run", "--config",
                                       str(FIXTURE / "scenario.json")]):
            assert main([*command, "--inputs", str(bundle)]) == EXIT_ERROR
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", f"error: bundle.json: {message}\n")

    def test_dropped_node_key_rejected(self, tmp_path, capsys):
        # Nuclear output is the nuclear series; a node's own hourly
        # generation was read by nothing, and a bundle giving it is refused.
        bundle = fixture_copy(tmp_path, lambda p: p["network"]["nodes"][1]
                              .update(nuclear_gen_mwh_per_h=22.0))
        with pytest.raises(RunnerError, match="'nuclear_gen_mwh_per_h'"):
            load_bundle(bundle)
        assert main(["validate", "--inputs", str(bundle)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bundle.json: ")
        assert "'nuclear_gen_mwh_per_h'" in captured.err


class TestLoadConfig:
    def test_basic_fields(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "mode": "lcp+hve", "lcp": 0.4, "p_heat": 0.3, "p_veh": 0.2,
        }))
        config = load_config(path)
        assert config == ScenarioConfig(mode="lcp+hve", lcp=0.4,
                                        p_heat=0.3, p_veh=0.2)

    def test_ev_flex_subobject(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "mode": "ghg+lcp", "omega": 0.2, "lcp": 0.0,
            "ev_flex": {"y_flex": 0.5, "h_start": 18, "h_end": 22,
                        "h_min": 3},
        }))
        config = load_config(path)
        assert config.ev_flex.y_flex == 0.5
        assert (config.ev_flex.h_start, config.ev_flex.h_end) == (18, 22)
        assert config.ev_flex.h_min == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mode": "lcp+hve", "lcp": 0.4,
                                    "p_heat": 0, "p_veh": 0, "typo": 1}))
        with pytest.raises(RunnerError, match="typo"):
            load_config(path)

    NOT_NUMBERS = [
        ({"lcp": "0.4"}, "lcp must be a number, got '0.4'"),
        ({"p_heat": True}, "p_heat must be a number, got True"),
        ({"p_veh": {"a": 0.2, "b": "0.2"}},
         "p_veh[b] must be a number, got '0.2'"),
        ({"rgt": None}, "rgt must be a number, got None"),
        ({"btm_year": "2030"}, "btm_year must be a number, got '2030'"),
        ({"ev_flex": {"y_flex": "0.5", "h_start": 18, "h_end": 22}},
         "ev_flex: y_flex must be a number, got '0.5'"),
        # JSON's NaN and Infinity parse as floats, and 18.0 as a float: an
        # hour of 18.0 would end the run in a TypeError traceback.
        ({"lcp": math.nan}, "lcp must be finite, got nan"),
        ({"p_heat": {"a": 0.3, "b": math.inf}},
         "p_heat[b] must be finite, got inf"),
        ({"btm_year": 2030.0}, "btm_year must be a whole number, got 2030.0"),
        ({"ev_flex": {"y_flex": 0.5, "h_start": 18.0, "h_end": 22}},
         "ev_flex: h_start must be a whole number, got 18.0"),
        ({"ev_flex": {"y_flex": 0.5, "h_start": 18.5, "h_end": 22}},
         "ev_flex: h_start must be a whole number, got 18.5"),
        ({"ev_flex": {"y_flex": 0.5, "h_start": 18, "h_end": 22.0}},
         "ev_flex: h_end must be a whole number, got 22.0"),
        ({"ev_flex": {"y_flex": 0.5, "h_start": 18, "h_end": 22,
                      "h_min": 3.0}},
         "ev_flex: h_min must be a whole number, got 3.0"),
        ({"ev_flex": {"y_flex": math.nan, "h_start": 18, "h_end": 22}},
         "ev_flex: y_flex must be finite, got nan"),
    ]

    @pytest.mark.parametrize("edit, message", NOT_NUMBERS,
                             ids=[message for _, message in NOT_NUMBERS])
    def test_non_number_in_numeric_field_rejected(self, tmp_path, capsys,
                                                  edit, message):
        self.assert_rejected(tmp_path, capsys, edit, message)

    NOT_BOOLS = [
        ({"include_nuclear": "false"},
         "include_nuclear must be true or false, got 'false'"),
        ({"include_h2": 0}, "include_h2 must be true or false, got 0"),
        ({"include_h2": None}, "include_h2 must be true or false, got None"),
    ]

    @pytest.mark.parametrize("edit, message", NOT_BOOLS,
                             ids=[message for _, message in NOT_BOOLS])
    def test_non_bool_in_flag_field_rejected(self, tmp_path, capsys, edit,
                                             message):
        # "false" is a truthy string: read as a flag it would turn
        # nuclear on in a file that says false.
        self.assert_rejected(tmp_path, capsys, edit, message)

    @pytest.mark.parametrize("omega", [math.nan, -math.inf],
                             ids=["nan", "-inf"])
    def test_non_finite_omega_rejected(self, tmp_path, capsys, omega):
        # JSON's NaN and -Infinity parse as floats, which no GHG row takes.
        payload = {**{k: v for k, v in json.loads(
            (FIXTURE / "scenario.json").read_text()).items() if k != "lcp"},
            "mode": "ghg+hve", "omega": omega}
        message = f"scenario config: omega must be finite, got {omega}"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(RunnerError) as exc:
            load_config(path)
        assert str(exc.value) == message
        assert main(["run", "--inputs", str(FIXTURE), "--config",
                     str(path)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_bool_flags_accepted(self):
        payload = {**json.loads((FIXTURE / "scenario.json").read_text()),
                   "include_nuclear": False, "include_h2": True}
        config = load_config(payload)
        assert (config.include_nuclear, config.include_h2) == (False, True)

    @staticmethod
    def assert_rejected(tmp_path, capsys, edit, message):
        # The fixture's own scenario with one field edited.
        payload = {**json.loads((FIXTURE / "scenario.json").read_text()),
                   **edit}
        with pytest.raises(RunnerError) as exc:
            load_config(payload)
        assert str(exc.value) == f"scenario config: {message}"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload))
        assert main(["run", "--inputs", str(FIXTURE), "--config",
                     str(path)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: scenario config: {message}\n")


class TestParseRange:
    def test_colon_range_inclusive(self):
        assert parse_range("0:1:0.2") == pytest.approx(
            (0.0, 0.2, 0.4, 0.6, 0.8, 1.0))

    def test_single_value(self):
        assert parse_range("0.4") == (0.4,)

    def test_comma_list(self):
        assert parse_range("0,0.3,0.9") == (0.0, 0.3, 0.9)

    def test_bad_step_rejected(self):
        with pytest.raises(RunnerError):
            parse_range("0:1:0")


# --------------------------------------------------------------------------
# single-scenario pipeline


class TestRunScenario:
    def test_optimal_run_writes_artifacts(self, micro_bundle, tmp_path):
        out = tmp_path / "out"
        result = run_scenario(micro_bundle, lcp_config(0.4, 0.0), out_dir=out)
        assert result.exit_code == EXIT_OK
        assert result.report.status == "optimal"
        assert result.report.lcp_realized >= 0.4 - 1e-6
        for name in ("report.csv", "report.json", "operations.csv"):
            assert (out / name).is_file()
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["status"] == "optimal"
        record = json.loads((out / "report.json").read_text())
        assert record["lcoe_usd_per_mwh"] == pytest.approx(
            result.report.lcoe_usd_per_mwh)

    def test_repeat_runs_byte_identical(self, micro_bundle, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        run_scenario(micro_bundle, lcp_config(0.4, 0.2), out_dir=out1)
        run_scenario(micro_bundle, lcp_config(0.4, 0.2), out_dir=out2)
        for name in ("report.csv", "report.json", "operations.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_infeasible_exit_code(self, fossil_bundle, tmp_path):
        out = tmp_path / "out"
        result = run_scenario(fossil_bundle, lcp_config(1.0, 0.0),
                              out_dir=out)
        assert result.exit_code == EXIT_INFEASIBLE
        assert result.report is None
        assert result.stage == "solve"
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["status"] == "infeasible"
        assert rows[0]["lcoe_usd_per_mwh"] == ""

    def test_slack_emissions_target_is_feasible(self, micro_bundle):
        config = ScenarioConfig(mode="ghg+hve", omega=0.0, p_heat=0.0,
                                p_veh=0.0)
        result = run_scenario(micro_bundle, config)
        assert result.exit_code == EXIT_OK
        ledger = result.report.emissions
        assert ledger is not None
        assert ledger.total_mmt <= ledger.eps_reference + 1e-9

    def test_validation_failure_is_stage_tagged(self, tmp_path):
        net, series, costs, params, cal = micro_system()
        bad = {n: -np.ones(T) for n in net.node_ids}
        series = TimeSeriesSet(**{**{f: getattr(series, f) for f in (
            "d_elec", "d_heat_full", "d_veh_full", "w_on", "w_off",
            "w_us_solar", "w_btm_solar", "h_fix", "nuclear")},
            "d_elec": bad})
        path = tmp_path / "bad"
        save_bundle(path, net, series, costs, params, cal)
        result = run_scenario(path, lcp_config())
        assert result.exit_code == EXIT_INVALID
        assert result.stage == "validate"
        assert "d_elec" in result.message

    def test_iteration_limit_exit_code(self, micro_bundle, monkeypatch):
        solve = runner.solve
        monkeypatch.setattr(runner, "solve", lambda lp, start=None: solve(
            lp, SolveOptions(max_iterations=1), start=start))
        result = run_scenario(micro_bundle, lcp_config(0.4, 0.0))
        assert result.exit_code == EXIT_ITERATION_LIMIT
        assert result.report is None

    def test_export_writes_mps_without_solving(self, micro_bundle, tmp_path):
        out = tmp_path / "out"
        result = run_scenario(micro_bundle, lcp_config(0.4, 0.0),
                              solver="export", out_dir=out)
        assert result.exit_code == EXIT_OK
        assert result.report is None
        text = (out / "model.mps").read_text()
        assert text.startswith("* OFFSET")
        assert "ENDATA" in text
        assert not (out / "report.csv").exists()

    def test_export_rejects_a_solution_file(self, micro_bundle, tmp_path):
        sol_file = tmp_path / "solution.txt"
        sol_file.write_text("")
        out = tmp_path / "out"
        with pytest.raises(RunnerError, match="solver is export"):
            run_scenario(micro_bundle, lcp_config(0.4, 0.0),
                         solver="export", out_dir=out,
                         solution_file=sol_file)
        assert not out.exists()

    def test_imported_solution_reproduces_builtin_report(
            self, micro_bundle, tmp_path):
        baseline = run_scenario(micro_bundle, lcp_config(0.4, 0.0))
        sol_file = tmp_path / "solution.txt"
        lines = [f"{name} {value!r}"
                 for name, value in baseline.solution_values.items()]
        sol_file.write_text("\n".join(lines) + "\n")
        result = run_scenario(micro_bundle, lcp_config(0.4, 0.0),
                              solution_file=sol_file)
        assert result.exit_code == EXIT_OK
        assert result.report.total_cost_usd == pytest.approx(
            baseline.report.total_cost_usd, rel=1e-9)
        assert result.report.lcoe_usd_per_mwh == pytest.approx(
            baseline.report.lcoe_usd_per_mwh, rel=1e-9)

    def test_solution_file_repeating_a_column_fails_at_solve(
            self, micro_bundle, tmp_path, capsys):
        baseline = run_scenario(micro_bundle, lcp_config(0.4, 0.0))
        name = next(iter(baseline.solution_values))
        sol_file = tmp_path / "solution.txt"
        sol_file.write_text("".join(
            f"{k} {v!r}\n" for k, v in baseline.solution_values.items())
            + f"{name} 1e9\n")
        config = write_config(tmp_path, {"mode": "lcp+hve", "lcp": 0.4,
                                         "p_heat": 0.0, "p_veh": 0.0})
        code = main(["run", "--inputs", str(micro_bundle), "--config",
                     config, "--solution", str(sol_file)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"solve: solution gives column {name!r} twice\n")

    def test_non_finite_solution_file_not_optimal(self, micro_bundle,
                                                  tmp_path):
        baseline = run_scenario(micro_bundle, lcp_config(0.4, 0.0))
        name = next(iter(baseline.solution_values))
        sol_file = tmp_path / "solution.txt"
        sol_file.write_text("".join(
            f"{k} {'nan' if k == name else repr(v)}\n"
            for k, v in baseline.solution_values.items()))
        result = run_scenario(micro_bundle, lcp_config(0.4, 0.0),
                              solution_file=sol_file)
        assert result.status == "infeasible"
        assert result.exit_code == EXIT_INFEASIBLE
        assert result.report is None
        assert name in result.message


class TestBtmYear:
    CONFIG = {"mode": "lcp+hve", "lcp": 0.0, "p_heat": 0.0, "p_veh": 0.0,
              "btm_year": 2030}

    def test_capacity_is_the_statewide_projection(self, tmp_path):
        path = tmp_path / "btm"
        save_bundle(path, *btm_system((0.6, 0.4), d_elec=5000.0))
        result = run_scenario(path, load_config(self.CONFIG))
        assert result.exit_code == EXIT_OK
        assert result.report.capacity["btm-solar"] == pytest.approx(
            btm_statewide_mw(2030) / 1000.0, rel=1e-12)

    def test_fractions_must_sum_to_one(self, tmp_path, capsys):
        path = tmp_path / "btm"
        save_bundle(path, *btm_system((0.6, 0.3), d_elec=5000.0))
        code = main(["run", "--inputs", str(path), "--config",
                     write_config(tmp_path, self.CONFIG)])
        captured = capsys.readouterr()
        assert code == EXIT_INVALID
        assert captured.err == ("validate: btm_fraction sums to 0.9 over the "
                                "nodes; btm_year needs a sum of 1\n")

    def test_each_fraction_within_unit_interval(self, tmp_path, capsys):
        # These sum to 1, so only the per-node range catches them.
        path = tmp_path / "btm"
        save_bundle(path, *btm_system((1.5, -0.5), d_elec=5000.0))
        code = main(["run", "--inputs", str(path), "--config",
                     write_config(tmp_path, self.CONFIG)])
        captured = capsys.readouterr()
        assert code == EXIT_INVALID
        assert captured.err == (
            "validate: node a: btm_fraction=1.5 outside [0, 1]; "
            "node b: btm_fraction=-0.5 outside [0, 1]\n")

    def test_btm_beyond_the_load_fails_at_demand(self, tmp_path, capsys):
        # 6.6 GW of BTM solar at a 0.2 factor outruns a 2 x 100 MW load, so
        # no net demand would be left to level costs over: nothing solves.
        path = tmp_path / "btm"
        save_bundle(path, *btm_system((0.6, 0.4), d_elec=100.0))
        out = tmp_path / "out"
        code = main(["run", "--inputs", str(path), "--config",
                     write_config(tmp_path, self.CONFIG), "--out", str(out)])
        captured = capsys.readouterr()
        btm = btm_statewide_mw(2030) * 0.2 * T
        assert code == EXIT_INVALID
        assert captured.err == (
            f"demand: behind-the-meter solar output of {btm:.6g} MWh is at "
            f"least the largest load of {2 * 100.0 * T:.6g} MWh that the "
            "scenario allows\n")
        assert not (out / "report.json").exists()


def _drop(name, key):
    """Delete ``key`` from the cost map ``name``."""
    return lambda costs: dataclasses.replace(costs, **{name: {
        k: v for k, v in getattr(costs, name).items() if k != key}})


def _spoil(name, value):
    """Set hour (or day) 1 of node a's ``name`` series to ``value``; a
    series the fixture lacks is first made from ``d_elec``."""
    def mutate(series):
        arr = np.array((getattr(series, name) or series.d_elec)["a"])
        arr[1] = value
        return dataclasses.replace(series, **{name: {
            **(getattr(series, name) or series.d_elec), "a": arr}})
    return mutate


# (bundle part, its mutation, the one message validate and build both give)
FIXTURE_MUTATIONS = [
    ("series", _spoil("d_elec", np.nan),
     "series d_elec[a] is not finite at hour 1 (nan)"),
    ("series", _spoil("h_fix", np.inf),
     "series h_fix[a] is not finite at hour 1 (inf)"),
    ("series", _spoil("e_veh_daily_full", np.nan),
     "series e_veh_daily_full[a] is not finite at day 1 (nan)"),
    ("costs", _drop("ex_cap", "a"),
     "missing cost ex_cap[a] for existing-capacity maintenance"),
    ("costs", _drop("ex_tx", "a"),
     "missing cost ex_tx[a] for existing-transmission charges"),
    ("costs", _drop("omf_us_solar", "b"),
     "missing cost omf_us_solar[b] for cap_us_solar[b]"),
    ("costs", _drop("c_ff", "a"), "missing cost c_ff[a] for fossil fuel"),
    ("costs", _drop("c_hydro", "a"), "missing cost c_hydro[a] for hydro energy"),
    ("params", lambda params: dataclasses.replace(
        params, p_years={"storage": 10, "transmission": 20}),
     "p_years has no annualization period for 'generation'"),
    ("costs", lambda costs: dataclasses.replace(
        costs, cap_batt_p={"b": 300.0}, omf_batt_p={"b": 8.5}),
     "missing cost cap_batt_e[b] for cap_battery_power[b]"),
    ("params", lambda params: dataclasses.replace(params, tx_loss=1.0),
     "parameter tx_loss=1.0 outside [0, 1)"),
    ("params", lambda params: dataclasses.replace(params, eta_ff_new=0.0),
     "parameter eta_ff_new=0.0 outside (0, 1]"),
]


@pytest.mark.parametrize("part, mutate, message", FIXTURE_MUTATIONS,
                         ids=[message for _, _, message in FIXTURE_MUTATIONS])
def test_validate_reports_what_build_rejects(part, mutate, message):
    # validate, with no scenario, passes only what every scenario builds.
    bundle = load_bundle(FIXTURE)
    parts = {"network": bundle.network, "series": bundle.series,
             "costs": bundle.costs, "params": bundle.params}
    parts[part] = mutate(parts[part])
    assert validate(**parts) == [message]
    config = load_config(FIXTURE / "scenario.json")
    demand = synthesize_demand(parts["network"], parts["series"], config,
                               parts["params"])
    with pytest.raises(LPError) as exc:
        build_lp(config, **parts, demand=demand, emissions=bundle.emissions)
    assert str(exc.value) == message


# --------------------------------------------------------------------------
# sweeps


class TestSweepSpec:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SweepSpec(lcp_values=(), hve_values=(0.0,))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="within"):
            SweepSpec(lcp_values=(0.5, 1.2), hve_values=(0.0,))

    def test_both_axes_rejected(self):
        # Given both, the grid would sweep one axis and drop the other.
        with pytest.raises(ValueError, match="not both"):
            SweepSpec(lcp_values=(0.2, 0.4), omega_values=(0.3,),
                      hve_values=(0.0,))

    def test_jobs_must_be_one(self):
        # Each cell starts from an earlier one, so cells run in sequence.
        for jobs in (0, 2):
            with pytest.raises(ValueError, match="jobs must be 1"):
                SweepSpec(lcp_values=(0.5,), hve_values=(0.0,), jobs=jobs)
        assert SweepSpec(lcp_values=(0.5,), hve_values=(0.0,), jobs=1)


def record_cells(monkeypatch, fail=()):
    """Patch the runner's run_scenario to record, per sweep cell, its
    (lcp, rate), the start it is given and the basis it returns. The cells
    in ``fail`` fail at stage solve without solving."""
    cells = []
    run = runner.run_scenario

    def spy(bundle, config, **kw):
        cell = (config.lcp, config.p_heat)
        if cell in fail:
            result = RunResult(
                status="infeasible", exit_code=EXIT_INFEASIBLE,
                stage="solve", message="failed on purpose", report=None,
                failure={"label": str(cell), "status": "infeasible"})
        else:
            result = run(bundle, config, **kw)
        cells.append((cell, kw.get("start"), result.basis))
        return result

    monkeypatch.setattr(runner, "run_scenario", spy)
    return cells


CHAIN_LCP, CHAIN_HVE = (0.0, 0.3, 0.6), (0.0, 0.5, 1.0)


class TestRunSweep:
    def test_two_by_two_grid(self, micro_bundle, tmp_path):
        spec = SweepSpec(lcp_values=(0.0, 0.4), hve_values=(0.0, 0.5),
                         out_dir=tmp_path)
        result = run_sweep(micro_bundle, spec)
        assert result.exit_code == EXIT_OK
        assert len(result.records) == 4
        with open(tmp_path / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        cells = [(float(r["lcp_target"]), float(r["heat_electrified"]))
                 for r in rows]
        assert cells == sorted(cells)

    def test_cost_nondecreasing_in_lcp(self, micro_bundle, tmp_path):
        spec = SweepSpec(lcp_values=(0.0, 0.3, 0.6), hve_values=(0.2,),
                         out_dir=tmp_path)
        result = run_sweep(micro_bundle, spec)
        costs = [r.total_cost_usd for r in result.reports]
        assert all(b >= a - 1e-6 * max(abs(a), 1.0)
                   for a, b in zip(costs, costs[1:]))

    def test_cost_nondecreasing_in_omega(self, micro_bundle, tmp_path):
        spec = SweepSpec(omega_values=(0.0, 0.3, 0.5), hve_values=(0.0,),
                         out_dir=tmp_path)
        result = run_sweep(micro_bundle, spec)
        assert result.exit_code == EXIT_OK
        costs = [r.total_cost_usd for r in result.reports]
        assert all(b >= a - 1e-6 * max(abs(a), 1.0)
                   for a, b in zip(costs, costs[1:]))

    def test_failed_cells_recorded_without_aborting(self, fossil_bundle,
                                                    tmp_path):
        spec = SweepSpec(lcp_values=(0.0, 0.5), hve_values=(0.0,),
                         out_dir=tmp_path)
        result = run_sweep(fossil_bundle, spec)
        assert result.exit_code == EXIT_OK  # one cell still solved
        with open(tmp_path / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["optimal", "infeasible"]
        assert rows[1]["total_cost_usd"] == ""

    def test_failed_cell_record_equals_run_report_json(self, fossil_bundle,
                                                       tmp_path):
        spec = SweepSpec(lcp_values=(0.0, 0.5), hve_values=(0.0,),
                         out_dir=tmp_path / "sweep")
        sweep = run_sweep(fossil_bundle, spec)
        run = run_scenario(fossil_bundle, lcp_config(0.5, 0.0),
                           out_dir=tmp_path / "run")
        record = json.loads((tmp_path / "run" / "report.json").read_text())
        assert record["stage"] == "solve"
        assert run.failure == record
        cells = json.loads((tmp_path / "sweep" / "report.json").read_text())
        assert cells[1] == sweep.records[1]
        # The sweep's cell starts from cell 0's basis and the run from the
        # slack basis, so each message states its own certificate's bound;
        # both lead with the same rows.
        rest = lambda rec: {k: v for k, v in rec.items() if k != "message"}
        assert rest(sweep.records[1]) == rest(record)
        rows = record["message"].partition(" led by ")[2]
        assert rows.startswith("['balance[n,0]'")
        assert sweep.records[1]["message"].startswith("no feasible point")
        assert sweep.records[1]["message"].endswith(f" led by {rows}")

    def test_all_failed_is_nonzero_exit(self, fossil_bundle, tmp_path):
        spec = SweepSpec(lcp_values=(0.5, 1.0), hve_values=(0.0,),
                         out_dir=tmp_path)
        result = run_sweep(fossil_bundle, spec)
        assert result.exit_code == EXIT_INFEASIBLE

    def test_repeat_sweep_byte_identical(self, micro_bundle, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            run_sweep(micro_bundle, SweepSpec(
                lcp_values=(0.0, 0.4), hve_values=(0.0, 0.5), out_dir=out))
        assert (out1 / "report.csv").read_bytes() == \
            (out2 / "report.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == \
            (out2 / "report.json").read_bytes()

    def test_cell_starts_from_its_rate_one_target_back(self, micro_bundle,
                                                       monkeypatch):
        cells = record_cells(monkeypatch)
        run_sweep(micro_bundle, SweepSpec(lcp_values=CHAIN_LCP,
                                          hve_values=CHAIN_HVE))
        # Solved and recorded in spec.cells() order.
        assert [cell for cell, _, _ in cells] == [
            (lcp, hve) for lcp in CHAIN_LCP for hve in CHAIN_HVE]
        basis = {cell: b for cell, _, b in cells}
        assert None not in basis.values()
        for i, ((lcp, hve), start, _) in enumerate(cells):
            if lcp == CHAIN_LCP[0]:
                # The first target: the latest solved cell, the one before.
                assert start is (cells[i - 1][2] if i else None)
            else:
                back = CHAIN_LCP[CHAIN_LCP.index(lcp) - 1]
                assert start is basis[(back, hve)]

    def test_after_failures_a_cell_starts_from_the_latest_solved(
            self, micro_bundle, monkeypatch):
        # No cell at rate 0.5 has solved when (0.3, 0.5) runs, so it starts
        # from the latest solved cell; (0.6, 1) starts from the latest
        # solved cell at its rate, two targets back.
        cells = record_cells(monkeypatch, fail={(0.0, 0.5), (0.3, 1.0)})
        result = run_sweep(micro_bundle, SweepSpec(lcp_values=CHAIN_LCP,
                                                   hve_values=CHAIN_HVE))
        assert result.exit_code == EXIT_OK
        assert len(result.reports) == 7
        start = {cell: s for cell, s, _ in cells}
        basis = {cell: b for cell, _, b in cells}
        assert basis[(0.0, 0.5)] is basis[(0.3, 1.0)] is None
        assert start[(0.0, 1.0)] is basis[(0.0, 0.0)]
        assert start[(0.3, 0.5)] is basis[(0.3, 0.0)]
        assert start[(0.6, 0.5)] is basis[(0.3, 0.5)]
        assert start[(0.6, 1.0)] is basis[(0.0, 1.0)]

    def test_chained_cells_match_runs_alone(self, micro_bundle):
        # Each cell starts from an earlier cell's basis; what the least
        # cost fixes must be what a run of the cell alone reports.
        for spec in (
                SweepSpec(lcp_values=(0.0, 0.3, 0.6), hve_values=(0.0, 0.5)),
                SweepSpec(omega_values=(0.0, 0.2, 0.3),
                          hve_values=(0.0, 0.5))):
            sweep = run_sweep(micro_bundle, spec)
            assert len(sweep.reports) == len(spec.cells())
            for (mode, overrides), report in zip(spec.cells(),
                                                 sweep.reports):
                alone = run_scenario(micro_bundle, ScenarioConfig(
                    mode=mode, **overrides)).report
                assert report.total_cost_usd == pytest.approx(
                    alone.total_cost_usd, rel=1e-9)
                assert report.lcoe_usd_per_mwh == pytest.approx(
                    alone.lcoe_usd_per_mwh, rel=1e-9)
                assert report.capacity == pytest.approx(
                    alone.capacity, rel=1e-9, abs=1e-9)


# --------------------------------------------------------------------------
# minimum-LCOE search


def spy_solves(monkeypatch) -> list:
    """Record each solve the runner calls, as (LP, start)."""
    calls = []
    solve = runner.solve
    monkeypatch.setattr(runner, "solve", lambda lp, *a, start=None: (
        calls.append((lp, start)) or solve(lp, *a, start=start)))
    return calls


def assert_same_plan(report, cold) -> None:
    """``report`` gives the costs, LCOE, capacities and emissions of
    ``cold`` to 1e-9 of max(1, |value|)."""
    close = lambda a, b: abs(a - b) <= 1e-9 * max(1.0, abs(b))
    assert close(report.total_cost_usd, cold.total_cost_usd)
    assert close(report.lcoe_usd_per_mwh, cold.lcoe_usd_per_mwh)
    assert report.capacity.keys() == cold.capacity.keys()
    assert all(close(report.capacity[k], cold.capacity[k])
               for k in cold.capacity)
    warm_eps = dataclasses.asdict(report.emissions)
    cold_eps = dataclasses.asdict(cold.emissions)
    assert all(close(warm_eps[k], cold_eps[k]) for k in cold_eps)


# The benchmark's sweep_48h grid, and a grid over the emissions target.
CHAIN_GRIDS = {
    "lcp-hve": dict(lcp_values=(0.0, 0.2, 0.4, 0.6, 0.8),
                    hve_values=(0.0, 0.2, 0.4)),
    "omega-hve": dict(omega_values=(0.0, 0.15, 0.3, 0.45),
                      hve_values=(0.0, 0.2, 0.4)),
}


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("grid", CHAIN_GRIDS)
def test_chain_matches_cold_runs(grid, seed, monkeypatch):
    # Each cell of a sweep starts from a neighbour's basis, most with its
    # factor carried (and a changed policy row folded in). Every cell's
    # reported quantities are those of a cold run of the cell alone.
    bundle = tiled_fixture(1, seed)
    base = json.loads((FIXTURE / "scenario.json").read_text())
    spec = SweepSpec(jobs=1, **CHAIN_GRIDS[grid])
    solves = []
    solve = runner.solve

    def spy(lp, *args, **kw):
        solves.append((lp, solve(lp, *args, **kw), len(inverts)))
        return solves[-1][1]

    monkeypatch.setattr(runner, "solve", spy)
    inverts = count_inverts(monkeypatch)
    sweep = run_sweep(bundle, spec, base=base)
    first, chained = solves[0][2], len(inverts) - solves[0][2]
    monkeypatch.undo()
    assert len(sweep.reports) == len(sweep.records) == len(solves)
    for lp, sol, _ in solves:
        assert worst_reduced_cost(lp, sol) <= 1e-9
    base_kw = runner._base_config_dict(base)
    for (mode, overrides), report in zip(spec.cells(), sweep.reports):
        assert_same_plan(report, run_scenario(bundle, runner.config_from_dict(
            {**base_kw, "mode": mode, **overrides})).report)
    if grid == "lcp-hve" and seed == 5:
        # The first cell is a cold run, which solves its 24 h half first:
        # it inverts as often as the cell run alone.
        mode, overrides = spec.cells()[0]
        alone = count_inverts(monkeypatch)
        run_scenario(bundle, runner.config_from_dict(
            {**base_kw, "mode": mode, **overrides}))
        assert first == len(alone)
        # The cells after it: 34 at the parent, which refactored at every
        # start, after every pivot below 1e-3 and at the end of each solve
        # that pivoted.
        assert chained <= 10


def grid_best(bundle, omega, rates, base=None) -> float:
    """The least LCOE of runs at the ascending ``rates``, chained as a
    sweep's cells. The feasible rates are an interval, the projection of a
    polyhedron, so the scan stops at an infeasible rate past a feasible
    one."""
    best, start = math.inf, None
    base_kw = runner._base_config_dict(base)
    for hve in np.unique(rates):
        result = run_scenario(bundle, runner.config_from_dict(
            {**base_kw, "mode": "ghg+hve", "omega": omega, "p_heat": hve,
             "p_veh": hve}), start=start)
        if result.report is not None:
            best = min(best, result.report.lcoe_usd_per_mwh)
            start = result.basis
        elif start is not None:
            break
    return best


class TestMinLcoeSearch:
    @pytest.mark.parametrize("omega", [-1.0, 0.3])
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.2, 0.6), (0.4, 0.4)])
    def test_no_rate_of_a_fine_grid_does_better(self, micro_bundle, omega,
                                                 lo, hi):
        result = min_lcoe_search(micro_bundle, omega, lo=lo, hi=hi)
        assert lo <= result.hve <= hi
        assert result.lcoe <= grid_best(
            micro_bundle, omega, np.linspace(lo, hi, 11)) + 1e-9
        assert result.report.status == "optimal"
        assert result.lcoe == result.report.lcoe_usd_per_mwh
        assert result.lcp == result.report.lcp_realized

    def test_result_is_a_run_of_the_rate_found(self, micro_bundle):
        # The report comes from the chain's last solve, and plans what a
        # cold run of the rate found plans.
        result = min_lcoe_search(micro_bundle, omega=0.3)
        assert result.report.ghg_reduction >= 0.3 - 1e-6
        alone = run_scenario(micro_bundle, ScenarioConfig(
            mode="ghg+hve", omega=0.3, p_heat=result.hve,
            p_veh=result.hve)).report
        assert result.report.heat_electrified == alone.heat_electrified
        assert_same_plan(result.report, alone)

    def test_trace_is_one_warm_started_lp_per_step(self, micro_bundle,
                                                   monkeypatch):
        calls = spy_solves(monkeypatch)
        solutions = []
        spy = runner.solve
        monkeypatch.setattr(runner, "solve", lambda *a, **kw: (
            solutions.append(spy(*a, **kw)) or solutions[-1]))
        result = min_lcoe_search(micro_bundle, omega=0.3)
        # One LP per trace entry, then the run of the rate found, each
        # from the basis of the one before.
        assert len(calls) == len(result.trace) + 1 >= 3
        steps, (run_lp, run_start) = calls[:-1], calls[-1]
        assert steps[0][1] is None
        assert all(start is sol.basis
                   for (_, start), sol in zip(calls[1:], solutions))
        assert all(lp.col_names[-1] == "t" for lp, _ in steps)
        assert run_start is not None and "t" not in run_lp.col_names
        # Dinkelbach's LCOEs never rise, and the last is the run's.
        lcoes = [lcoe for _, lcoe in result.trace]
        assert lcoes == sorted(lcoes, reverse=True)
        assert result.trace[-1][0] == result.hve
        assert lcoes[-1] == pytest.approx(result.lcoe, rel=1e-9)

    def test_unreachable_target_raises(self, fossil_bundle):
        with pytest.raises(SearchError, match="^no feasible rate in "
                                              r"\[0.0, 1.0\]: "):
            min_lcoe_search(fossil_bundle, omega=0.99)

    def test_a_bound_stopped_after_validate_exits_infeasible(
            self, tmp_path, capsys, monkeypatch):
        # BTM solar outruns the largest load: stage demand stops the rate
        # lo, and the search names it without solving anything.
        net, series, costs, params, cal = micro_system()
        net = NetworkSpec(nodes=[dataclasses.replace(net.nodes[0],
                                                     btm_fraction=1.0)])
        series = dataclasses.replace(series, w_btm_solar=_flat(net, 0.2))
        save_bundle(tmp_path / "btm", net, series, costs, params, cal)
        calls = spy_solves(monkeypatch)
        code = main(["search-lcoe", "--inputs", str(tmp_path / "btm"),
                     "--config", write_config(tmp_path, {"btm_year": 2030}),
                     "--ghg", "0.3", "--bounds", "0.2,0.6"])
        captured = capsys.readouterr()
        assert code == EXIT_INFEASIBLE
        assert captured.err.startswith(
            "search: at hve 0.2, demand: behind-the-meter solar output of ")
        assert calls == []

    @pytest.mark.parametrize("lo, hi, cause", [
        (1.0, 0.0, "search bounds [1.0, 0.0] must be finite with lo <= hi"),
        (0.0, math.inf, "search bounds [0.0, inf]"),
        (math.nan, 1.0, "search bounds [nan, 1.0]"),
        (0.0, 1.5, "p_heat must be in [0, 1], got 1.5"),
    ], ids=["reversed", "inf", "nan", "above-one"])
    def test_malformed_bounds_raise_before_any_solve(
            self, micro_bundle, monkeypatch, lo, hi, cause):
        calls = spy_solves(monkeypatch)
        with pytest.raises(RunnerError) as info:
            min_lcoe_search(micro_bundle, 0.3, lo=lo, hi=hi)
        assert not isinstance(info.value, SearchError)
        assert cause in str(info.value)
        assert calls == []


SEARCH_BASE = json.loads((FIXTURE / "scenario.json").read_text())


@pytest.fixture(scope="module")
def fixture_96h():
    return tiled_fixture(2)


def charnes_cooper_lcoe(bundle, omega) -> float:
    """The least LCOE over rates in [0, 1], by HiGHS on the Charnes-Cooper
    transform of the LPs at rates 0 and 1 over the net demand D: with
    y = x s and tau = t s, s = 1 / D(t), the LP is min c y + offset s
    subject to A y - b0 s - db tau (sense) 0, y_j <= u0_j s + du_j tau,
    lower_j s <= y_j, tau <= s and D0 s + dD tau = 1."""
    ends = []
    for hve in (0.0, 1.0):
        config = runner.config_from_dict({
            **runner._base_config_dict(SEARCH_BASE), "mode": "ghg+hve",
            "omega": omega, "p_heat": hve, "p_veh": hve})
        dem = synthesize_demand(bundle.network, bundle.series, config,
                                bundle.params)
        lp, _ = build_lp(config, bundle.network, bundle.series, bundle.costs,
                         bundle.params, dem, emissions=bundle.emissions)
        # Grid load, end uses and EV charging, less behind-the-meter solar.
        load = sum(np.sum(bundle.series.d_elec[n]) + np.sum(dem.d_heat[n])
                   + np.sum(dem.d_veh_fix[n])
                   + np.sum(dem.ev_envelopes[n].required_mwh)
                   - dem.x_btm_mw[n] * np.sum(bundle.series.w_btm_solar[n])
                   for n in bundle.network.node_ids)
        ends.append((lp, load))
    (lp0, d0), (lp1, d1) = ends
    m, n = lp0.n_rows, lp0.n_cols
    col = lambda v: sparse.csr_matrix(np.reshape(v, (-1, 1)))
    a = sparse.hstack([sparse.csr_matrix(
        (lp0.data, lp0.indices, lp0.indptr), shape=(m, n)),
        col(lp0.rhs - lp1.rhs), col(-lp0.rhs)]).tocsr()
    le, eq = lp0.sense == "<=", lp0.sense == "="
    ge = lp0.sense == ">="
    j = np.flatnonzero(np.isfinite(lp0.upper))
    eye = sparse.identity(n, format="csr")
    a_ub = sparse.vstack([
        a[le], -a[ge],
        sparse.hstack([eye[j], col(lp0.upper[j] - lp1.upper[j]),
                       col(-lp0.upper[j])]),
        sparse.hstack([-eye, col(np.zeros(n)), col(lp0.lower)]),
        sparse.csr_matrix(np.r_[np.zeros(n), 1.0, -1.0])]).tocsr()
    a_eq = sparse.vstack([a[eq], sparse.csr_matrix(
        np.r_[np.zeros(n), d1 - d0, d0])]).tocsr()
    res = linprog(np.r_[lp0.objective, 0.0, lp0.offset], A_ub=a_ub,
                  b_ub=np.zeros(a_ub.shape[0]), A_eq=a_eq,
                  b_eq=np.r_[np.zeros(a_eq.shape[0] - 1), 1.0],
                  bounds=(0.0, None), method="highs")
    assert res.status == 0, res.message
    return res.fun


@pytest.mark.parametrize("omega", [0.1, 0.2, 0.3, 0.4, 0.45])
@pytest.mark.parametrize("horizon", ["48h", "96h"])
def test_search_is_the_exact_minimum(horizon, omega, request):
    bundle = (load_bundle(FIXTURE) if horizon == "48h"
              else request.getfixturevalue("fixture_96h"))
    result = min_lcoe_search(bundle, omega, base=SEARCH_BASE)
    assert result.lcoe == pytest.approx(charnes_cooper_lcoe(bundle, omega),
                                        rel=1e-9)
    assert result.lcoe == pytest.approx(result.report.lcoe_usd_per_mwh,
                                        rel=1e-12)


def test_search_beats_every_rate_of_a_fine_grid():
    # At omega 0.45 the least LCOE is inside the interval, at hve 0.0006.
    bundle = load_bundle(FIXTURE)
    result = min_lcoe_search(bundle, 0.45, base=SEARCH_BASE)
    assert 0.0 < result.hve < 0.005
    assert result.lcoe <= grid_best(bundle, 0.45, np.linspace(0.0, 1.0, 201),
                                    SEARCH_BASE) + 1e-9


# --------------------------------------------------------------------------
# command-line interface


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


NON_FINITE = [(name, value)
              for name in (*TimeSeriesSet._HOURLY_FIELDS,
                           *TimeSeriesSet._DAILY_FIELDS)
              for value in (np.nan, np.inf, -np.inf)]


@pytest.mark.parametrize("name, value", NON_FINITE,
                         ids=[f"{name}={value}" for name, value in NON_FINITE])
def test_non_finite_series_value_stops_at_validate(tmp_path, capsys, name,
                                                   value):
    bundle = load_bundle(FIXTURE)
    path = tmp_path / "b"
    save_bundle(path, bundle.network, _spoil(name, value)(bundle.series),
                bundle.costs, bundle.params, bundle.emissions)
    unit = "hour" if name in TimeSeriesSet._HOURLY_FIELDS else "day"
    message = f"series {name}[a] is not finite at {unit} 1 ({value})"
    assert main(["validate", "--inputs", str(path)]) == EXIT_INVALID
    assert f"invalid: {message}\n" in capsys.readouterr().err
    result = run_scenario(load_bundle(path),
                          load_config(FIXTURE / "scenario.json"))
    assert (result.exit_code, result.stage) == (EXIT_INVALID, "validate")
    assert message in result.message.split("; ")


def test_series_node_outside_the_network_stops_at_validate(tmp_path, capsys):
    path = tmp_path / "b"
    shutil.copytree(FIXTURE, path)
    with open(path / "series" / "w_on.csv", "a", encoding="utf-8") as fh:
        fh.writelines(f"c,{t},0.5\n" for t in range(48))
    message = "series w_on gives node c, which is not a network node"
    assert main(["validate", "--inputs", str(path)]) == EXIT_INVALID
    assert capsys.readouterr().err == f"invalid: {message}\n"
    result = run_scenario(load_bundle(path),
                          load_config(FIXTURE / "scenario.json"))
    assert (result.exit_code, result.stage, result.message) == \
        (EXIT_INVALID, "validate", message)


class TestCli:
    def test_validate_ok(self, micro_bundle, capsys):
        assert main(["validate", "--inputs", str(micro_bundle)]) == EXIT_OK
        assert "ok" in capsys.readouterr().out.lower()

    def test_validate_reports_problems(self, tmp_path, capsys):
        net, series, costs, params, cal = micro_system()
        costs = CostTable(**{**{f.name: getattr(costs, f.name)
                                for f in costs.__dataclass_fields__.values()},
                             "c_ff": {}})
        path = tmp_path / "bad"
        save_bundle(path, net, series, costs, params, cal)
        code = main(["validate", "--inputs", str(path)])
        assert code == EXIT_INVALID
        assert "c_ff" in capsys.readouterr().err

    def test_run_command(self, micro_bundle, tmp_path, capsys):
        config = write_config(tmp_path, {"mode": "lcp+hve", "lcp": 0.4,
                                         "p_heat": 0.0, "p_veh": 0.0})
        out = tmp_path / "out"
        code = main(["run", "--inputs", str(micro_bundle),
                     "--config", config, "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "report.csv").is_file()

    def test_run_without_out_prints_json(self, micro_bundle, tmp_path,
                                         capsys):
        config = write_config(tmp_path, {"mode": "lcp+hve", "lcp": 0.2,
                                         "p_heat": 0.0, "p_veh": 0.0})
        code = main(["run", "--inputs", str(micro_bundle),
                     "--config", config])
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "optimal"

    def test_run_infeasible_exit(self, fossil_bundle, tmp_path):
        config = write_config(tmp_path, {"mode": "lcp+hve", "lcp": 1.0,
                                         "p_heat": 0.0, "p_veh": 0.0})
        assert main(["run", "--inputs", str(fossil_bundle),
                     "--config", config]) == EXIT_INFEASIBLE

    def test_run_export_solver(self, micro_bundle, tmp_path):
        config = write_config(tmp_path, {"mode": "lcp+hve", "lcp": 0.4,
                                         "p_heat": 0.0, "p_veh": 0.0})
        out = tmp_path / "out"
        code = main(["run", "--inputs", str(micro_bundle), "--config",
                     config, "--solver", "export", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "model.mps").is_file()

    def test_export_external_solve_and_solution_by_mps_names(self, tmp_path,
                                                            capsys):
        # The README's loop: export, solve model.mps elsewhere, and read
        # back NAME VALUE lines keyed by the MPS file's own names.
        config = str(FIXTURE / "scenario.json")
        exported = tmp_path / "mps"
        assert main(["run", "--inputs", str(FIXTURE), "--config", config,
                     "--solver", "export", "--out", str(exported)]) == EXIT_OK
        text = (exported / "model.mps").read_text()
        status, _, values = solve_mps_with_highs(text)
        assert status == "optimal"
        assert all(len(name) <= 8 for name in values)
        sol_file = tmp_path / "values.txt"
        sol_file.write_text("".join(f"{name} {float(value)!r}\n"
                                    for name, value in values.items()))
        out = tmp_path / "demo"
        assert main(["run", "--inputs", str(FIXTURE), "--config", config,
                     "--solution", str(sol_file), "--out", str(out)]) == EXIT_OK
        assert main(["run", "--inputs", str(FIXTURE), "--config",
                     config]) == EXIT_OK
        builtin = json.loads(capsys.readouterr().out)["total_cost_usd"]
        external = json.loads((out / "report.json").read_text())
        assert external["status"] == "optimal"
        assert external["total_cost_usd"] == pytest.approx(builtin, rel=1e-6)

    def test_run_export_rejects_solution(self, micro_bundle, tmp_path,
                                         capsys):
        config = write_config(tmp_path, {"mode": "lcp+hve", "lcp": 0.4,
                                         "p_heat": 0.0, "p_veh": 0.0})
        sol_file = tmp_path / "solution.txt"
        sol_file.write_text("")
        out = tmp_path / "out"
        code = main(["run", "--inputs", str(micro_bundle), "--config",
                     config, "--solver", "export", "--solution",
                     str(sol_file), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert not (out / "model.mps").exists()

    def test_run_missing_solution_file(self, micro_bundle, tmp_path, capsys):
        config = write_config(tmp_path, {"mode": "lcp+hve", "lcp": 0.4,
                                         "p_heat": 0.0, "p_veh": 0.0})
        missing = tmp_path / "nonexistent.txt"
        code = main(["run", "--inputs", str(micro_bundle), "--config",
                     config, "--solution", str(missing)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("solve: ")
        assert captured.err.count("\n") == 1
        assert str(missing) in captured.err

    def test_run_names_a_bad_number_with_its_line(self, tmp_path, capsys):
        config = str(FIXTURE / "scenario.json")
        sol_file = tmp_path / "values.txt"
        sol_file.write_text("* from elsewhere\nC0 1_0\n", encoding="utf-8")
        code = main(["run", "--inputs", str(FIXTURE), "--config", config,
                     "--solution", str(sol_file)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert (captured.out, captured.err) == (
            "", "solve: solution line 2: numbers must be ASCII, "
                "without '_': '1_0'\n")

    def test_validate_passes_what_run_rejects(self, tmp_path, capsys):
        # validate and run read one list of requirements, so both reject
        # the bundle, and run before building anything.
        bundle = fixture_copy(
            tmp_path, lambda payload: payload["costs"]["ex_cap"].pop("a"))
        message = "missing cost ex_cap[a] for existing-capacity maintenance"
        assert main(["validate", "--inputs", str(bundle)]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"invalid: {message}\n")
        code = main(["run", "--inputs", str(bundle), "--config",
                     str(FIXTURE / "scenario.json")])
        captured = capsys.readouterr()
        assert code == EXIT_INVALID
        assert captured.out == ""
        assert captured.err == f"validate: {message}\n"

    def test_validate_reports_a_partial_emissions_calibration(
            self, tmp_path, capsys):
        # A GHG-target run reads the calibration for every node, so
        # validate rejects one that misses a node, and run stops there.
        def drop_b(payload):
            for name in ("f_heat_tot_mj", "f_veh_tot_mj"):
                payload["emissions"][name].pop("b")

        bundle = fixture_copy(tmp_path, drop_b)
        messages = [f"emissions calibration {name} must give one value per "
                    "network node: missing ['b'], unknown []"
                    for name in ("f_heat_tot_mj", "f_veh_tot_mj")]
        assert main(["validate", "--inputs", str(bundle)]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "".join(f"invalid: {m}\n" for m in messages))
        base = json.loads((FIXTURE / "scenario.json").read_text())
        config = {**{k: v for k, v in base.items() if k != "lcp"},
                  "mode": "ghg+hve", "omega": 0.3}
        code = main(["run", "--inputs", str(bundle), "--config",
                     write_config(tmp_path, config)])
        captured = capsys.readouterr()
        assert code == EXIT_INVALID
        assert captured.err == f"validate: {'; '.join(messages)}\n"

    STOPS_AT_VALIDATE = [
        (lambda payload: payload["params"].update(eta_ff_new=0.0), {},
         "parameter eta_ff_new=0.0 outside (0, 1]"),
        (None, {"p_heat": {"a": 0.5}},
         "p_heat must give one rate per network node: missing ['b'], "
         "unknown []"),
        (None, {"p_heat": {"a": 0.3, "b": 0.3, "zz": 0.9}},
         "p_heat must give one rate per network node: missing [], "
         "unknown ['zz']"),
    ]

    @pytest.mark.parametrize("bundle_edit, scenario, message",
                             STOPS_AT_VALIDATE,
                             ids=[message for *_, message in STOPS_AT_VALIDATE])
    def test_run_stops_at_validate(self, tmp_path, capsys, bundle_edit,
                                   scenario, message):
        # Each stops the run before any demand is built or LP solved.
        bundle = (FIXTURE if bundle_edit is None
                  else fixture_copy(tmp_path, bundle_edit))
        config = {**json.loads((FIXTURE / "scenario.json").read_text()),
                  **scenario}
        code = main(["run", "--inputs", str(bundle), "--config",
                     write_config(tmp_path, config)])
        captured = capsys.readouterr()
        assert code == EXIT_INVALID
        assert captured.err == f"validate: {message}\n"

    def test_sweep_command(self, micro_bundle, tmp_path):
        out = tmp_path / "out"
        code = main(["sweep", "--inputs", str(micro_bundle),
                     "--lcp", "0:0.4:0.4", "--hve", "0:0.5:0.5",
                     "--out", str(out)])
        assert code == EXIT_OK
        with open(out / "report.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 4

    def test_search_command(self, micro_bundle, tmp_path, capsys):
        out = tmp_path / "search"
        code = main(["search-lcoe", "--inputs", str(micro_bundle),
                     "--ghg", "-1.0", "--out", str(out)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        record = json.loads(printed)
        assert (out / "search.json").read_text() == printed
        assert sorted(record) == ["ghg", "hve", "lcoe", "lcp", "trace"]
        assert 0.0 <= record["hve"] <= 1.0
        assert record["lcoe"] > 0.0
        assert len(record["trace"]) >= 2
        assert all(len(entry) == 2 for entry in record["trace"])
        with open(out / "report.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert float(row["lcoe_usd_per_mwh"]) == record["lcoe"]

    def test_search_bounds_are_lo_hi(self, micro_bundle, capsys):
        code = main(["search-lcoe", "--inputs", str(micro_bundle),
                     "--ghg", "-1.0", "--bounds", "0.2,0.6"])
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert all(0.2 <= v <= 0.6 for v, _ in record["trace"])
        assert record["hve"] == record["trace"][-1][0]

    @pytest.mark.parametrize("args, cause", [
        (["--bounds", "abc"], "--bounds takes lo,hi (two numbers), got 'abc'"),
        (["--bounds", "0:1:0.3"], "--bounds takes lo,hi"),
        (["--bounds", "0,0.5,1"], "--bounds takes lo,hi"),
        (["--bounds", "1,0"], "search bounds [1.0, 0.0]"),
        (["--bounds", "nan,1"], "search bounds [nan, 1.0]"),
        (["--bounds", "0,1.5"], "p_heat must be in [0, 1], got 1.5"),
        (["--ghg", "nan"], "scenario config: omega must be finite, got nan"),
    ], ids=["bounds-abc", "bounds-range", "bounds-three", "bounds-reversed",
            "bounds-nan", "bounds-above-one", "ghg-nan"])
    def test_search_bad_arguments_exit_error(self, micro_bundle, capsys,
                                             monkeypatch, args, cause):
        calls = spy_solves(monkeypatch)
        code = main(["search-lcoe", "--inputs", str(micro_bundle),
                     "--ghg", "-1.0", *args])
        captured = capsys.readouterr()
        assert calls == []
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert cause in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["sweep", "--lcp", "0.2", "--hve", "0.2"],
        ["search-lcoe", "--ghg", "-1.0"],
    ], ids=["sweep", "search-lcoe"])
    @pytest.mark.parametrize("text, cause", [
        (None, "cannot read config"),
        ("{\"lcp\": ", "is not valid JSON"),
        ("[0.2]", "must hold a JSON object"),
    ], ids=["missing", "bad-json", "not-object"])
    def test_bad_config_file_exits_error(self, micro_bundle, tmp_path, capsys,
                                         command, text, cause):
        config = tmp_path / "config.json"
        if text is not None:
            config.write_text(text)
        code = main([*command, "--inputs", str(micro_bundle),
                     "--config", str(config)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert cause in captured.err
        assert captured.err.count("\n") == 1

    def test_search_stops_at_the_first_invalid_probe(self, capsys,
                                                     monkeypatch):
        # The fixture ships vehicle demand as daily totals, which needs an
        # ev_flex block from --config; no electrification rate mends that.
        calls = spy_solves(monkeypatch)
        code = main(["search-lcoe", "--inputs", str(FIXTURE),
                     "--ghg", "0.3"])
        captured = capsys.readouterr()
        assert code == EXIT_INVALID
        assert (captured.out, captured.err) == (
            "", "validate: fixed EV charging (no ev_flex) needs the hourly "
                "vehicle series d_veh_full\n")
        assert calls == []
        with pytest.raises(InvalidScenarioError, match="^validate: "):
            min_lcoe_search(FIXTURE, 0.3)

    @pytest.mark.parametrize("args, cause", [
        (["--lcp", "1.5", "--hve", "0"], "lcp value 1.5 is not within [0, 1]"),
        (["--lcp", "0.2", "--hve", "nan"],
         "hve value nan is not within [0, 1]"),
        (["--ghg", "0.3", "--hve", "-0.1"],
         "hve value -0.1 is not within [0, 1]"),
        (["--lcp", "0.9", "--ghg", "0.3", "--hve", "0.2"],
         "a sweep takes lcp targets (--lcp) or omega targets (--ghg), "
         "not both"),
    ], ids=["lcp-1.5", "hve-nan", "hve-negative", "lcp-and-ghg"])
    def test_sweep_bad_grid_exits_error(self, micro_bundle, capsys, args,
                                        cause):
        code = main(["sweep", "--inputs", str(micro_bundle), *args])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert (captured.out, captured.err) == ("", f"error: {cause}\n")

    def test_sweep_of_invalid_cells_exits_invalid(self, capsys):
        code = main(["sweep", "--inputs", str(FIXTURE), "--lcp", "0.2",
                     "--hve", "0:0.4:0.2"])
        assert code == EXIT_INVALID
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["status"] for r in rows] == ["invalid"] * 3

    def test_search_infeasible_exit(self, fossil_bundle, capsys):
        code = main(["search-lcoe", "--inputs", str(fossil_bundle),
                     "--ghg", "0.99"])
        assert code == EXIT_INFEASIBLE
        assert "feasible" in capsys.readouterr().err.lower()

    def test_files_read_and_written_as_utf8(self, tmp_path):
        # -X warn_default_encoding with EncodingWarning as an error fails
        # any open, read_text or write_text left to the locale's encoding.
        config = str(FIXTURE / "scenario.json")
        result = run_scenario(load_bundle(FIXTURE), load_config(config))
        solution = tmp_path / "values.txt"
        solution.write_text("".join(
            f"{name} {value!r}\n"
            for name, value in result.solution_values.items()),
            encoding="utf-8")
        out = str(tmp_path)
        probe = textwrap.dedent("""\
            import sys
            from gridplan import runner
            fixture, config, solution, out = sys.argv[1:]
            for args in (["run", "--out", out + "/run"],
                         ["run", "--solver", "export", "--out", out + "/mps"],
                         ["run", "--solution", solution,
                          "--out", out + "/ext"],
                         ["sweep", "--lcp", "0:0.2:0.2", "--hve", "0",
                          "--out", out + "/sweep"]):
                code = runner.main([args[0], "--inputs", fixture,
                                    "--config", config, *args[1:]])
                if code != 0:
                    sys.exit(f"{args}: exit {code}")
            bundle = runner.load_bundle(fixture)
            runner.save_bundle(out + "/bundle", bundle.network, bundle.series,
                               bundle.costs, bundle.params, bundle.emissions)
            runner.load_bundle(out + "/bundle")
            """)
        src = str(Path(gridplan.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding",
             "-W", "error::EncodingWarning", "-c", probe, str(FIXTURE),
             config, str(solution), out],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "Warning" not in done.stderr
        for name in ("run/report.json", "run/operations.csv", "mps/model.mps",
                     "ext/report.json", "sweep/report.csv",
                     "bundle/bundle.json"):
            assert (tmp_path / name).is_file(), name


# --------------------------------------------------------------------------
# a cold run of 48 h or more starts from its first half in whole days


def record_solves(monkeypatch) -> list:
    """Patch runner.solve to record each call's LP, start and Solution."""
    calls = []
    solve = runner.solve

    def spy(lp, *args, start=None, **kw):
        calls.append((lp, start, solve(lp, *args, start=start, **kw)))
        return calls[-1][2]

    monkeypatch.setattr(runner, "solve", spy)
    return calls


def test_cold_96h_run_starts_from_its_first_half(monkeypatch):
    config = load_config(FIXTURE / "scenario.json")
    calls = record_solves(monkeypatch)
    concluded = []
    conclude = gridplan.solver._Working.conclude

    def spy(self, sx, status):
        concluded.append(conclude(self, sx, status))
        return concluded[-1]

    monkeypatch.setattr(gridplan.solver._Working, "conclude", spy)
    result = run_scenario(tiled_fixture(2), config)
    assert result.status == "optimal"
    (lp, start, sol), = calls
    # The start is the LP of the first 48 h: at seed 0, the fixture's own.
    assert lp.n_rows == 497
    assert start.serialize() == runner._stage(load_bundle(FIXTURE),
                                              config)[1].serialize()
    # One solve: the period cold, then the whole from its folded basis.
    period, whole = concluded
    assert period.iterations == gridplan.solve(start).iterations
    assert sol.iterations == period.iterations + whole.iterations
    assert result.basis is sol.basis


def cut(bundle, hours):
    """``bundle`` cut to its first ``hours``, n_years scaled to match."""
    return dataclasses.replace(
        bundle, series=bundle.series.head(hours),
        params=dataclasses.replace(bundle.params, n_years=(
            bundle.params.n_years * hours / bundle.series.n_hours)))


@pytest.mark.parametrize("hours, period", [
    (24, None), (48, 24), (72, 24), (120, 48), (168, 72)])
def test_period_is_the_first_half_in_whole_days(hours, period, monkeypatch):
    config = load_config(FIXTURE / "scenario.json")
    bundle = cut(tiled_fixture(4), hours)
    staged, stage = [], runner._stage
    monkeypatch.setattr(runner, "_stage", lambda b, c: (
        staged.append(b) or stage(b, c)))
    lp = runner._period_lp(bundle, config)
    if period is None:
        assert lp is None and not staged
        return
    (first,) = staged
    assert first.series.n_hours == period
    assert first.params.n_years == pytest.approx(
        bundle.params.n_years * period / hours, rel=1e-15)
    if 2 * period == hours:
        assert first.params.n_years == bundle.params.n_years / 2
    assert lp.col_names == stage(cut(bundle, period), config)[1].col_names


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("hours", [48, 72, 120, 168])
def test_period_started_run_matches_a_cold_solve(hours, seed, monkeypatch):
    # Every horizon of 48 h or more starts from its period; the run reaches
    # the optimum of a cold solve and of HiGHS, in fewer pivots than cold
    # but for one case below.
    config = load_config(FIXTURE / "scenario.json")
    bundle = cut(tiled_fixture(4, seed), hours)
    calls = record_solves(monkeypatch)
    result = run_scenario(bundle, config)
    (lp, start, sol), = calls
    assert start is not None
    cold = gridplan.solve(lp)
    status, highs, _ = solve_mps_with_highs(gridplan.export_mps(lp))
    assert result.status == cold.status == status == "optimal"
    assert sol.objective == pytest.approx(cold.objective, rel=1e-9)
    assert sol.objective == pytest.approx(highs, rel=1e-9)
    assert sol.duality_gap <= 1e-9
    if (hours, seed) == (120, 1):
        # 120 h is not a whole number of 48 h periods: its last 24 h fold
        # onto the period's first day, and hour 119, which the storage
        # wrap links to hour 0, onto hour 23. Here the start saves little
        # or nothing: 1,113 pivots against 1,075 cold with two BLAS
        # threads, 1,063 against 1,123 with one (ROADMAP item 24).
        assert sol.iterations < 1.1 * cold.iterations
    else:
        assert sol.iterations < cold.iterations
    inp, _ = runner._stage(bundle, config)
    assert_same_plan(result.report, gridplan.summarize(inp, lp, cold))


def test_other_runs_stay_on_their_start(monkeypatch):
    # A 72 h run starts from its first 24 h and a 120 h one from its first
    # 48 h; a 24 h run, with no whole day in its half, stays cold, and a
    # chained run keeps its start.
    config = load_config(FIXTURE / "scenario.json")
    calls = record_solves(monkeypatch)
    for hours, period in ((72, 24), (120, 48)):
        bundle = cut(tiled_fixture(3), hours)
        assert run_scenario(bundle, config).status == "optimal"
        assert calls[-1][1].n_rows == runner._stage(
            cut(bundle, period), config)[1].n_rows
    assert run_scenario(cut(load_bundle(FIXTURE), 24), config).status == (
        "optimal")
    assert calls[-1][1] is None
    b96 = tiled_fixture(2)
    first = run_scenario(b96, config)
    chained = run_scenario(b96, config, start=first.basis)
    assert chained.status == "optimal"
    assert calls[-1][1] is first.basis
    assert calls[-1][2].iterations < calls[-2][2].iterations
