"""Tests for the scenario runner: input bundles on disk, the staged
single-scenario pipeline with exit codes, grid sweeps, the minimum-cost
electrification search, and the command-line interface.

Bundles are tiny single-node systems written to tmp dirs through the
runner's own serialization, so every test exercises the disk round trip.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

import gridplan
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
    RunnerError,
    SearchError,
    SweepSpec,
    golden_section,
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

from helpers import build_lp

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
        with pytest.raises(RunnerError, match="d_elec"):
            load_bundle(path)


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

    def test_iteration_limit_exit_code(self, micro_bundle):
        result = run_scenario(micro_bundle, lcp_config(0.4, 0.0),
                              solve_options=SolveOptions(max_iterations=1))
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


# (bundle part, its mutation, the one message validate and build both give)
FIXTURE_MUTATIONS = [
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

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            SweepSpec(lcp_values=(0.5,), hve_values=(0.0,), jobs=0)


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
        assert sweep.records[1] == record
        cells = json.loads((tmp_path / "sweep" / "report.json").read_text())
        assert cells[1] == record

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

    def test_parallel_matches_serial(self, micro_bundle, tmp_path):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        run_sweep(micro_bundle, SweepSpec(
            lcp_values=(0.0, 0.3, 0.6), hve_values=(0.0, 0.5),
            out_dir=serial, jobs=1))
        run_sweep(micro_bundle, SweepSpec(
            lcp_values=(0.0, 0.3, 0.6), hve_values=(0.0, 0.5),
            out_dir=parallel, jobs=3))
        assert (serial / "report.csv").read_bytes() == \
            (parallel / "report.csv").read_bytes()


# --------------------------------------------------------------------------
# minimum-LCOE search


class TestGoldenSection:
    def test_synthetic_convex_minimum(self):
        f = lambda v: (v - 0.5) ** 2 + 2.0
        best_x, best_val, trace = golden_section(f, 0.0, 1.0, tol=0.005)
        assert best_x == pytest.approx(0.5, abs=0.005)
        assert best_val == pytest.approx(2.0, abs=1e-4)
        assert len(trace) >= 5
        assert all(len(entry) == 2 for entry in trace)

    def test_boundary_minimum(self):
        best_x, best_val, _ = golden_section(lambda v: 3.0 - v, 0.0, 1.0,
                                             tol=0.005)
        assert best_x == pytest.approx(1.0, abs=0.005)

    def test_infeasible_region_skipped(self):
        f = lambda v: None if v > 0.7 else (v - 0.2) ** 2
        best_x, best_val, _ = golden_section(f, 0.0, 1.0, tol=0.005)
        assert best_x == pytest.approx(0.2, abs=0.01)

    def test_everywhere_infeasible_raises(self):
        with pytest.raises(SearchError, match="feasible"):
            golden_section(lambda v: None, 0.0, 1.0, tol=0.005)

    @pytest.mark.parametrize("lo, hi, tol", [
        (1.0, 0.0, 0.005), (0.0, math.inf, 0.005), (math.nan, 1.0, 0.005),
        (0.0, 1.0, 0.0), (0.0, 1.0, math.nan)])
    def test_malformed_arguments_raise_before_evaluating(self, lo, hi, tol):
        calls = []
        with pytest.raises(RunnerError) as info:
            golden_section(calls.append, lo, hi, tol)
        assert not isinstance(info.value, SearchError)
        assert calls == []


class TestMinLcoeSearch:
    def test_matches_grid_oracle_with_slack_target(self, micro_bundle):
        result = min_lcoe_search(micro_bundle, omega=-1.0, tol=0.005)
        grid = [min_lcoe_search(micro_bundle, omega=-1.0,
                                method=f"grid:{1}", lo=v, hi=v).lcoe
                for v in np.linspace(0.0, 1.0, 21)]
        best_grid = min(grid)
        slope = max(abs(b - a) for a, b in zip(grid, grid[1:])) / 0.05
        assert result.lcoe <= best_grid + 0.005 * slope + 1e-9
        assert result.report is not None
        assert result.report.status == "optimal"

    def test_binding_target_returns_feasible_incumbent(self, micro_bundle):
        result = min_lcoe_search(micro_bundle, omega=0.3, tol=0.005)
        assert 0.0 <= result.hve <= 1.0
        assert result.report.ghg_reduction >= 0.3 - 1e-6
        assert result.lcoe == pytest.approx(
            result.report.lcoe_usd_per_mwh, rel=1e-12)
        assert len(result.trace) >= 5

    def test_grid_fallback(self, micro_bundle):
        result = min_lcoe_search(micro_bundle, omega=-1.0, method="grid:10")
        assert len(result.trace) == 11
        hves = [h for h, _ in result.trace]
        assert hves == sorted(hves)

    def test_unreachable_target_raises(self, fossil_bundle):
        with pytest.raises(SearchError, match="[Nn]o feasible"):
            min_lcoe_search(fossil_bundle, omega=0.99, tol=0.005)


# --------------------------------------------------------------------------
# command-line interface


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


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
                     "--jobs", "2", "--out", str(out)])
        assert code == EXIT_OK
        with open(out / "report.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 4

    def test_search_command(self, micro_bundle, tmp_path, capsys):
        code = main(["search-lcoe", "--inputs", str(micro_bundle),
                     "--ghg", "-1.0", "--search", "grid:6"])
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert 0.0 <= record["hve"] <= 1.0
        assert record["lcoe"] > 0.0
        assert len(record["trace"]) == 7

    def test_search_bounds_are_lo_hi(self, micro_bundle, capsys):
        code = main(["search-lcoe", "--inputs", str(micro_bundle),
                     "--ghg", "-1.0", "--bounds", "0.2,0.6",
                     "--search", "grid:4"])
        assert code == EXIT_OK
        trace = json.loads(capsys.readouterr().out)["trace"]
        assert [v for v, _ in trace] == pytest.approx([0.2, 0.3, 0.4, 0.5,
                                                       0.6])

    @pytest.mark.parametrize("args, cause", [
        (["--bounds", "abc"], "--bounds takes lo,hi (two numbers), got 'abc'"),
        (["--bounds", "0:1:0.3"], "--bounds takes lo,hi"),
        (["--bounds", "0,0.5,1"], "--bounds takes lo,hi"),
        (["--tol", "0"], "tolerance must be positive"),
        (["--bounds", "1,0"], "search bounds [1.0, 0.0]"),
        (["--bounds", "1,0", "--search", "grid:2"],
         "search bounds [1.0, 0.0]"),
    ], ids=["bounds-abc", "bounds-range", "bounds-three", "tol-0",
            "bounds-reversed", "grid-bounds-reversed"])
    def test_search_bad_arguments_exit_error(self, micro_bundle, capsys,
                                             args, cause):
        code = main(["search-lcoe", "--inputs", str(micro_bundle),
                     "--ghg", "-1.0", *args])
        captured = capsys.readouterr()
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

    def test_search_infeasible_exit(self, fossil_bundle, capsys):
        code = main(["search-lcoe", "--inputs", str(fossil_bundle),
                     "--ghg", "0.99"])
        assert code == EXIT_INFEASIBLE
        assert "feasible" in capsys.readouterr().err.lower()
