"""Scenario orchestration: input bundles on disk, the staged solve pipeline,
grid sweeps, the minimum-cost electrification search, and the CLI.

An input bundle is a directory holding ``bundle.json`` (network, cost table,
technology parameters, optional emissions calibration) and a ``series/``
subdirectory with one ``node,t,value`` CSV per time series. Everything the
runner writes is deterministic: rerunning any command on the same bytes
produces the same bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .demand import synthesize_demand
from .emissions import EmissionsCalibration
from .formulation import BuildInputs, LPError, assemble, rate_axis_lp
from .model import (
    HOURS_PER_DAY,
    CostTable,
    EVFlexConfig,
    InterfaceSpec,
    NetworkSpec,
    NodeSpec,
    ScenarioConfig,
    TechParams,
    TimeSeriesSet,
    validate,
)
from .reporting import (
    ScenarioReport,
    realized_emissions,
    render_report_csv,
    report_json_dict,
    summarize,
    write_operations_csv,
    write_report_csv,
)
from .solver import (
    STATUS_INFEASIBLE,
    STATUS_ITERATION_LIMIT,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    Basis,
    export_mps,
    float_text,
    import_solution,
    solve,
    write_lines,
    write_mps,
)

__all__ = [
    "Bundle",
    "EXIT_ERROR",
    "EXIT_INFEASIBLE",
    "EXIT_INVALID",
    "EXIT_ITERATION_LIMIT",
    "EXIT_OK",
    "EXIT_UNBOUNDED",
    "InvalidScenarioError",
    "RunResult",
    "RunnerError",
    "SearchError",
    "SearchResult",
    "SweepResult",
    "SweepSpec",
    "load_bundle",
    "load_config",
    "main",
    "min_lcoe_search",
    "parse_range",
    "run_scenario",
    "run_sweep",
    "save_bundle",
]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3
EXIT_ITERATION_LIMIT = 4
EXIT_INVALID = 5

_STATUS_EXIT = {
    STATUS_OPTIMAL: EXIT_OK,
    STATUS_INFEASIBLE: EXIT_INFEASIBLE,
    STATUS_UNBOUNDED: EXIT_UNBOUNDED,
    STATUS_ITERATION_LIMIT: EXIT_ITERATION_LIMIT,
}


class RunnerError(Exception):
    """Bad inputs or configuration handed to the runner."""


class SearchError(RunnerError):
    """The minimum-LCOE search cannot proceed or found nothing feasible."""


class InvalidScenarioError(SearchError):
    """A search stopped at stage ``validate``, which no rate passes; the
    message is ``<stage>: <message>``, as ``run`` prints it."""


# --------------------------------------------------------------------------
# input bundles on disk


@dataclass(frozen=True)
class Bundle:
    """A fully loaded input bundle."""

    network: NetworkSpec
    series: TimeSeriesSet
    costs: CostTable
    params: TechParams
    emissions: EmissionsCalibration | None = None


_SERIES_FIELDS = tuple(f.name for f in dataclasses.fields(TimeSeriesSet))


def save_bundle(path, network: NetworkSpec, series: TimeSeriesSet,
                costs: CostTable, params: TechParams,
                emissions: EmissionsCalibration | None = None) -> None:
    """Write an input bundle directory (deterministic bytes)."""
    root = Path(path)
    (root / "series").mkdir(parents=True, exist_ok=True)
    payload = {
        "network": {
            "nodes": [dataclasses.asdict(n)
                      for n in sorted(network.nodes, key=lambda n: n.id)],
            "interfaces": [dataclasses.asdict(i) for i in network.interfaces],
            "offshore_cap_total_mw": network.offshore_cap_total_mw,
        },
        "costs": dataclasses.asdict(costs),
        "params": dataclasses.asdict(params),
    }
    if emissions is not None:
        payload["emissions"] = dataclasses.asdict(emissions)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    (root / "bundle.json").write_text(text, encoding="utf-8")
    for name in _SERIES_FIELDS:
        mapping = getattr(series, name)
        if mapping is None:
            continue
        with open(root / "series" / f"{name}.csv", "w", newline="",
                  encoding="utf-8") as fh:
            fh.write("node,t,value\n")
            for node in sorted(mapping):
                values = np.asarray(mapping[node], dtype=float)
                hours = np.arange(values.size)
                write_lines(fh, ([f"{node},{t}," for t in hours.tolist()],
                                 hours), float_text(values, "\n"))


def _read_series_csv(path: Path, name: str) -> dict[str, np.ndarray]:
    """Read a series CSV (syntax in the README) into ``{node: values}``,
    nodes as first seen: one ``np.loadtxt`` pass, then one lexsort."""
    head, _, body = path.read_text(encoding="utf-8").partition("\n")
    if (header := head.strip()) != "node,t,value":
        raise RunnerError(f"series {name}: expected header "
                          f"'node,t,value', got {header!r}")
    if not body.strip("\n"):
        return {}
    raw = np.frombuffer(f"\n{body},".encode(), np.uint8)  # widest node id
    starts, commas = np.flatnonzero(raw == 10) + 1, np.flatnonzero(raw == 44)
    width = max(np.max(commas[np.searchsorted(commas, starts)] - starts), 1)
    try:
        with warnings.catch_warnings():  # numpy < 2 reads hour 5.0 as 5
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(io.StringIO(body), delimiter=",", comments=None,
                              ndmin=1, dtype=[("node", f"U{width}"),
                                              ("t", np.int64), ("v", float)])
    except (ValueError, DeprecationWarning) as exc:
        _raise_fault(path, name)
        raise RunnerError(f"series {name}: {exc}") from exc
    ids, first, inverse = np.unique(rows["node"], return_index=True,
                                    return_inverse=True)
    by_node = np.lexsort((rows["t"], first[inverse]))
    group = first[inverse][by_node]  # a row's node, as the node's first row
    hour = np.arange(len(group)) - np.searchsorted(group, group)
    if np.any(rows["t"][by_node] != hour):
        _raise_fault(path, name)
        j = np.argmax(rows["t"][by_node] != hour)
        raise RunnerError(f"series {name}: node {rows['node'][group[j]]} is "
                          f"missing hour {hour[j]} (expected contiguous "
                          f"0..{np.sum(group == group[j]) - 1})")
    return dict(zip(ids[np.argsort(first)].tolist(), np.split(
        rows["v"][by_node], np.flatnonzero(np.diff(group)) + 1)))


def _raise_fault(path: Path, name: str) -> None:
    """Raise RunnerError naming the first bad line of a series CSV, if any."""
    seen: dict[tuple[str, int], int] = {}
    lines = path.read_text(encoding="utf-8").split("\n")
    for line_no, parts in enumerate((ln.split(",") for ln in lines[1:]), 2):
        if parts == [""]:
            continue
        try:
            if len(parts) != 3:
                raise ValueError("expected 3 fields")
            t, _ = int(parts[1]), float(parts[2])
            if not all(p.isascii() and "_" not in p for p in parts[1:]):
                raise ValueError("numbers must be ASCII, without '_'")
            if not 0 <= t < 2 ** 63:
                raise ValueError(f"hour {t} is out of range")
        except ValueError as exc:
            raise RunnerError(f"series {name} line {line_no}: {exc}") from exc
        if seen.setdefault((parts[0], t), line_no) != line_no:
            raise RunnerError(
                f"series {name}: node {parts[0]} hour {t} is given "
                f"on line {seen[parts[0], t]} and again on line {line_no}")


def _check_fields(cls, values: Mapping, where: str) -> None:
    """Raise RunnerError unless each numeric field of the dataclass ``cls``
    given in ``values`` holds a finite number, whole where the field is an
    ``int``, or, where the field takes a ``Mapping``, a JSON object of
    such numbers, and each ``bool`` field holds true or false. A bool,
    string or null is not a number, JSON's NaN and Infinity are not
    finite, 18.0 is not an int, and a string or number is not a bool."""
    for f in dataclasses.fields(cls):
        if f.name not in values:
            continue
        kinds = f.type.split(" | ")
        value = values[f.name]
        if kinds == ["bool"] and not isinstance(value, bool):
            raise RunnerError(f"{where}{f.name} must be true or false, "
                              f"got {value!r}")
        scalar = [kind for kind in kinds if kind in ("float", "int")]
        mapping = [kind.removeprefix("Mapping[str, ").removesuffix("]")
                   for kind in kinds if kind.startswith("Mapping")]
        if mapping and isinstance(value, Mapping):
            kind = mapping[0]
            items = [(f"{f.name}[{k}]", v) for k, v in value.items()]
        elif scalar:
            kind, items = scalar[0], [(f.name, value)]
        elif mapping:
            raise RunnerError(f"{where}{f.name} must be an object of "
                              f"numbers, got {value!r}")
        else:
            continue
        for label, v in items:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise RunnerError(f"{where}{label} must be a number, "
                                  f"got {v!r}")
            if isinstance(v, float) and not math.isfinite(v):
                raise RunnerError(f"{where}{label} must be finite, "
                                  f"got {v!r}")
            if kind == "int" and not isinstance(v, int):
                raise RunnerError(f"{where}{label} must be a whole number, "
                                  f"got {v!r}")


def load_bundle(path) -> Bundle:
    """Read an input bundle directory written by save_bundle (or by hand)."""
    root = Path(path)
    manifest = root / "bundle.json"
    if not manifest.is_file():
        raise RunnerError(f"not an input bundle: {root} has no bundle.json")
    try:
        payload = json.loads(manifest.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise RunnerError(f"bundle.json is not valid JSON: {exc}") from exc
    try:
        net = payload["network"]
        _check_fields(NetworkSpec, net, "bundle.json: network: ")
        network = NetworkSpec(
            nodes=[NodeSpec(**n) for n in net["nodes"]],
            interfaces=[InterfaceSpec(**i) for i in net.get("interfaces", [])],
            offshore_cap_total_mw=net.get("offshore_cap_total_mw", 0.0),
        )
        costs = CostTable(**payload["costs"])
        params = TechParams(**payload["params"])
        for node in network.nodes:
            _check_fields(NodeSpec, vars(node),
                          f"bundle.json: node {node.id}: ")
        for iface in network.interfaces:
            _check_fields(InterfaceSpec, vars(iface),
                          f"bundle.json: interface {iface.key}: ")
        _check_fields(CostTable, vars(costs), "bundle.json: costs: ")
        _check_fields(TechParams, vars(params), "bundle.json: params: ")
        emissions = None
        if "emissions" in payload:
            # Checked before it is built, which compares and converts.
            calibration = payload["emissions"]
            if isinstance(calibration, Mapping):
                _check_fields(EmissionsCalibration, calibration,
                              "bundle.json: emissions: ")
            emissions = EmissionsCalibration(**calibration)
    except (KeyError, TypeError, ValueError) as exc:
        raise RunnerError(f"bundle.json: {exc}") from exc

    series_kw: dict[str, dict[str, np.ndarray]] = {}
    series_dir = root / "series"
    if not series_dir.is_dir():
        raise RunnerError(f"bundle has no series directory: {series_dir}")
    for csv_path in sorted(series_dir.glob("*.csv")):
        name = csv_path.stem
        if name not in _SERIES_FIELDS:
            raise RunnerError(
                f"unknown series file {csv_path.name}; expected one of "
                f"{', '.join(_SERIES_FIELDS)}")
        series_kw[name] = _read_series_csv(csv_path, name)
    try:
        series = TimeSeriesSet(**series_kw)
    except (TypeError, ValueError) as exc:
        raise RunnerError(f"incomplete series set: {exc}") from exc
    return Bundle(network=network, series=series, costs=costs,
                  params=params, emissions=emissions)


_CONFIG_KEYS = frozenset(f.name for f in
                         dataclasses.fields(ScenarioConfig))


def config_from_dict(payload: Mapping) -> ScenarioConfig:
    unknown = sorted(set(payload) - _CONFIG_KEYS)
    if unknown:
        raise RunnerError(f"unknown scenario-config keys: {unknown}")
    _check_fields(ScenarioConfig, payload, "scenario config: ")
    kw = dict(payload)
    ev = kw.get("ev_flex")
    if isinstance(ev, Mapping):
        _check_fields(EVFlexConfig, ev, "scenario config: ev_flex: ")
        try:
            kw["ev_flex"] = EVFlexConfig(**ev)
        except (TypeError, ValueError) as exc:
            raise RunnerError(f"invalid ev_flex block: {exc}") from exc
    try:
        return ScenarioConfig(**kw)
    except (TypeError, ValueError) as exc:
        raise RunnerError(f"invalid scenario config: {exc}") from exc


def _read_config_json(source) -> dict:
    """The JSON object in a config file, or RunnerError naming the cause."""
    path = Path(source)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise RunnerError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise RunnerError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise RunnerError(f"config {path} must hold a JSON object")
    return payload


def load_config(source) -> ScenarioConfig:
    """Parse a scenario-config JSON file (or an already-parsed mapping)."""
    if isinstance(source, Mapping):
        return config_from_dict(source)
    return config_from_dict(_read_config_json(source))


def parse_range(text: str) -> tuple[float, ...]:
    """Parse ``start:stop:step`` (inclusive), ``a,b,c``, or a single value."""
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("expected start:stop:step")
            start, stop, step = (float(p) for p in parts)
            if step <= 0.0:
                raise ValueError("step must be positive")
            if stop < start:
                raise ValueError("stop must not be below start")
            values = []
            k = 0
            while start + k * step <= stop + 1e-9:
                values.append(round(start + k * step, 10))
                k += 1
            return tuple(values)
        if "," in text:
            return tuple(float(p) for p in text.split(","))
        return (float(text),)
    except ValueError as exc:
        raise RunnerError(f"cannot parse range {text!r}: {exc}") from exc


# --------------------------------------------------------------------------
# single scenario


@dataclass(frozen=True)
class RunResult:
    """Outcome of one scenario run.

    ``report`` is present only for an optimal solve. A failure carries the
    pipeline ``stage`` that stopped it, a diagnostic ``message``, and
    ``failure``: one flat record (label, mode, status, targets, fixed
    electrification rates, stage, message) that is both its ``report.csv``
    row and its ``report.json`` record, in a run and in a sweep alike;
    ``failure`` is None on success. ``solution_values`` maps every LP
    column name to its solved value so external tools (or tests) can
    replay the point. ``basis`` is the optimal basis of a built-in solve,
    which ``run_scenario(..., start=)`` can start a neighbouring scenario
    from; None otherwise. ``mps`` is the MPS text of an export run without
    ``out_dir``; with one, ``model.mps`` is streamed to disk and ``mps`` is
    None, so the text is never held whole.
    """

    status: str
    exit_code: int
    stage: str | None
    message: str
    report: ScenarioReport | None
    failure: Mapping | None = None
    solution_values: Mapping[str, float] | None = None
    artifacts: tuple[str, ...] = ()
    mps: str | None = None
    basis: Basis | None = None


def _default_label(config: ScenarioConfig) -> str:
    parts = [config.mode]
    if config.lcp is not None:
        parts.append(f"lcp{config.lcp:g}")
    if config.omega is not None:
        parts.append(f"ghg{config.omega:g}")
    p_heat, p_veh = config.p_heat, config.p_veh
    if isinstance(p_heat, (int, float)) and isinstance(p_veh, (int, float)):
        if p_heat == p_veh:
            parts.append(f"hve{p_heat:g}")
        else:
            parts.append(f"heat{p_heat:g}-veh{p_veh:g}")
    return "-".join(parts)


def _load_if_path(bundle) -> Bundle:
    if isinstance(bundle, Bundle):
        return bundle
    return load_bundle(bundle)


class _StageError(Exception):
    """A stage before the solve stopped: ``args`` are (stage, message)."""


def _stage(bundle: Bundle, config: ScenarioConfig):
    """The validate, demand and build stages of one scenario: its resolved
    inputs and LP, or _StageError from the first that stops."""
    stage = "validate"
    try:
        problems = validate(bundle.network, bundle.series, bundle.costs,
                            bundle.params, config, emissions=bundle.emissions)
        if problems:
            raise _StageError(stage, "; ".join(problems))
        stage = "demand"
        demand = synthesize_demand(bundle.network, bundle.series, config,
                                   bundle.params)
        stage = "build"
        inp = BuildInputs(config, bundle.network, bundle.series,
                          bundle.costs, bundle.params, demand,
                          emissions=bundle.emissions)
        lp, _ = assemble(inp)
    except (LPError, RunnerError, ValueError, KeyError) as exc:
        raise _StageError(stage, str(exc)) from exc
    return inp, lp


def _period_lp(bundle: Bundle, config: ScenarioConfig):
    """The LP of the first P = 24 * floor(T/48) hours of the bundle's
    horizon T (its half, rounded down to whole days), with n_years scaled
    by P/T; None where P is 0 (T below 48 h) or a stage of it stops. Its
    warnings repeat those of the whole horizon's LP, so they are dropped."""
    hours = bundle.series.n_hours
    period = hours // (2 * HOURS_PER_DAY) * HOURS_PER_DAY
    if not period:
        return None
    half = dataclasses.replace(
        bundle, series=bundle.series.head(period),
        params=dataclasses.replace(
            bundle.params, n_years=bundle.params.n_years * (period / hours)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return _stage(half, config)[1]
        except _StageError:
            return None


def run_scenario(bundle, config: ScenarioConfig, *, label: str | None = None,
                 solver: str = "builtin", out_dir=None, solution_file=None,
                 start: Basis | None = None) -> RunResult:
    """Run the staged pipeline for one scenario.

    Stages: validate, demand, build, then either export (write
    the LP as MPS and stop) or solve, emissions, summarize. With ``out_dir``
    the report CSV/JSON and the hourly operations dump, or an export's
    ``model.mps``, are written there;
    failed solves still write a status row so sweeps stay accountable.
    ``solution_file`` adopts an externally solved NAME VALUE point instead
    of calling the built-in solver; with ``solver="export"`` it is an
    error. ``start``, the ``basis`` of an earlier run, is where the built-in
    solve starts from (see ``gridplan.solver.solve``). Without it, a run of
    48 h or more starts from the LP of its first half in whole days
    (``_period_lp``): the one ``solve`` call solves that cold, then the
    whole from its optimal basis, and counts both in its iterations.
    """
    if solver not in ("builtin", "export"):
        raise RunnerError(f"unknown solver {solver!r}; use builtin or export")
    if solver == "export" and solution_file is not None:
        raise RunnerError("a solution file cannot be imported when the "
                          "solver is export, which solves nothing")
    bundle = _load_if_path(bundle)
    if label is None:
        label = _default_label(config)
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    artifacts: list[str] = []

    def fail(status: str, exit_code: int, stage: str, message: str) -> RunResult:
        scalar = lambda v: v if isinstance(v, (int, float)) else None
        failure = {
            "label": label,
            "mode": config.mode,
            "status": status,
            "lcp_target": config.lcp,
            "rgt_target": config.rgt,
            "omega_target": config.omega,
            "heat_electrified": scalar(config.p_heat),
            "vehicle_electrified": scalar(config.p_veh),
            "stage": stage,
            "message": message,
        }
        if out is not None and stage in ("solve", "emissions", "summarize"):
            write_report_csv(out / "report.csv", [failure])
            (out / "report.json").write_text(
                json.dumps(failure, indent=2, sort_keys=True) + "\n",
                encoding="utf-8")
            artifacts.extend(["report.csv", "report.json"])
        return RunResult(status=status, exit_code=exit_code, stage=stage,
                         message=message, report=None, failure=failure,
                         artifacts=tuple(artifacts))

    try:
        inp, lp = _stage(bundle, config)
    except _StageError as exc:
        return fail("invalid", EXIT_INVALID, *exc.args)

    if solver == "export":
        if out is None:
            return RunResult(status="exported", exit_code=EXIT_OK,
                             stage=None, message="", report=None,
                             mps=export_mps(lp))
        with open(out / "model.mps", "w", encoding="utf-8") as fh:
            write_mps(lp, fh)
        return RunResult(status="exported", exit_code=EXIT_OK, stage=None,
                         message="", report=None, artifacts=("model.mps",))

    stage = "solve"
    try:
        if solution_file is not None:
            with open(solution_file, encoding="utf-8") as fh:
                solution = import_solution(lp, fh)
        else:
            solution = solve(lp, start=start if start is not None
                             else _period_lp(bundle, config))
    except (LPError, OSError, ValueError) as exc:
        return fail("error", EXIT_ERROR, stage, str(exc))
    if solution.status != STATUS_OPTIMAL:
        return fail(solution.status,
                    _STATUS_EXIT.get(solution.status, EXIT_ERROR),
                    stage, solution.message or solution.status)

    try:
        stage = "emissions"
        realized_emissions(inp, solution)
        stage = "summarize"
        report = summarize(inp, lp, solution, label=label)
    except (LPError, ValueError, KeyError) as exc:
        return fail("error", EXIT_ERROR, stage, str(exc))

    if out is not None:
        write_report_csv(out / "report.csv", [report])
        (out / "report.json").write_text(
            json.dumps(report_json_dict(report), indent=2, sort_keys=True)
            + "\n", encoding="utf-8")
        write_operations_csv(out / "operations.csv", inp, lp, solution)
        artifacts.extend(["report.csv", "report.json", "operations.csv"])
    values = dict(zip(lp.col_names, solution.x.tolist()))
    return RunResult(status=STATUS_OPTIMAL, exit_code=EXIT_OK, stage=None,
                     message="", report=report, solution_values=values,
                     artifacts=tuple(artifacts), basis=solution.basis)


# --------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepSpec:
    """A grid of scenarios: low-carbon targets (or emissions targets)
    crossed with uniform electrification rates.

    Cells solve one after another in ``cells()`` order, each from an
    earlier cell's optimal basis (see ``run_sweep``), so ``jobs`` must
    be 1.
    """

    lcp_values: tuple = ()
    hve_values: tuple = ()
    omega_values: tuple | None = None
    jobs: int = 1
    out_dir: object = None

    def __post_init__(self):
        coerce = lambda vs: tuple(float(v) for v in vs)
        object.__setattr__(self, "lcp_values", coerce(self.lcp_values))
        object.__setattr__(self, "hve_values", coerce(self.hve_values))
        if self.omega_values is not None:
            object.__setattr__(self, "omega_values",
                               coerce(self.omega_values))
        if self.jobs != 1:
            raise ValueError(f"jobs must be 1, got {self.jobs}: cells solve "
                             f"in sequence, each from an earlier one")
        if self.lcp_values and self.omega_values is not None:
            raise ValueError("a sweep takes lcp targets (--lcp) or omega "
                             "targets (--ghg), not both")
        if not self.cells():
            raise ValueError("sweep grid must not be empty")
        named = [("lcp", self.lcp_values), ("hve", self.hve_values),
                 ("omega", self.omega_values or ())]
        for name, values in named:
            for v in values:
                if not 0.0 <= v <= 1.0:
                    raise ValueError(
                        f"{name} value {v} is not within [0, 1]")

    def cells(self) -> tuple[tuple[str, dict], ...]:
        """(mode, config overrides) per grid point, sorted by (target, HVE)."""
        if self.omega_values is not None:
            mode, axis, targets = "ghg+hve", "omega", self.omega_values
        else:
            mode, axis, targets = "lcp+hve", "lcp", self.lcp_values
        return tuple((mode, {axis: target, "p_heat": hve, "p_veh": hve})
                     for target in sorted(targets)
                     for hve in sorted(self.hve_values))


@dataclass(frozen=True)
class SweepResult:
    """Outcome of a sweep, in cell order.

    ``records`` holds one entry per cell: its ScenarioReport, or for a
    failed cell the ``RunResult.failure`` record (with ``stage`` and
    ``message``), equal to the ``report.json`` a run of that cell writes.
    ``reports`` holds the successful ScenarioReports alone.
    """

    exit_code: int
    records: tuple
    reports: tuple


def _base_config_dict(base) -> dict:
    """``base`` less the keys that each sweep cell or search rate sets."""
    return {key: value for key, value in (base or {}).items()
            if key not in ("mode", "lcp", "p_heat", "p_veh", "omega")}


def run_sweep(bundle, spec: SweepSpec, base: Mapping | None = None) -> SweepResult:
    """Solve every grid cell and write one aggregate report.

    Cells solve in ``spec.cells()`` order. A cell starts from the optimal
    basis of the latest solved cell at its electrification rate, which is
    the cell one target step back unless that one failed; while no cell at
    its rate has solved (the first target, or after failures), from that
    of the latest solved cell. One target step at a fixed rate is usually
    a few dual simplex pivots, where the cell before it in order can be a
    whole row of rates away. The basis carries its solve's factor
    (``solver.solve``), so a cell whose LP differs from its start's only
    in right-hand sides, bounds and the ``policy_lcp`` row's entries is
    not factored again; the sweep holds one basis per rate, each with its
    factor (about 0.1 MB at 48 h). Costs, capacities and
    emissions are as a run of the cell alone would give them; the hourly
    split of an optimum that is not unique, and so curtailment and excess
    low-carbon energy, may differ. Failed cells contribute a status row
    instead of aborting the sweep. The exit code is 0 when any cell
    solved; otherwise it is the cells' exit code when they all failed
    alike (2 all infeasible, 5 all invalid), and 1 for a mix.
    """
    bundle = _load_if_path(bundle)
    base_kw = _base_config_dict(base)
    # Only each cell's record is kept, not its RunResult, whose basis and
    # solution values would be held for the whole sweep.
    records, codes = [], set()
    # The optimal basis of the latest solved cell, overall and per rate.
    latest, by_rate = None, {}
    for mode, overrides in spec.cells():
        rate = overrides["p_heat"]
        result = run_scenario(bundle, config_from_dict(
            {**base_kw, "mode": mode, **overrides}),
            start=by_rate.get(rate, latest))
        if result.basis is not None:
            latest = by_rate[rate] = result.basis
        records.append(result.failure if result.report is None
                       else result.report)
        codes.add(result.exit_code)

    reports = [r for r in records if isinstance(r, ScenarioReport)]
    if reports:
        exit_code = EXIT_OK
    else:
        exit_code = codes.pop() if len(codes) == 1 else EXIT_ERROR

    if spec.out_dir is not None:
        out = Path(spec.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_report_csv(out / "report.csv", records)
        (out / "report.json").write_text(json.dumps(
            [report_json_dict(r) if isinstance(r, ScenarioReport) else r
             for r in records], indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    return SweepResult(exit_code=exit_code, records=tuple(records),
                       reports=tuple(reports))


# --------------------------------------------------------------------------
# minimum-LCOE search


@dataclass(frozen=True)
class SearchResult:
    """Minimum-LCOE electrification rate, with a run of the scenario there."""

    hve: float
    lcoe: float
    lcp: float
    report: ScenarioReport
    trace: tuple  # ((hve, lcoe), ...) of each Dinkelbach LP's point


def min_lcoe_search(bundle, omega: float, *, lo: float = 0.0, hi: float = 1.0,
                    base: Mapping | None = None) -> SearchResult:
    """The uniform electrification rate in [lo, hi] of least LCOE at a
    fixed emissions-reduction target, exactly.

    Along the rate only right-hand sides, upper bounds and net demand D
    move, all affinely, so LCOE is a linear-fractional program over
    ``rate_axis_lp`` of the LPs at lo and hi (rate lo + t (hi - lo)).
    Dinkelbach's method (1967) solves it: from lambda = 0, minimize cost -
    lambda D(t) from the last LP's basis and set lambda to the LCOE there,
    until that minimum is no longer below zero (to 1e-9 of the cost).
    ``report`` is the run of the rate found, started from the last LP's
    basis (``run_scenario(..., start=)``), so no first half is solved for
    it. Malformed bounds raise
    RunnerError before any stage runs; validate failing raises
    InvalidScenarioError, and any other stage failing or an infeasible
    joint LP SearchError.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise RunnerError(f"search bounds [{lo}, {hi}] must be finite "
                          "with lo <= hi")
    bundle = _load_if_path(bundle)
    base_kw = _base_config_dict(base)
    config_at = lambda hve: config_from_dict(
        {**base_kw, "mode": "ghg+hve", "omega": omega, "p_heat": hve,
         "p_veh": hve})
    ends = []
    for hve, config in [(lo, config_at(lo)), (hi, config_at(hi))]:
        try:
            ends.append(_stage(bundle, config))
        except _StageError as exc:
            stage, message = exc.args
            if stage == "validate":
                raise InvalidScenarioError(f"{stage}: {message}") from None
            raise SearchError(f"at hve {hve}, {stage}: {message}") from None
    (inp_lo, lp_lo), (inp_hi, lp_hi) = ends
    try:
        axis = rate_axis_lp(lp_lo, lp_hi)
    except LPError as exc:
        raise SearchError(f"cannot search [{lo}, {hi}]: {exc}") from None
    d_lo = inp_lo.demand.net_mwh
    slope = inp_hi.demand.net_mwh - d_lo
    objective = axis.objective.copy()
    lam, basis, trace = 0.0, None, []
    # From the second LP on, each that does not stop lowers lambda by over
    # 1e-9 of the cost per MWh, and there are finitely many vertices.
    while True:
        objective[-1] = -lam * slope
        solution = solve(dataclasses.replace(axis, objective=objective),
                         start=basis)
        if solution.status != STATUS_OPTIMAL:
            what = ("no feasible rate" if solution.status == STATUS_INFEASIBLE
                    else f"the LP ended {solution.status}")
            raise SearchError(f"{what} in [{lo}, {hi}]: {solution.message}")
        t = float(solution.x[-1])
        cost = solution.objective + lam * slope * t
        demand = d_lo + slope * t
        trace.append((min(max(lo + t * (hi - lo), lo), hi), cost / demand))
        gap = cost - lam * demand  # this LP's least value, F(lambda)
        if len(trace) > 1 and gap >= -1e-9 * max(1.0, abs(cost)):
            break
        lam, basis = cost / demand, solution.basis
    hve = trace[-1][0]
    result = run_scenario(bundle, config_at(hve), start=solution.basis)
    if result.report is None:
        raise SearchError(f"at hve {hve}, {result.stage}: {result.message}")
    return SearchResult(hve=hve, lcoe=result.report.lcoe_usd_per_mwh,
                        lcp=result.report.lcp_realized, report=result.report,
                        trace=tuple(trace))


# --------------------------------------------------------------------------
# command-line interface


def _cmd_validate(args) -> int:
    bundle = load_bundle(args.inputs)
    problems = validate(bundle.network, bundle.series, bundle.costs,
                        bundle.params, emissions=bundle.emissions)
    if problems:
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        return EXIT_INVALID
    print(f"ok: {len(bundle.network.nodes)} nodes, "
          f"{bundle.series.n_hours} hours")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = load_config(args.config)
    result = run_scenario(args.inputs, config, solver=args.solver,
                          out_dir=args.out, solution_file=args.solution)
    if result.status == "exported":
        if args.out is None and result.mps is not None:
            sys.stdout.write(result.mps)
        return result.exit_code
    if result.report is None:
        print(f"{result.stage}: {result.message}", file=sys.stderr)
        return result.exit_code
    if args.out is None:
        print(json.dumps(report_json_dict(result.report), indent=2,
                         sort_keys=True))
    return result.exit_code


def _cmd_sweep(args) -> int:
    if args.ghg is None and args.lcp is None:
        raise RunnerError("sweep needs --lcp or --ghg")
    try:
        spec = SweepSpec(
            lcp_values=parse_range(args.lcp) if args.lcp is not None else (),
            omega_values=parse_range(args.ghg) if args.ghg is not None
            else None, hve_values=parse_range(args.hve), out_dir=args.out)
    except ValueError as exc:
        raise RunnerError(str(exc)) from None
    base = _read_config_json(args.config) if args.config else None
    result = run_sweep(args.inputs, spec, base=base)
    if args.out is None:
        sys.stdout.write(render_report_csv(result.records))
    return result.exit_code


def _cmd_search(args) -> int:
    try:
        lo, hi = (float(v) for v in args.bounds.split(","))
    except ValueError:
        raise RunnerError(f"--bounds takes lo,hi (two numbers), "
                          f"got {args.bounds!r}") from None
    base = _read_config_json(args.config) if args.config else None
    result = min_lcoe_search(args.inputs, args.ghg, lo=lo, hi=hi, base=base)
    text = json.dumps({"hve": result.hve, "lcoe": result.lcoe,
                       "lcp": result.lcp, "ghg": args.ghg,
                       "trace": result.trace}, indent=2, sort_keys=True)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "search.json").write_text(text + "\n", encoding="utf-8")
        write_report_csv(out / "report.csv", [result.report])
    print(text)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridplan",
        description="Capacity-transition scenarios: solve, sweep, search.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="solve one scenario")
    run_p.add_argument("--inputs", required=True, help="input bundle dir")
    run_p.add_argument("--config", required=True, help="scenario JSON file")
    run_p.add_argument("--solver", choices=("builtin", "export"),
                       default="builtin",
                       help="solve in-process or export the LP as MPS")
    run_p.add_argument("--out", default=None, help="artifact directory")
    run_p.add_argument("--solution", default=None,
                       help="NAME VALUE file with an externally solved point")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="solve a grid of scenarios")
    sweep_p.add_argument("--inputs", required=True)
    sweep_p.add_argument("--config", default=None,
                         help="base scenario JSON (targets are overridden)")
    sweep_p.add_argument("--lcp", default=None,
                         help="low-carbon targets, e.g. 0.4:0.95:0.05")
    sweep_p.add_argument("--ghg", default=None,
                         help="emissions-reduction targets (alternative axis)")
    sweep_p.add_argument("--hve", required=True,
                         help="electrification rates, e.g. 0:1:0.2")
    sweep_p.add_argument("--out", default=None)
    sweep_p.set_defaults(func=_cmd_sweep)

    search_p = sub.add_parser(
        "search-lcoe",
        help="find the electrification rate minimizing LCOE at a fixed "
             "emissions target")
    search_p.add_argument("--inputs", required=True)
    search_p.add_argument("--config", default=None)
    search_p.add_argument("--ghg", type=float, required=True,
                          help="emissions-reduction target")
    search_p.add_argument("--bounds", default="0,1",
                          help="electrification-rate bounds lo,hi")
    search_p.add_argument("--out", default=None)
    search_p.set_defaults(func=_cmd_search)

    validate_p = sub.add_parser("validate", help="check an input bundle")
    validate_p.add_argument("--inputs", required=True)
    validate_p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidScenarioError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INVALID
    except SearchError as exc:
        print(f"search: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except RunnerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
