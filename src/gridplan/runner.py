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
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .demand import synthesize_demand
from .emissions import EmissionsCalibration
from .formulation import BuildInputs, LPError, assemble
from .model import (
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
    SolveOptions,
    export_mps,
    import_solution,
    solve,
)

__all__ = [
    "Bundle",
    "EXIT_ERROR",
    "EXIT_INFEASIBLE",
    "EXIT_INVALID",
    "EXIT_ITERATION_LIMIT",
    "EXIT_OK",
    "EXIT_UNBOUNDED",
    "RunResult",
    "RunnerError",
    "SearchError",
    "SearchResult",
    "SweepResult",
    "SweepSpec",
    "golden_section",
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
    (root / "bundle.json").write_text(text)
    for name in _SERIES_FIELDS:
        mapping = getattr(series, name)
        if mapping is None:
            continue
        lines = ["node,t,value"]
        for node in sorted(mapping):
            arr = np.asarray(mapping[node], dtype=float)
            lines.extend(f"{node},{t},{float(arr[t])!r}"
                         for t in range(len(arr)))
        (root / "series" / f"{name}.csv").write_text("\n".join(lines) + "\n")


def _read_series_csv(path: Path, name: str) -> dict[str, np.ndarray]:
    per_node: dict[str, dict[int, float]] = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "node,t,value":
            raise RunnerError(
                f"series {name}: expected header 'node,t,value', "
                f"got {header!r}")
        line_no, blanks = 1, 0
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                blanks += 1
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise RunnerError(
                    f"series {name} line {line_no}: expected 3 fields")
            node, t_text, value = parts
            try:
                t = int(t_text)
                per_node.setdefault(node, {})[t] = float(value)
            except ValueError as exc:
                raise RunnerError(
                    f"series {name} line {line_no}: {exc}") from exc
    # A repeated (node, t) row overwrote a value; counting after the loop
    # keeps the per-line cost of the 8784 h load unchanged.
    if sum(map(len, per_node.values())) != line_no - 1 - blanks:
        _raise_repeat(path, name)
    out = {}
    for node, values in per_node.items():
        n = len(values)
        missing = sorted(set(range(n)) - set(values))
        if missing:
            raise RunnerError(
                f"series {name}: node {node} is missing hour {missing[0]} "
                f"(expected contiguous 0..{n - 1})")
        out[node] = np.array([values[t] for t in range(n)])
    return out


def _raise_repeat(path: Path, name: str) -> None:
    """Raise RunnerError naming the first (node, t) row that a series CSV,
    whose rows all parsed, gives twice, and both of its line numbers."""
    first: dict[tuple[str, int], int] = {}
    with open(path) as fh:
        next(fh)
        for line_no, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != 3:
                continue
            key = (parts[0], int(parts[1]))
            if key in first:
                raise RunnerError(
                    f"series {name}: node {key[0]} hour {key[1]} is given "
                    f"on line {first[key]} and again on line {line_no}")
            first[key] = line_no


def _check_numbers(spec, where: str) -> None:
    """Raise RunnerError unless every field of ``spec`` other than a name
    is a number or (a ``Mapping`` field) a JSON object of numbers."""
    for f in dataclasses.fields(spec):
        if f.type == "str":
            continue
        value = getattr(spec, f.name)
        if not f.type.startswith("Mapping"):
            items = [(f.name, value)]
        elif isinstance(value, Mapping):
            items = [(f"{f.name}[{k}]", v) for k, v in value.items()]
        else:
            raise RunnerError(f"bundle.json: {where}{f.name} must be an "
                              f"object of numbers, got {value!r}")
        for label, v in items:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise RunnerError(f"bundle.json: {where}{label} must be a "
                                  f"number, got {v!r}")


def load_bundle(path) -> Bundle:
    """Read an input bundle directory written by save_bundle (or by hand)."""
    root = Path(path)
    manifest = root / "bundle.json"
    if not manifest.is_file():
        raise RunnerError(f"not an input bundle: {root} has no bundle.json")
    try:
        payload = json.loads(manifest.read_text())
    except json.JSONDecodeError as exc:
        raise RunnerError(f"bundle.json is not valid JSON: {exc}") from exc
    try:
        net = payload["network"]
        network = NetworkSpec(
            nodes=[NodeSpec(**n) for n in net["nodes"]],
            interfaces=[InterfaceSpec(**i) for i in net.get("interfaces", [])],
            offshore_cap_total_mw=net.get("offshore_cap_total_mw", 0.0),
        )
        costs = CostTable(**payload["costs"])
        params = TechParams(**payload["params"])
        emissions = None
        if "emissions" in payload:
            emissions = EmissionsCalibration(**payload["emissions"])
    except (KeyError, TypeError, ValueError) as exc:
        raise RunnerError(f"bundle.json: {exc}") from exc
    for node in network.nodes:
        _check_numbers(node, f"node {node.id}: ")
    for iface in network.interfaces:
        _check_numbers(iface, f"interface {iface.key}: ")
    _check_numbers(costs, "costs: ")
    _check_numbers(params, "params: ")

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
    kw = dict(payload)
    ev = kw.get("ev_flex")
    if isinstance(ev, Mapping):
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
        payload = json.loads(path.read_text())
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
    replay the point.
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


def run_scenario(bundle, config: ScenarioConfig, *, label: str | None = None,
                 solver: str = "builtin", out_dir=None, solution_file=None,
                 solve_options: SolveOptions | None = None) -> RunResult:
    """Run the staged pipeline for one scenario.

    Stages: validate, demand, resources, build, then either export (write
    the LP as MPS and stop) or solve, emissions, summarize. With ``out_dir``
    the report CSV/JSON and the hourly operations dump are written there;
    failed solves still write a status row so sweeps stay accountable.
    ``solution_file`` adopts an externally solved NAME VALUE point instead
    of calling the built-in solver; with ``solver="export"`` it is an
    error.
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
                json.dumps(failure, indent=2, sort_keys=True) + "\n")
            artifacts.extend(["report.csv", "report.json"])
        return RunResult(status=status, exit_code=exit_code, stage=stage,
                         message=message, report=None, failure=failure,
                         artifacts=tuple(artifacts))

    stage = "validate"
    try:
        problems = validate(bundle.network, bundle.series, bundle.costs,
                            bundle.params, config, emissions=bundle.emissions)
        if problems:
            return fail("invalid", EXIT_INVALID, stage, "; ".join(problems))
        stage = "demand"
        demand = synthesize_demand(bundle.network, bundle.series, config,
                                   bundle.params)
        stage = "resources"
        inp = BuildInputs(config, bundle.network, bundle.series,
                          bundle.costs, bundle.params, demand,
                          emissions=bundle.emissions)
        stage = "build"
        lp, _ = assemble(inp)
    except (LPError, RunnerError, ValueError, KeyError) as exc:
        return fail("invalid", EXIT_INVALID, stage, str(exc))

    if solver == "export":
        stage = "export"
        try:
            text = export_mps(lp)
        except LPError as exc:
            return fail("error", EXIT_ERROR, stage, str(exc))
        if out is not None:
            (out / "model.mps").write_text(text)
            artifacts.append("model.mps")
        return RunResult(status="exported", exit_code=EXIT_OK, stage=None,
                         message="", report=None,
                         artifacts=tuple(artifacts), mps=text)

    stage = "solve"
    try:
        if solution_file is not None:
            with open(solution_file) as fh:
                solution = import_solution(lp, fh, solve_options)
        else:
            solution = solve(lp, solve_options)
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
            + "\n")
        write_operations_csv(out / "operations.csv", inp, lp, solution)
        artifacts.extend(["report.csv", "report.json", "operations.csv"])
    values = dict(zip(lp.col_names, solution.x.tolist()))
    return RunResult(status=STATUS_OPTIMAL, exit_code=EXIT_OK, stage=None,
                     message="", report=report, solution_values=values,
                     artifacts=tuple(artifacts))


# --------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepSpec:
    """A grid of scenarios: low-carbon targets (or emissions targets)
    crossed with uniform electrification rates."""

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
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
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


_BASE_CONFIG_DROP = ("mode", "lcp", "p_heat", "p_veh", "omega")


def _base_config_dict(base) -> dict:
    out = dict(base or {})
    for key in _BASE_CONFIG_DROP:
        out.pop(key, None)
    return out


def run_sweep(bundle, spec: SweepSpec, base: Mapping | None = None) -> SweepResult:
    """Solve every grid cell independently and write one aggregate report.

    Failed cells contribute a status row instead of aborting the sweep;
    the exit code is nonzero only when no cell solved at all.
    """
    bundle = _load_if_path(bundle)
    base_kw = _base_config_dict(base)
    cells = spec.cells()

    def solve_cell(cell):
        mode, overrides = cell
        return run_scenario(bundle, config_from_dict(
            {**base_kw, "mode": mode, **overrides}))

    if spec.jobs == 1:
        outcomes = [solve_cell(cell) for cell in cells]
    else:
        with ThreadPoolExecutor(max_workers=spec.jobs) as pool:
            outcomes = list(pool.map(solve_cell, cells))

    records = [r.failure if r.report is None else r.report for r in outcomes]
    reports = [r.report for r in outcomes if r.report is not None]
    if reports:
        exit_code = EXIT_OK
    elif all(r.status == STATUS_INFEASIBLE for r in outcomes):
        exit_code = EXIT_INFEASIBLE
    else:
        exit_code = EXIT_ERROR

    if spec.out_dir is not None:
        out = Path(spec.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_report_csv(out / "report.csv", records)
        (out / "report.json").write_text(json.dumps(
            [report_json_dict(r) if isinstance(r, ScenarioReport) else r
             for r in records], indent=2, sort_keys=True) + "\n")
    return SweepResult(exit_code=exit_code, records=tuple(records),
                       reports=tuple(reports))


# --------------------------------------------------------------------------
# minimum-LCOE search


class _Probe:
    """``f`` on [lo, hi], memoized: the one evaluator of both searches.

    Construction checks the bounds (finite, ``lo <= hi``) and the
    tolerance (positive) and raises RunnerError otherwise. A call rounds
    its point to 12 places and evaluates ``f`` there once; ``f`` returns
    None at an infeasible point, which the call reads as +inf.
    """

    def __init__(self, f: Callable[[float], float | None], lo: float,
                 hi: float, tol: float):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise RunnerError(f"search bounds [{lo}, {hi}] must be finite "
                              "with lo <= hi")
        if not tol > 0.0:
            raise RunnerError(f"tolerance must be positive, got {tol}")
        self.f, self.lo, self.hi = f, lo, hi
        self.values: dict[float, float | None] = {}  # in evaluation order

    def __call__(self, v: float) -> float:
        key = round(v, 12)
        if key not in self.values:
            self.values[key] = self.f(key)
        value = self.values[key]
        return math.inf if value is None else value

    def best(self) -> tuple[float, float, tuple]:
        """(point, value) least by (value, point), and the trace of every
        evaluation in order; SearchError when none was feasible."""
        feasible = [(value, v) for v, value in self.values.items()
                    if value is not None]
        if not feasible:
            raise SearchError(
                f"no feasible point found in [{self.lo}, {self.hi}] "
                f"({len(self.values)} points tried)")
        best_value, best_x = min(feasible)
        return best_x, best_value, tuple(self.values.items())


def golden_section(f: Callable[[float], float | None], lo: float, hi: float,
                   tol: float) -> tuple[float, float, tuple]:
    """Minimize a unimodal scalar function on [lo, hi] to within ``tol``.

    ``f`` may return None for infeasible points (treated as +inf). Returns
    (best_x, best_value, trace) where trace lists every evaluation in
    order. Raises RunnerError before any evaluation when a bound is not
    finite, ``lo > hi`` or ``tol`` is not positive, and SearchError when
    no evaluated point is feasible.
    """
    g = _Probe(f, lo, hi, tol)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    g(lo)
    g(hi)
    a, b = lo, hi
    if b - a > tol:
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        while b - a > tol:
            if g(c) <= g(d):
                b, d = d, c
                c = b - invphi * (b - a)
            else:
                a, c = c, d
                d = a + invphi * (b - a)
    return g.best()


@dataclass(frozen=True)
class SearchResult:
    """Incumbent of the minimum-LCOE search over the electrification rate."""

    hve: float
    lcoe: float
    lcp: float
    report: ScenarioReport
    trace: tuple  # ((hve, lcoe-or-None), ...) in evaluation order


def min_lcoe_search(bundle, omega: float, *, lo: float = 0.0, hi: float = 1.0,
                    tol: float = 0.005, method: str = "golden",
                    base: Mapping | None = None) -> SearchResult:
    """Find the uniform electrification rate minimizing LCOE at a fixed
    emissions-reduction target.

    ``method`` is ``"golden"`` (golden-section, assumes a unimodal LCOE
    curve) or ``"grid:N"`` (N+1 uniform points, robust fallback). Inner
    problems solve with the emissions target and both electrification
    rates pinned; infeasible rates are skipped. A malformed method, bound
    or tolerance raises RunnerError before any solve, for either method;
    SearchError means no evaluated rate was feasible.
    """
    bundle = _load_if_path(bundle)
    base_kw = _base_config_dict(base)
    found: dict[float, ScenarioReport] = {}

    def evaluate(hve: float) -> float | None:
        config = config_from_dict({**base_kw, "mode": "ghg+hve",
                                   "omega": omega, "p_heat": hve,
                                   "p_veh": hve})
        result = run_scenario(bundle, config)
        if result.report is None:
            return None
        found[hve] = result.report
        return result.report.lcoe_usd_per_mwh

    if method == "golden":
        best_x, best_value, trace = golden_section(evaluate, lo, hi, tol)
    elif method.startswith("grid:"):
        try:
            n = int(method.split(":", 1)[1])
        except ValueError as exc:
            raise RunnerError(f"bad grid size in {method!r}") from exc
        if n < 1:
            raise RunnerError(f"grid size must be >= 1, got {n}")
        probe = _Probe(evaluate, lo, hi, tol)
        for k in range(n + 1):
            probe(lo + (hi - lo) * k / n)
        best_x, best_value, trace = probe.best()
    else:
        raise RunnerError(
            f"unknown search method {method!r}; use 'golden' or 'grid:N'")
    report = found[best_x]
    return SearchResult(hve=best_x, lcoe=best_value,
                        lcp=report.lcp_realized, report=report,
                        trace=trace)


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
    omega = parse_range(args.ghg) if args.ghg is not None else None
    spec = SweepSpec(lcp_values=parse_range(args.lcp) if omega is None else (),
                     omega_values=omega, hve_values=parse_range(args.hve),
                     jobs=args.jobs, out_dir=args.out)
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
    result = min_lcoe_search(args.inputs, args.ghg, lo=lo, hi=hi,
                             tol=args.tol, method=args.search, base=base)
    payload = {
        "hve": result.hve,
        "lcoe": result.lcoe,
        "lcp": result.lcp,
        "ghg": args.ghg,
        "trace": [list(entry) for entry in result.trace],
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "search.json").write_text(text + "\n")
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
    sweep_p.add_argument("--jobs", type=int, default=1)
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
    search_p.add_argument("--tol", type=float, default=0.005)
    search_p.add_argument("--search", default="golden",
                          help="'golden' or 'grid:N'")
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
    except SearchError as exc:
        print(f"search: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except RunnerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
