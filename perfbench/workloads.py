"""The benchmark's workloads and the correctness gate applied to each op.

A workload prepares its inputs in set-up (bundle on disk, HiGHS references)
and then runs ops in a closed loop: one client, each op starting after the
previous one finished. ``op`` is the only timed call; ``check`` runs after
the clock stops and returns the reasons the op failed, if any.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import gridplan
from gridplan import SolveOptions, SweepSpec, load_config
from gridplan import runner

import bundles

HERE = Path(__file__).resolve().parent

# The test suite's builtin-vs-HiGHS objective tolerance.
OBJECTIVE_RTOL = 1e-6
# The built-in solve's own acceptance rule for a point's row violation
# (see gridplan.solver.solve): 10 x feasibility_tol x max(1, max |rhs|).
VIOLATION_FACTOR = 10.0 * SolveOptions().feasibility_tol

SWEEP_LCP = (0.0, 0.2, 0.4, 0.6, 0.8)
SWEEP_HVE = (0.0, 0.2, 0.4)
# Keys a sweep overrides in its base config (gridplan.runner drops the
# same ones before applying each cell).
_SWEEP_DROPS = ("mode", "lcp", "p_heat", "p_veh", "omega")


class Probe:
    """Records every Solution the runner gets from ``solve`` or
    ``import_solution``, so the gate can read its status, objective and
    max_violation. It costs one list append per call and stays installed
    in untraced runs too."""

    def __init__(self):
        self.solutions = []

    def install(self):
        for name in ("solve", "import_solution"):
            setattr(runner, name, self._capture(getattr(runner, name)))

    def _capture(self, fn):
        def captured(*args, **kwargs):
            solution = fn(*args, **kwargs)
            self.solutions.append(solution)
            return solution
        return captured

    def take(self) -> list:
        out, self.solutions = self.solutions, []
        return out


def references(bundle_dir: Path, configs: list, cache: Path,
               solutions: bool) -> list:
    """HiGHS answers for each config, from reference.py in a child process
    (so HiGHS memory stays out of this process's peak RSS)."""
    request = bundle_dir.parent / "reference-request.json"
    request.write_text(json.dumps({
        "bundle": str(bundle_dir), "configs": configs, "cache": str(cache),
        "solutions": solutions}))
    done = subprocess.run([sys.executable, str(HERE / "reference.py"),
                           str(request)],
                          capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"reference.py failed:\n{done.stderr}")
    answers = json.loads(done.stdout.splitlines()[-1])
    for cfg, ref in zip(configs, answers):
        if ref["status"] != "optimal":
            raise RuntimeError(
                f"HiGHS finds this workload {ref['status']} for {cfg}; "
                f"the benchmark needs workloads on which no op fails")
    return answers


def check_solution(solution, ref: dict, what: str) -> list:
    """Gate one solved LP against its HiGHS reference."""
    if solution.status != ref["status"]:
        return [f"{what}: status {solution.status}, HiGHS {ref['status']}"]
    problems = []
    rel = abs(solution.objective - ref["objective"]) / max(
        1.0, abs(ref["objective"]))
    if rel > OBJECTIVE_RTOL:
        problems.append(f"{what}: objective {solution.objective!r} is "
                        f"{rel:.2e} relative from HiGHS {ref['objective']!r}")
    bound = VIOLATION_FACTOR * ref["rhs_scale"]
    if solution.max_violation is None or solution.max_violation > bound:
        problems.append(f"{what}: max_violation {solution.max_violation} "
                        f"exceeds {bound:.3e}")
    return problems


class Workload:
    """One workload: how it builds its bundle and configs, its timed op,
    and the gate for that op. ``prepare`` runs in set-up."""

    name = ""
    tiles = 1          # copies of the 48 h fixture in the full-size bundle
    small_tiles = 1    # the same for the self-test's reduced size
    needs_solutions = False   # whether the op imports HiGHS's point

    def scenario_configs(self, small: bool) -> list:
        return [bundles.base_config()]

    def prepare(self, work: Path, cache: Path, seed: int, small: bool,
                load) -> None:
        """Write the bundle, compute the references, and load the bundle
        with ``load`` (the runner's load_bundle, traced or not)."""
        self.work, self.cache = work, cache
        bundle_dir = bundles.write_bundle(
            work / "bundle", self.small_tiles if small else self.tiles, seed)
        self.configs = self.scenario_configs(small)
        self.refs = references(bundle_dir, self.configs, cache,
                               self.needs_solutions)
        self.bundle = load(bundle_dir)
        self.config = load_config(self.configs[0])
        self.ready(small)

    def ready(self, small: bool) -> None:
        """Workload-specific set-up after the bundle is loaded."""


class Solve96h(Workload):
    name = "solve_96h"
    tiles = 2

    def op(self):
        return gridplan.run_scenario(self.bundle, self.config)

    def check(self, result, solutions) -> list:
        if result.status != "optimal" or len(solutions) != 1:
            return [f"run_scenario: {result.status} {result.message}"]
        return check_solution(solutions[0], self.refs[0], "run_scenario")


class Sweep48h(Workload):
    name = "sweep_48h"

    def spec(self, small: bool) -> SweepSpec:
        lcp, hve = (SWEEP_LCP[::2][:2], SWEEP_HVE[::2]) if small else (
            SWEEP_LCP, SWEEP_HVE)
        return SweepSpec(lcp_values=lcp, hve_values=hve, jobs=1)

    def scenario_configs(self, small: bool) -> list:
        base = {k: v for k, v in bundles.base_config().items()
                if k not in _SWEEP_DROPS}
        return [{**base, "mode": mode, **overrides}
                for mode, overrides in self.spec(small).cells()]

    def ready(self, small: bool) -> None:
        self.sweep = self.spec(small)
        self.base = bundles.base_config()

    def op(self):
        return gridplan.run_sweep(self.bundle, self.sweep, base=self.base)

    def check(self, result, solutions) -> list:
        cells = len(self.refs)
        if len(result.reports) != cells or len(solutions) != cells:
            return [f"run_sweep: {len(result.reports)} of {cells} cells "
                    f"optimal"]
        problems = []
        for i, (solution, ref) in enumerate(zip(solutions, self.refs)):
            problems += check_solution(solution, ref, f"cell {i}")
        return problems


class YearRoundtrip(Workload):
    name = "year_roundtrip"
    tiles = 183
    small_tiles = 7
    needs_solutions = True

    def ready(self, small: bool) -> None:
        self.solution_file = self.cache / f"{self.refs[0]['key']}.sol"
        self.out = self.work / "out"
        self.first_mps = None

    def op(self):
        exported = gridplan.run_scenario(self.bundle, self.config,
                                         solver="export",
                                         out_dir=self.out / "export")
        imported = gridplan.run_scenario(self.bundle, self.config,
                                         solution_file=self.solution_file,
                                         out_dir=self.out / "import")
        return exported, imported

    def check(self, result, solutions) -> list:
        exported, imported = result
        problems = []
        if exported.status != "exported":
            problems.append(f"export: {exported.status} {exported.message}")
        else:
            digest = hashlib.sha256(
                (self.out / "export" / "model.mps").read_bytes()).hexdigest()
            if self.first_mps is None:
                self.first_mps = digest
            elif digest != self.first_mps:
                problems.append(
                    "export: model.mps differs from the first op's bytes")
        if imported.status != "optimal" or len(solutions) != 1:
            return problems + [
                f"import: {imported.status} {imported.message}"]
        missing = [name for name in ("report.json", "report.csv",
                                     "operations.csv")
                   if not (self.out / "import" / name).is_file()]
        if missing:
            problems.append(f"import: artifacts missing {missing}")
        return problems + check_solution(solutions[0], self.refs[0],
                                         "import")


WORKLOADS = {w.name: w for w in (Solve96h, Sweep48h, YearRoundtrip)}
