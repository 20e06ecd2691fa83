#!/usr/bin/env python3
"""Print a SHA-256 digest of each artifact of a fixed set of runs.

The runs are built-in solves of the shipped two-node fixture in four modes
(``report.json``, ``report.csv`` and ``operations.csv`` of each), and an MPS
export of the fixture tiled to 8784 h (``model.mps``). Then come the built-in
``solve`` calls themselves, one digest of (status, iterations, ``x`` bytes,
``duals`` bytes) each: the fixture's own scenario tiled to 48 h and 96 h, and
the 15 cells of the lcp x hve sweep (lcp 0-0.8 by 0.2, hve 0-0.4 by 0.2).
Last come the runner commands, through the CLI with the fixture's own
``scenario.json`` as the config, each line giving the command's exit code:
``sweep --lcp 0:1:0.25 --hve 0:0.4:0.4`` (its lcp = 1 cells are infeasible)
and ``sweep --ghg 0:0.9:0.45 --hve 0.3`` (``report.csv`` and ``report.json``
of each), a ``run`` at lcp = 1, which fails (its ``report.csv`` and
``report.json``), and ``search-lcoe --ghg 0.3`` (``search.json`` and
``report.csv``). Run the script on two checkouts and compare the output to
show that a change keeps every artifact and every solve byte-identical:

    python tools/artifact_digests.py > digests.txt

It imports gridplan from the checkout it sits in. Float bytes may differ
across numpy builds, so compare digests taken on the same machine only.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from gridplan import (BuildInputs, assemble, load_bundle,  # noqa: E402
                      load_config, run_scenario, solve)
from gridplan.runner import main as cli  # noqa: E402
from gridplan.demand import synthesize_demand  # noqa: E402

FIXTURE = REPO / "src" / "gridplan" / "data" / "two_node_48h"
YEAR_TILES = 183  # 48 h x 183 = 8784 h, a leap year
SWEEP_LCP = (0.0, 0.2, 0.4, 0.6, 0.8)
SWEEP_HVE = (0.0, 0.2, 0.4)

BASE = json.loads((FIXTURE / "scenario.json").read_text(encoding="utf-8"))
MODES = {
    "lcp+hve": BASE,
    "lcp+hve-rgt0.3": {**BASE, "rgt": 0.3},
    "ghg+hve": {**{k: v for k, v in BASE.items() if k != "lcp"},
                "mode": "ghg+hve", "omega": 0.3},
    "ghg+lcp": {**{k: v for k, v in BASE.items()
                   if k not in ("p_heat", "p_veh")},
                "mode": "ghg+lcp", "omega": 0.3},
}

# label -> (CLI arguments after --inputs and --config, artifacts to digest)
COMMANDS = {
    "sweep-lcp": (["sweep", "--lcp", "0:1:0.25", "--hve", "0:0.4:0.4"],
                  ("report.csv", "report.json")),
    "sweep-ghg": (["sweep", "--ghg", "0:0.9:0.45", "--hve", "0.3"],
                  ("report.csv", "report.json")),
    "run-lcp1.0": (["run"], ("report.csv", "report.json")),
    "search": (["search-lcoe", "--ghg", "0.3"], ("search.json", "report.csv")),
}


def tiled(bundle, k: int):
    """The bundle with every series tiled ``k`` times and n_years scaled."""
    series = bundle.series
    fields = {}
    for field in dataclasses.fields(series):
        mapping = getattr(series, field.name)
        if mapping is not None:
            fields[field.name] = {node: np.tile(np.asarray(arr, dtype=float), k)
                                  for node, arr in mapping.items()}
    params = dataclasses.replace(bundle.params,
                                 n_years=bundle.params.n_years * k)
    return dataclasses.replace(
        bundle, series=dataclasses.replace(series, **fields), params=params)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def solve_digest(bundle, config: dict) -> tuple[str, str]:
    """Digest of the built-in solve of ``config``'s LP, and its status."""
    config = load_config(config)
    demand = synthesize_demand(bundle.network, bundle.series, config,
                               bundle.params)
    inp = BuildInputs(config, bundle.network, bundle.series, bundle.costs,
                      bundle.params, demand, emissions=bundle.emissions)
    sol = solve(assemble(inp)[0])
    h = hashlib.sha256(f"{sol.status} {sol.iterations}".encode())
    for arr in (sol.x, sol.duals):
        if arr is not None:
            h.update(arr.tobytes())
    return h.hexdigest(), sol.status


def main() -> int:
    bundle = load_bundle(FIXTURE)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for label, config in MODES.items():
            result = run_scenario(bundle, load_config(config),
                                  out_dir=out / label)
            if result.status != "optimal":
                raise SystemExit(f"{label}: {result.status} {result.message}")
            for name in ("report.json", "report.csv", "operations.csv"):
                print(f"{digest(out / label / name)}  {label}/{name}")
        year = out / "year"
        run_scenario(tiled(bundle, YEAR_TILES), load_config(BASE),
                     solver="export", out_dir=year)
        print(f"{digest(year / 'model.mps')}  year-8784h/model.mps")
    for k in (1, 2):
        h, status = solve_digest(tiled(bundle, k), BASE)
        print(f"{h}  solve/{48 * k}h {status}")
    sweep_base = {k: v for k, v in BASE.items()
                  if k not in ("mode", "lcp", "p_heat", "p_veh", "omega")}
    for lcp in SWEEP_LCP:
        for hve in SWEEP_HVE:
            cell = {**sweep_base, "mode": "lcp+hve", "lcp": lcp,
                    "p_heat": hve, "p_veh": hve}
            h, status = solve_digest(bundle, cell)
            print(f"{h}  solve/lcp{lcp}-hve{hve} {status}")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        config = out / "scenario.json"
        for label, (args, names) in COMMANDS.items():
            payload = {**BASE, "lcp": 1.0} if args == ["run"] else BASE
            config.write_text(json.dumps(payload), encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli([args[0], "--inputs", str(FIXTURE),
                            "--config", str(config), *args[1:],
                            "--out", str(out / label)])
            for name in names:
                print(f"{digest(out / label / name)}  {label}/{name} "
                      f"exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
