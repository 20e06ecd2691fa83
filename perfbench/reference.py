"""Reference answers from scipy's HiGHS for the benchmark's LPs.

Run as a script in its own process, so that HiGHS memory never counts in
the benchmark process's peak RSS:

    python3 perfbench/reference.py REQUEST.json

REQUEST.json holds ``{"bundle": dir, "configs": [...], "cache": dir,
"solutions": bool}``. For each scenario config the script builds the LP
through gridplan's public functions, keys it by the SHA-256 of
``LPInstance.serialize()``, and answers from the cache when it can.
Otherwise it solves the LP with HiGHS and caches the status, objective and
the feasibility scale, plus, when ``solutions`` is set, the optimal point
as a ``NAME VALUE`` file that ``gridplan run --solution`` reads. It prints
one JSON list with one answer per config.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))

import numpy as np  # noqa: E402
from scipy import sparse  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

from gridplan import BuildInputs, assemble, load_bundle, load_config  # noqa: E402
from gridplan.demand import synthesize_demand  # noqa: E402
from gridplan.formulation import EQ, GE, LE  # noqa: E402

_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def build_lp(bundle, config):
    """The scenario LP, built through the same public stages as the runner."""
    demand = synthesize_demand(bundle.network, bundle.series, config,
                               bundle.params)
    inp = BuildInputs(config, bundle.network, bundle.series, bundle.costs,
                      bundle.params, demand, emissions=bundle.emissions)
    return assemble(inp)[0]


def highs_solve(lp):
    """(status, objective including the offset, x) from HiGHS.

    The interior-point method (with HiGHS's crossover to a vertex) solves
    the year-scale LP about three times faster than dual simplex here.
    """
    sizes = [row.idx.size for row in lp.rows]
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    indices = np.concatenate([row.idx for row in lp.rows])
    data = np.concatenate([row.val for row in lp.rows])
    a = sparse.csr_matrix((data, indices, indptr),
                          shape=(lp.n_rows, lp.n_cols))
    rhs = lp.rhs_vector()
    senses = np.array(lp.senses())
    sign = np.where(senses == GE, -1.0, 1.0)
    ub = (senses == LE) | (senses == GE)
    eq = senses == EQ
    scale = sparse.diags(sign[ub])
    res = linprog(
        lp.objective,
        A_ub=scale @ a[ub] if ub.any() else None,
        b_ub=sign[ub] * rhs[ub] if ub.any() else None,
        A_eq=a[eq] if eq.any() else None,
        b_eq=rhs[eq] if eq.any() else None,
        bounds=np.column_stack((lp.lower, lp.upper)),
        method="highs-ipm",
    )
    status = _STATUS.get(res.status, f"highs-status-{res.status}")
    if status != "optimal":
        return status, None, None
    return status, float(res.fun) + lp.offset, res.x


def answer(bundle, config_dict: dict, cache: Path, solutions: bool) -> dict:
    lp = build_lp(bundle, load_config(config_dict))
    key = hashlib.sha256(lp.serialize()).hexdigest()
    meta_path = cache / f"{key}.json"
    sol_path = cache / f"{key}.sol"
    if meta_path.is_file() and (not solutions or sol_path.is_file()):
        return json.loads(meta_path.read_text())
    status, objective, x = highs_solve(lp)
    rhs = lp.rhs_vector()
    meta = {
        "key": key,
        "status": status,
        "objective": objective,
        "rhs_scale": max(1.0, float(np.max(np.abs(rhs), initial=0.0))),
    }
    if solutions and x is not None:
        lines = [f"{name} {float(v)!r}" for name, v in zip(lp.col_names, x)]
        tmp = sol_path.with_suffix(".sol.tmp")
        tmp.write_text("\n".join(lines) + "\n")
        tmp.replace(sol_path)
    tmp = meta_path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(meta))
    tmp.replace(meta_path)
    return meta


def main(request_path: str) -> int:
    request = json.loads(Path(request_path).read_text())
    cache = Path(request["cache"])
    cache.mkdir(parents=True, exist_ok=True)
    bundle = load_bundle(request["bundle"])
    answers = [answer(bundle, cfg, cache, request["solutions"])
               for cfg in request["configs"]]
    print(json.dumps(answers))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
