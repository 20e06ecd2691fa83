"""Minimal tokenizing MPS reader, used only by the test suite.

Deliberately independent of the package's MPS writer so the two can
cross-check each other. Parsed problems are handed to scipy's HiGHS
interface, which acts as the external reference solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog


@dataclass
class MPSData:
    name: str = ""
    obj_row: str = ""
    offset: float = 0.0
    row_order: list = field(default_factory=list)
    senses: dict = field(default_factory=dict)     # row -> L | G | E
    col_order: list = field(default_factory=list)
    entries: dict = field(default_factory=dict)    # col -> {row: coeff}
    objective: dict = field(default_factory=dict)  # col -> coeff
    rhs: dict = field(default_factory=dict)        # row -> value
    lower: dict = field(default_factory=dict)
    upper: dict = field(default_factory=dict)


def read_mps(text: str) -> MPSData:
    data = MPSData()
    section = None
    for raw in text.splitlines():
        if raw.startswith("*"):
            tokens = raw[1:].split()
            if len(tokens) == 2 and tokens[0] == "OFFSET":
                data.offset = float(tokens[1])
            continue
        if not raw.strip():
            continue
        if not raw[0].isspace():
            tokens = raw.split()
            section = tokens[0]
            if section == "NAME" and len(tokens) > 1:
                data.name = tokens[1]
            continue
        tokens = raw.split()
        if section == "ROWS":
            kind, rname = tokens
            if kind == "N":
                data.obj_row = rname
            else:
                data.senses[rname] = kind
                data.row_order.append(rname)
        elif section == "COLUMNS":
            col = tokens[0]
            if col not in data.entries:
                data.entries[col] = {}
                data.col_order.append(col)
            for rname, sval in zip(tokens[1::2], tokens[2::2]):
                value = float(sval)
                if rname == data.obj_row:
                    data.objective[col] = data.objective.get(col, 0.0) + value
                else:
                    bucket = data.entries[col]
                    bucket[rname] = bucket.get(rname, 0.0) + value
        elif section == "RHS":
            for rname, sval in zip(tokens[1::2], tokens[2::2]):
                data.rhs[rname] = float(sval)
        elif section == "BOUNDS":
            kind, _setname, col = tokens[:3]
            value = float(tokens[3]) if len(tokens) > 3 else 0.0
            if kind == "UP":
                data.upper[col] = value
            elif kind == "LO":
                data.lower[col] = value
            elif kind == "FX":
                data.lower[col] = value
                data.upper[col] = value
            elif kind in ("FR", "MI"):
                data.lower[col] = -np.inf
            elif kind == "PL":
                data.upper[col] = np.inf
            else:
                raise ValueError(f"unsupported bound kind {kind!r}")
        elif section == "ENDATA":
            break
        else:
            raise ValueError(f"line outside a known section: {raw!r}")
    return data


def to_linprog_args(data: MPSData):
    """(c, A_ub, b_ub, A_eq, b_eq, bounds) for linprog; the matrices are
    scipy.sparse CSR with G rows negated into <= form."""
    cols = data.col_order
    col_pos = {c: j for j, c in enumerate(cols)}
    row_pos = {r: i for i, r in enumerate(data.row_order)}
    n, m = len(cols), len(data.row_order)
    c = np.zeros(n)
    for col, val in data.objective.items():
        c[col_pos[col]] = val
    entries = [(row_pos[rname], col_pos[col], val)
               for col, bucket in data.entries.items()
               for rname, val in bucket.items() if rname in row_pos]
    ri, ci, vals = zip(*entries) if entries else ((), (), ())
    a = sparse.csr_matrix((vals, (ri, ci)), shape=(m, n))
    rhs = np.array([data.rhs.get(r, 0.0) for r in data.row_order])
    kind = np.array([data.senses[r] for r in data.row_order], dtype=str)
    ub = (kind == "L") | (kind == "G")
    sign = np.where(kind[ub] == "G", -1.0, 1.0)
    a_ub = sparse.diags(sign) @ a[ub]
    b_ub = sign * rhs[ub]
    bounds = []
    for col in cols:
        lo = data.lower.get(col, 0.0)
        up = data.upper.get(col, np.inf)
        bounds.append((None if np.isinf(lo) and lo < 0 else lo,
                       None if np.isinf(up) else up))
    return c, a_ub, b_ub, a[~ub], rhs[~ub], bounds


def solve_mps_with_highs(text: str):
    """Returns (status, objective incl. offset, {column: value})."""
    data = read_mps(text)
    c, a_ub, b_ub, a_eq, b_eq, bounds = to_linprog_args(data)
    res = linprog(
        c,
        A_ub=a_ub if b_ub.size else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=a_eq if b_eq.size else None,
        b_eq=b_eq if b_eq.size else None,
        bounds=bounds,
        method="highs",
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(
        res.status, f"highs-status-{res.status}")
    values = {}
    if res.x is not None:
        values = dict(zip(data.col_order, res.x))
    objective = res.fun + data.offset if res.fun is not None else None
    return status, objective, values
