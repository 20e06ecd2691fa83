"""Linear-program assembly: the LP container plus the builder that turns
validated grid inputs into variables, bounds, rows, and an objective.

Two layout decisions live here and nowhere else. LPInstance stores the
constraint matrix as one compressed-sparse-row (CSR) matrix with per-row
sense, rhs, name and tag arrays; LPBuilder.instance is the one place that
produces it. VariableCatalog numbers the columns as one contiguous block
per variable family, so each constraint family adds whole blocks of rows
with index arithmetic on those blocks. Everything that knows about grids
lives in the builder; everything that knows about simplex lives in the
solver.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from gridplan.model import (
    CAPACITY,
    HEAT_RATE_MMBTU_PER_MWH,
    HOURS_PER_DAY,
    annualization_rate,
    build_keys,
    flex_hydro,
    requirements,
)

LE = "<="
GE = ">="
EQ = "="

_SENSES = (LE, GE, EQ)


class LPError(ValueError):
    """Raised for malformed LP data or inconsistent build inputs."""


class LPRow(NamedTuple):
    """Read-only view of one row of an LPInstance:
    sum(val[k] * x[idx[k]]) sense rhs."""

    idx: np.ndarray
    val: np.ndarray
    sense: str
    rhs: float
    name: str
    tag: str = ""

    def activity(self, x: np.ndarray) -> float:
        return float(self.val @ x[self.idx])


@dataclass(frozen=True)
class LPInstance:
    """A complete minimization LP with named columns and rows.

    The constraint matrix is in CSR form: row i has coefficients
    ``data[indptr[i]:indptr[i + 1]]`` at columns ``indices[...]`` (strictly
    ascending) and reads ``row @ x  sense[i]  rhs[i]``. ``sense`` and
    ``row_tags`` (the constraint family of each row) are string arrays, so
    selecting a sense or a family is one comparison. ``lower``/``upper``
    are per-column bounds (upper may be +inf); ``offset`` is a constant
    added to the objective value; ``audit`` counts rows (and bound-encoded
    constraints) per constraint-family tag for coverage checks. Every
    array is read-only, and construction runs ``_validate``, so an
    instance that exists is consistent.
    """

    n_cols: int
    objective: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    sense: np.ndarray
    rhs: np.ndarray
    row_names: tuple
    row_tags: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    col_names: tuple
    offset: float = 0.0
    audit: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for name, dtype in (("objective", np.float64), ("indptr", np.int64),
                            ("indices", np.int64), ("data", np.float64),
                            ("sense", str), ("rhs", np.float64),
                            ("row_tags", str), ("lower", np.float64),
                            ("upper", np.float64)):
            arr = np.array(getattr(self, name), dtype=dtype, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "row_names", tuple(self.row_names))
        object.__setattr__(self, "col_names", tuple(self.col_names))
        object.__setattr__(self, "offset", float(self.offset))
        self._validate()

    @property
    def n_rows(self) -> int:
        return self.rhs.size

    @cached_property
    def row_of(self) -> np.ndarray:
        """Row index of each stored coefficient."""
        return np.repeat(np.arange(self.n_rows), np.diff(self.indptr))

    def _validate(self) -> None:
        """Raise LPError if the instance is internally inconsistent."""
        n, m = self.n_cols, self.n_rows
        for name, arr, k in (("objective", self.objective, n),
                             ("lower", self.lower, n),
                             ("upper", self.upper, n),
                             ("sense", self.sense, m),
                             ("row_tags", self.row_tags, m)):
            if arr.shape != (k,):
                raise LPError(f"{name} has shape {arr.shape}, expected ({k},)")
        if len(self.col_names) != n or len(self.row_names) != m:
            raise LPError("one name required per column and per row")
        p = self.indptr
        if (p.shape != (m + 1,) or p[0] != 0 or np.any(np.diff(p) < 0)
                or self.indices.shape != (p[-1],)
                or self.data.shape != self.indices.shape):
            raise LPError("indptr, indices and data do not form a CSR matrix")
        if len(set(self.col_names)) != n:
            raise LPError("column names must be unique")
        if not np.all(np.isfinite(self.objective)):
            raise LPError("objective has non-finite coefficients")
        if not np.isfinite(self.offset):
            raise LPError("objective offset must be finite")
        if not np.all(np.isfinite(self.lower)):
            raise LPError("lower bounds must be finite")
        if np.any(np.isnan(self.upper)) or np.any(self.upper == -np.inf):
            raise LPError("upper bounds must be finite or +inf")
        if np.any(self.lower > self.upper):
            j = int(np.argmax(self.lower > self.upper))
            raise LPError(
                f"column {self.col_names[j]!r}: lower {self.lower[j]} "
                f"exceeds upper {self.upper[j]}"
            )
        unknown = ~np.isin(self.sense, _SENSES)
        if unknown.any():
            i = int(np.argmax(unknown))
            raise LPError(f"row {self.row_names[i]!r}: unknown sense "
                          f"{self.sense[i].item()!r}")
        row_of, idx = self.row_of, self.indices
        step = np.diff(idx)
        within = row_of[1:] == row_of[:-1]
        for bad, message in (
                ((idx < 0) | (idx >= n), "row {!r} references unknown column"),
                (within & (step == 0), "row {!r}: repeated column index"),
                (within & (step < 0), "row {!r}: column indices must ascend"),
                (~np.isfinite(self.data),
                 "row {!r}: non-finite coefficient or rhs")):
            if bad.any():
                raise LPError(message.format(
                    self.row_names[row_of[np.argmax(bad)]]))
        if not np.all(np.isfinite(self.rhs)):
            i = int(np.argmax(~np.isfinite(self.rhs)))
            raise LPError(f"row {self.row_names[i]!r}: non-finite "
                          "coefficient or rhs")

    @cached_property
    def _name_to_col(self) -> dict:
        return {c: j for j, c in enumerate(self.col_names)}

    def column_index(self, name: str) -> int:
        return self._name_to_col[name]

    @property
    def rows(self) -> tuple:
        """One LPRow view per row, for inspection; the package itself
        reads the CSR arrays."""
        p = self.indptr.tolist()
        return tuple(
            LPRow(self.indices[a:b], self.data[a:b], *row)
            for a, b, row in zip(p, p[1:], zip(
                self.sense.tolist(), self.rhs.tolist(), self.row_names,
                self.row_tags.tolist())))

    def activity(self, x: np.ndarray) -> np.ndarray:
        """Row activities, A @ x."""
        return np.bincount(self.row_of, weights=self.data * x[self.indices],
                           minlength=self.n_rows)

    def rhs_vector(self) -> np.ndarray:
        return self.rhs.copy()

    def senses(self) -> tuple:
        return tuple(self.sense.tolist())

    def objective_value(self, x: np.ndarray) -> float:
        return float(self.objective @ x) + self.offset

    def serialize(self) -> bytes:
        """Canonical byte form, used for determinism checks."""
        parts = [f"cols={self.n_cols} rows={self.n_rows} "
                 f"offset={self.offset!r}".encode()]
        parts.append(b"names:" + "\x00".join(self.col_names).encode())
        parts.append(b"c:" + self.objective.tobytes())
        parts.append(b"lo:" + self.lower.tobytes())
        parts.append(b"up:" + self.upper.tobytes())
        # indices and data are both 8-byte types.
        idx, val = self.indices.tobytes(), self.data.tobytes()
        p = (8 * self.indptr).tolist()
        for a, b, name, tag, sense, rhs in zip(
                p, p[1:], self.row_names, self.row_tags.tolist(),
                self.sense.tolist(), self.rhs.tolist()):
            head = f"{name}|{tag}|{sense}|{rhs!r}".encode()
            parts.append(head + b"#" + idx[a:b] + b"#" + val[a:b])
        for tag in sorted(self.audit):
            parts.append(f"audit:{tag}={self.audit[tag]}".encode())
        return b"\n".join(parts)


# ---------------------------------------------------------------------------
# variable catalog


@dataclass(frozen=True)
class Block:
    """The columns of one variable family, numbered from ``offset``.

    Each key (a node, a flow direction such as ``a>b``, or an interface
    key) owns a run of one column per entry of ``hours``, key-major; a
    family without hours has one column per key. The key ``None`` stands
    for a single unindexed column.
    """

    offset: int
    keys: tuple
    hours: tuple = ()

    @property
    def width(self) -> int:
        return len(self.hours) or 1

    @property
    def stop(self) -> int:
        return self.offset + len(self.keys) * self.width

    def names(self, fam: str) -> list[str]:
        if self.hours:
            return [f"{fam}[{k},{t}]" for k in self.keys for t in self.hours]
        return [fam if k is None else f"{fam}[{k}]" for k in self.keys]


@dataclass(frozen=True)
class VariableCatalog:
    """Canonical column layout and naming for one scenario's LP.

    Each variable family is one contiguous Block. Families appear in
    alphabetical order; within a family, nodes are sorted and hours
    ascend, and interface flows are grouped by sorted interface key with
    the forward direction first. Fixing the order here keeps solver
    vectors, exported files, and reports mutually comparable. Constraint
    families and reports address columns by (family, key) through
    ``cols``/``col``/``family``; ``names`` become the LP's column names.
    """

    blocks: Mapping[str, Block]
    names: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        names = [name for fam, block in self.blocks.items()
                 for name in block.names(fam)]
        object.__setattr__(self, "names", tuple(names))

    @property
    def n_cols(self) -> int:
        return len(self.names)

    def family(self, fam: str) -> np.ndarray:
        """Every column of ``fam``, in column order."""
        block = self.blocks[fam]
        return np.arange(block.offset, block.stop)

    def cols(self, fam: str, key=None) -> np.ndarray | None:
        """Columns of ``fam`` at ``key`` in hour order, or None when the
        family has no columns there."""
        block = self.blocks[fam]
        if key not in block.keys:
            return None
        start = block.offset + block.keys.index(key) * block.width
        return np.arange(start, start + block.width)

    def col(self, fam: str, key=None) -> int | None:
        """The column of a one-per-key family at ``key``, or None."""
        cols = self.cols(fam, key)
        return None if cols is None else int(cols[0])


def _make_catalog(inp: "BuildInputs") -> VariableCatalog:
    hours = tuple(range(inp.n_hours))
    directions = tuple(d for key in inp.interface_keys
                       for d in inp.directions[key])
    # Families sharing a key set are listed together; sorting puts all
    # families in alphabetical order.
    groups = (
        (("batt_charge", "batt_discharge", "batt_soc"), inp.battery_nodes,
         hours),
        (("biofuel",), inp.bio_nodes, hours),
        *(((fam,), keys, ()) for fam, keys in inp.build_keys.items()),
        (("ev_flex",), inp.ev_nodes, inp.ev_hours),
        (("flow",), directions, hours),
        (("fossil_ex", "ramp_ex"), inp.fossil_ex_nodes, hours),
        (("fossil_new", "ramp_new"), inp.build_keys["cap_fossil"], hours),
        (("h2_charge", "h2_discharge", "h2_soc"), inp.h2_nodes, hours),
        (("hydro_flex",), inp.hydro_nodes, hours),
        (("imports",), inp.import_nodes, hours),
        (("rate_heat", "rate_veh"), (None,) if inp.free_p else (), ()),
    )
    blocks = {}
    offset = 0
    for fam, keys, fam_hours in sorted(
            (fam, tuple(keys), fam_hours)
            for fams, keys, fam_hours in groups for fam in fams):
        blocks[fam] = Block(offset, keys, fam_hours)
        offset = blocks[fam].stop
    return VariableCatalog(blocks)


# ---------------------------------------------------------------------------
# input resolution


class BuildInputs:
    """Scenario inputs resolved, cross-checked, and classified.

    Every input comes from the bundle: hydro and biofuel limits are the
    series ``h_fix``/``h_flex_daily`` and the ``NodeSpec`` fields, read
    where the rows are assembled. This class decides which nodes own which
    variable families (``hydro_nodes`` by ``model.flex_hydro``,
    ``bio_nodes`` by ``NodeSpec.burns_biofuel``, ``build_keys`` for the
    capital families of ``model.CAPACITY``), and derives the variable
    catalog. It raises one LPError joining every violation of
    ``model.requirements`` (so every priced activity has a cost entry), and
    raises on what only it sees: the demand bundle's alignment and the
    daily structures, all before any row is assembled. ``fixed_charges``
    states the charges that no decision variable carries; the objective
    offset and the report's cost buckets both read it.
    """

    def __init__(self, config, network, series, costs, params, demand,
                 emissions=None):
        problems = requirements(network, series, costs, params, config,
                                emissions=emissions)
        if problems:
            raise LPError("; ".join(problems))
        self.config = config
        self.network = network
        self.series = series
        self.costs = costs
        self.params = params
        self.demand = demand
        self.emissions = emissions
        self.free_p = bool(demand.free_p)
        self.node_ids = tuple(sorted(network.node_ids))
        self.n_hours = int(series.n_hours)

        self.iface_by_key = {iface.key: iface for iface in network.interfaces}
        self.interface_keys = tuple(sorted(self.iface_by_key))
        # Each interface carries a forward ("a>b") and a reverse ("b>a")
        # flow; per node, the directions that deliver to it and draw on it.
        self.directions: dict[str, tuple[str, str]] = {}
        self.inflow: dict[str, list[str]] = {n: [] for n in self.node_ids}
        self.outflow: dict[str, list[str]] = {n: [] for n in self.node_ids}
        for key in self.interface_keys:
            a, b = self.iface_by_key[key].node_a, self.iface_by_key[key].node_b
            self.directions[key] = (f"{a}>{b}", f"{b}>{a}")
            for sender, receiver in ((a, b), (b, a)):
                self.outflow[sender].append(f"{sender}>{receiver}")
                self.inflow[receiver].append(f"{sender}>{receiver}")

        for label, mapping in (("d_heat", demand.d_heat),
                               ("d_veh_fix", demand.d_veh_fix)):
            for n in self.node_ids:
                arr = mapping.get(n)
                if arr is None or len(arr) != self.n_hours:
                    raise LPError(
                        f"demand bundle {label} missing or misaligned "
                        f"for node {n}"
                    )
        self._classify()
        self._check_daily_alignment()
        self.catalog = _make_catalog(self)

    def fixed_charges(self, n: str) -> tuple[float, float, float]:
        """Node ``n``'s charges outside the decision variables, in $:
        (existing capacity and transmission, must-run hydro energy,
        nuclear energy). The last is zero when nuclear is excluded."""
        node = self.network.node(n)
        costs = self.costs
        existing = self.params.n_years * (
            costs.ex_cap.get(n, 0.0)
            * node.charged_mw(self.config.include_nuclear) * 1000.0
            + costs.ex_tx.get(n, 0.0) * node.existing_tx_flow_mwh)
        hydro = float(np.sum(self.series.h_fix[n])) * costs.c_hydro.get(n, 0.0)
        nuclear = 0.0
        if self.config.include_nuclear:
            nuclear = float(np.sum(self.series.nuclear[n])) \
                * costs.c_nuc.get(n, 0.0)
        return existing, hydro, nuclear

    # -- classification and the checks only the resolved inputs allow -------

    def _classify(self):
        self.build_keys = build_keys(self.network, self.costs,
                                     self.config.include_h2)
        self.h2_nodes = self.build_keys["cap_h2_energy"]
        hydro_nodes, bio_nodes = [], []
        fossil_ex, batt_nodes, import_nodes, ev_nodes = [], [], [], []
        for n in self.node_ids:
            node = self.network.node(n)
            if flex_hydro(node, self.series):
                hydro_nodes.append(n)
            if node.burns_biofuel:
                bio_nodes.append(n)
            if node.gas_existing_mw > 0.0:
                fossil_ex.append(n)
            if n in self.build_keys["cap_battery_energy"] \
                    or node.battery_energy_existing_mwh > 0.0 \
                    or node.battery_power_existing_mw > 0.0:
                batt_nodes.append(n)
            if node.import_limit_mwh > 0.0:
                import_nodes.append(n)
            if self.demand.ev_envelopes.get(n) is not None:
                ev_nodes.append(n)
        self.hydro_nodes = tuple(hydro_nodes)
        self.bio_nodes = tuple(bio_nodes)
        self.fossil_ex_nodes = tuple(fossil_ex)
        self.battery_nodes = tuple(batt_nodes)
        self.import_nodes = tuple(import_nodes)
        self.ev_nodes = tuple(ev_nodes)
        windows = {tuple(self.demand.ev_envelopes[n].window)
                   for n in ev_nodes}
        if len(windows) > 1:
            raise LPError(f"EV charging windows differ across nodes: "
                          f"{sorted(windows)}")
        # Hours of the shared EV charging window, over the whole horizon.
        h_start, h_end = windows.pop() if windows else (0, -1)
        self.ev_hours = tuple(
            day * HOURS_PER_DAY + h
            for day in range(self.n_hours // HOURS_PER_DAY)
            for h in range(h_start, h_end + 1))

    def _check_daily_alignment(self):
        T = self.n_hours
        if not (self.hydro_nodes or self.bio_nodes or self.ev_nodes):
            return
        if T % HOURS_PER_DAY:
            raise LPError(
                "daily hydro, biofuel, and EV structures need an hourly "
                f"horizon that is a multiple of 24, got {T}"
            )
        n_days = T // HOURS_PER_DAY
        for n in self.hydro_nodes:
            hourly_max = self.network.node(n).hydro_flex_hourly_max_mwh
            worst = float(np.max(self.series.h_flex_daily[n], initial=0.0))
            if worst > hourly_max * HOURS_PER_DAY + 1e-9:
                warnings.warn(
                    f"node {n}: flexible-hydro daily energy {worst:g} MWh "
                    f"exceeds the {hourly_max * HOURS_PER_DAY:g} MWh that "
                    "the hourly cap can deliver in a day",
                    UserWarning,
                    stacklevel=2,
                )
        for n in self.ev_nodes:
            env = self.demand.ev_envelopes[n]
            if len(env.required_mwh) != n_days:
                raise LPError(
                    f"EV charging envelope for node {n} has "
                    f"{len(env.required_mwh)} days, expected {n_days}"
                )


# ---------------------------------------------------------------------------
# row assembly


def _to_csr(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
            n_rows: int, n_cols: int):
    """(indptr, indices, data) of the coordinate entries (rows, cols, vals).

    Entries at the same (row, column) sum in the order given, exact zeros
    are dropped, and columns ascend within each row.
    """
    # An out-of-range column would alias into a neighbouring row's key.
    if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
        raise LPError("a constraint term references an unknown column")
    key = rows * n_cols + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    summed = np.bincount(np.cumsum(first) - 1, weights=vals[order])
    live = summed != 0.0
    key, summed = key[first][live], summed[live]
    counts = np.bincount(key // n_cols, minlength=n_rows)
    return np.concatenate(([0], np.cumsum(counts))), key % n_cols, summed


class LPBuilder:
    """Mutable accumulator for rows, bounds, objective, and the audit.

    Constraint families append rows in blocks (``add_rows``) and then their
    coefficients as broadcast index arrays (``add_terms``); ``instance``
    turns the collected entries into the CSR matrix.
    """

    def __init__(self, catalog: VariableCatalog):
        n = catalog.n_cols
        self.catalog = catalog
        self.objective = np.zeros(n)
        self.lower = np.zeros(n)
        self.upper = np.full(n, np.inf)
        self.offset = 0.0
        self.row_names: list[str] = []
        self._rows: list[tuple] = []    # (sense, rhs, tag) per add_rows
        self._terms: list[tuple] = []   # (rows, cols, vals) per add_terms
        self.audit: dict[str, int] = {}

    def tally(self, tag: str, count: int = 1) -> None:
        self.audit[tag] = self.audit.get(tag, 0) + count

    def add_rows(self, names: Sequence[str], sense, rhs, tag) -> np.ndarray:
        """Append one row per name and return their row indices.

        ``sense``, ``rhs`` and ``tag`` each give one value per row or one
        value for all of them.
        """
        start, k = len(self.row_names), len(names)
        self.row_names.extend(names)
        sense, rhs, tag = (np.broadcast_to(np.asarray(value), (k,))
                           for value in (sense, np.asarray(rhs, float), tag))
        self._rows.append((sense, rhs, tag))
        for t, count in zip(*np.unique(tag, return_counts=True)):
            self.tally(str(t), int(count))
        return np.arange(start, start + k)

    def add_terms(self, rows, cols, vals) -> None:
        """Add coefficients ``vals`` at (``rows``, ``cols``), broadcast
        together. Terms at the same row and column sum in the order added;
        terms that come to exactly zero are dropped."""
        self._terms.append(tuple(
            np.ravel(a) for a in np.broadcast_arrays(
                rows, cols, np.asarray(vals, dtype=float))))

    def set_upper(self, cols, bound, tag: str) -> None:
        """Bound columns ``cols`` above by ``bound`` (broadcast to them)."""
        cols = np.asarray(cols)
        self.upper[cols] = bound
        self.tally(tag, cols.size)

    def instance(self) -> LPInstance:
        n = self.catalog.n_cols
        rows, cols, vals, sense, rhs, tags = (
            np.concatenate([part[k] for part in parts] or [np.zeros(0, dtype)])
            for parts, dtypes in ((self._terms, (np.int64, np.int64, float)),
                                  (self._rows, (str, float, str)))
            for k, dtype in enumerate(dtypes))
        indptr, indices, data = _to_csr(rows, cols, vals,
                                        len(self.row_names), n)
        audit = dict(sorted(self.audit.items()))
        audit["nonneg"] = n
        return LPInstance(
            n_cols=n, objective=self.objective, indptr=indptr,
            indices=indices, data=data, sense=sense, rhs=rhs,
            row_names=self.row_names, row_tags=tags, lower=self.lower,
            upper=self.upper, col_names=self.catalog.names,
            offset=self.offset, audit=audit)


def _hourly_names(family: str, key, n_hours: int) -> list[str]:
    return [f"{family}[{key},{t}]" for t in range(n_hours)]


# wind and utility solar: name -> (capacity family, NodeSpec field of the
# existing capacity, TimeSeriesSet field of the hourly capacity factor)
VRE = {
    "onshore": ("cap_onshore", "onshore_existing_mw", "w_on"),
    "offshore": ("cap_offshore", "offshore_existing_mw", "w_off"),
    "us-solar": ("cap_us_solar", "us_solar_existing_mw", "w_us_solar"),
}

_BALANCE_SIGNS = (
    ("fossil_ex", 1.0),
    ("fossil_new", 1.0),
    ("hydro_flex", 1.0),
    ("biofuel", 1.0),
    ("imports", 1.0),
    ("batt_discharge", 1.0),
    ("batt_charge", -1.0),
    ("h2_discharge", 1.0),
    ("h2_charge", -1.0),
)


def add_energy_balance(builder: LPBuilder, inp: BuildInputs) -> None:
    """One >= row per node-hour: supply and net imports must cover net load.

    Must-run resources (run-of-river hydro, nuclear, behind-the-meter solar,
    and other existing renewables) are folded into the right-hand side, so
    each row prices only decisions.
    """
    T = inp.n_hours
    cat = builder.catalog
    series = inp.series
    dem = inp.demand
    receive = 1.0 - inp.params.tx_loss
    rate_heat = cat.col("rate_heat")
    rate_veh = cat.col("rate_veh")
    ev_hours = np.asarray(inp.ev_hours, dtype=np.int64)

    for n in inp.node_ids:
        node = inp.network.node(n)
        rhs = (np.asarray(series.d_elec[n], dtype=float) - series.h_fix[n]
               - dem.x_btm_mw[n] * series.w_btm_solar[n])
        for _, existing, weather in VRE.values():
            rhs = rhs - getattr(node, existing) * getattr(series, weather)[n]
        if inp.config.include_nuclear:
            rhs = rhs - series.nuclear[n]
        if not inp.free_p:
            rhs = rhs + dem.d_heat[n] + dem.d_veh_fix[n]
        rows = builder.add_rows(_hourly_names("balance", n, T), GE, rhs,
                                "balance")
        for fam, sign in _BALANCE_SIGNS:
            cols = cat.cols(fam, n)
            if cols is not None:
                builder.add_terms(rows, cols, sign)
        for fam, _, weather in VRE.values():
            j = cat.col(fam, n)
            if j is not None:
                builder.add_terms(rows, j, getattr(series, weather)[n])
        ev = cat.cols("ev_flex", n)
        if ev is not None:
            builder.add_terms(rows[ev_hours], ev, -1.0)
        for directions, coeff in ((inp.inflow[n], receive),
                                  (inp.outflow[n], -1.0)):
            for direction in directions:
                builder.add_terms(rows, cat.cols("flow", direction), coeff)
        if rate_heat is not None:
            builder.add_terms(rows, rate_heat, -np.asarray(dem.d_heat[n]))
            builder.add_terms(rows, rate_veh, -np.asarray(dem.d_veh_fix[n]))


def add_fossil_constraints(builder: LPBuilder, inp: BuildInputs) -> None:
    """Reserve-margin derating and hourly ramp linearization.

    Existing units get a simple derated upper bound. New units tie dispatch
    to built capacity through a row so the reserve requirement prices
    capacity. Ramp rows make each absolute output change chargeable, with
    hour 0 wrapping against the final hour.
    """
    T = inp.n_hours
    cat = builder.catalog
    sigma = inp.params.reserve_margin
    prev = (np.arange(T) - 1) % T
    for n in inp.node_ids:
        node = inp.network.node(n)
        if n in inp.fossil_ex_nodes:
            builder.set_upper(cat.cols("fossil_ex", n),
                              node.gas_existing_mw / (1.0 + sigma),
                              "reserve-existing")
        if n in inp.build_keys["cap_fossil"]:
            rows = builder.add_rows(_hourly_names("reserve_new", n, T), LE,
                                    0.0, "reserve-new")
            builder.add_terms(rows, cat.cols("fossil_new", n), 1.0 + sigma)
            builder.add_terms(rows, cat.col("cap_fossil", n), -1.0)
        for fam, suffix, tag in (("fossil_ex", "ex", "ramp-existing"),
                                 ("fossil_new", "new", "ramp-new")):
            gen = cat.cols(fam, n)
            if gen is None:
                continue
            names = [f"ramp_{way}_{suffix}[{n},{t}]"
                     for t in range(T) for way in ("up", "dn")]
            up, dn = builder.add_rows(names, LE, 0.0, tag).reshape(T, 2).T
            # up: gen[t] - gen[t-1] <= ramp[t]; dn: the reverse.
            for rows, rise, fall in ((up, gen, gen[prev]),
                                     (dn, gen[prev], gen)):
                builder.add_terms(rows, cat.cols(f"ramp_{suffix}", n), -1.0)
                builder.add_terms(rows, rise, 1.0)
                builder.add_terms(rows, fall, -1.0)


def _headroom(max_mw: float, existing_mw: float, label: str,
              node_id: str) -> float:
    if existing_mw > max_mw:
        warnings.warn(
            f"existing {label} capacity {existing_mw:g} MW at node {node_id} "
            f"exceeds the stated maximum {max_mw:g} MW; no new build allowed",
            UserWarning,
            stacklevel=3,
        )
        return 0.0
    return max_mw - existing_mw


def add_resource_caps(builder: LPBuilder, inp: BuildInputs) -> None:
    """Resource-potential limits on new builds.

    Onshore wind and utility solar headroom are per-node bounds; offshore
    wind shares one regional budget row net of everything already standing.
    """
    cat = builder.catalog
    for n in inp.build_keys["cap_onshore"]:
        node = inp.network.node(n)
        ub = _headroom(node.onshore_max_mw, node.onshore_existing_mw,
                       "onshore wind", n)
        builder.set_upper(cat.col("cap_onshore", n), ub, "resource-onshore")
    for n in inp.build_keys["cap_us_solar"]:
        node = inp.network.node(n)
        ub = _headroom(node.us_solar_max_mw, node.us_solar_existing_mw,
                       "utility solar", n)
        builder.set_upper(cat.col("cap_us_solar", n), ub, "resource-us-solar")
    if inp.build_keys["cap_offshore"]:
        existing = sum(inp.network.node(n).offshore_existing_mw
                       for n in inp.node_ids)
        total = inp.network.offshore_cap_total_mw
        rhs = total - existing
        if rhs < 0.0:
            warnings.warn(
                f"existing offshore capacity {existing:g} MW exceeds the "
                f"regional maximum {total:g} MW; no new build allowed",
                UserWarning,
                stacklevel=2,
            )
            rhs = 0.0
        row = builder.add_rows(["resource_offshore"], LE, rhs,
                               "resource-offshore")
        builder.add_terms(row, cat.family("cap_offshore"), 1.0)


def add_transmission(builder: LPBuilder, inp: BuildInputs) -> None:
    """Directional interface limits; rows when capacity can be added."""
    T = inp.n_hours
    cat = builder.catalog
    for key in inp.interface_keys:
        iface = inp.iface_by_key[key]
        cap = cat.col("cap_tx", key)
        fwd, rev = inp.directions[key]
        for direction, limit in ((fwd, iface.existing_fwd_mw),
                                 (rev, iface.existing_rev_mw)):
            flow = cat.cols("flow", direction)
            if cap is None:
                builder.set_upper(flow, limit, "tx-limit")
            else:
                rows = builder.add_rows(_hourly_names("tx_limit", direction, T),
                                        LE, limit, "tx-limit")
                builder.add_terms(rows, flow, 1.0)
                builder.add_terms(rows, cap, -1.0)


def add_storage(builder: LPBuilder, inp: BuildInputs, kind: str) -> None:
    """State-of-charge recursion plus energy and power capacity limits.

    The state row charges the one-way efficiency on both legs and a
    per-hour standing loss on the carried state; hour 0 wraps against the
    final hour so the horizon is self-consistent. Battery sizing couples
    the two new-build capacity variables; hydrogen storage has no existing
    capacity and no sizing couple.
    """
    if kind == "battery":
        nodes = inp.battery_nodes
        build_set = frozenset(inp.build_keys["cap_battery_energy"])
        eta, prefix, tag = inp.params.eta_batt, "batt", "battery"
        cap_e_fam, cap_p_fam = "cap_battery_energy", "cap_battery_power"
    elif kind == "hydrogen":
        nodes, build_set = inp.h2_nodes, frozenset(inp.h2_nodes)
        eta, prefix, tag = inp.params.eta_h2, "h2", "h2"
        cap_e_fam, cap_p_fam = "cap_h2_energy", "cap_h2_power"
    else:
        raise LPError(f"unknown storage kind {kind!r}")
    carry = 1.0 - inp.params.kappa
    T = inp.n_hours
    cat = builder.catalog
    prev = (np.arange(T) - 1) % T
    for n in nodes:
        node = inp.network.node(n)
        if kind == "battery":
            e_ex = node.battery_energy_existing_mwh
            p_ex = node.battery_power_existing_mw
        else:
            e_ex = p_ex = 0.0
        soc = cat.cols(f"{prefix}_soc", n)
        charge = cat.cols(f"{prefix}_charge", n)
        discharge = cat.cols(f"{prefix}_discharge", n)
        rows = builder.add_rows(_hourly_names(f"{prefix}_state", n, T), EQ,
                                0.0, f"{tag}-soc")
        builder.add_terms(rows, discharge, 1.0 / eta)
        builder.add_terms(rows, charge, -eta)
        builder.add_terms(rows, soc, 1.0)
        builder.add_terms(rows, soc[prev], -carry)
        if n in build_set:
            cap_e = cat.col(cap_e_fam, n)
            cap_p = cat.col(cap_p_fam, n)
            rows = builder.add_rows(
                _hourly_names(f"{prefix}_energy_cap", n, T), LE, e_ex,
                f"{tag}-energy-cap")
            builder.add_terms(rows, soc, 1.0)
            builder.add_terms(rows, cap_e, -1.0)
            names = [f"{prefix}_{leg}_cap[{n},{t}]"
                     for t in range(T) for leg in ("charge", "discharge")]
            rows = builder.add_rows(names, LE, p_ex, f"{tag}-power-cap")
            builder.add_terms(rows, np.column_stack([charge, discharge]).ravel(),
                              1.0)
            builder.add_terms(rows, cap_p, -1.0)
            if kind == "battery":
                for name, sense, phi in (
                        ("batt_size_min", GE, inp.params.phi_batt_min),
                        ("batt_size_max", LE, inp.params.phi_batt_max)):
                    row = builder.add_rows([f"{name}[{n}]"], sense, 0.0,
                                           "battery-sizing")
                    builder.add_terms(row, [cap_p, cap_e], [1.0, -phi])
        else:
            builder.set_upper(soc, e_ex, f"{tag}-energy-cap")
            builder.set_upper(charge, p_ex, f"{tag}-power-cap")
            builder.set_upper(discharge, p_ex, f"{tag}-power-cap")


def add_dispatchables(builder: LPBuilder, inp: BuildInputs) -> None:
    """Hydro daily budgets, biofuel limits, import caps, and EV charging."""
    cat = builder.catalog
    n_days = inp.n_hours // HOURS_PER_DAY
    for n in inp.hydro_nodes:
        hydro = cat.cols("hydro_flex", n)
        rows = builder.add_rows(
            [f"hydro_daily[{n},{d}]" for d in range(n_days)], EQ,
            inp.series.h_flex_daily[n], "hydro-daily")
        builder.add_terms(rows[:, None], hydro.reshape(n_days, -1), 1.0)
        builder.set_upper(hydro, inp.network.node(n).hydro_flex_hourly_max_mwh,
                          "hydro-hourly")
    for n in inp.bio_nodes:
        node = inp.network.node(n)
        bio = cat.cols("biofuel", n)
        rows = builder.add_rows(
            [f"biofuel_daily[{n},{d}]" for d in range(n_days)], LE,
            node.biofuel_daily_mwh, "biofuel-daily")
        builder.add_terms(rows[:, None], bio.reshape(n_days, -1), 1.0)
        builder.set_upper(bio, node.biofuel_mw, "biofuel-hourly")
    for n in inp.import_nodes:
        builder.set_upper(cat.cols("imports", n),
                          inp.network.node(n).import_limit_mwh,
                          "import-limit")
    rate_veh = cat.col("rate_veh")
    for n in inp.ev_nodes:
        env = inp.demand.ev_envelopes[n]
        required = np.asarray(env.required_mwh, dtype=float)
        hourly_cap = np.asarray(env.hourly_cap_mwh, dtype=float)
        # day x charging-window hour
        ev = cat.cols("ev_flex", n).reshape(n_days, -1)
        hours = np.reshape(inp.ev_hours, ev.shape)
        if inp.free_p:
            # Each day: its energy row, then one rate row per window hour.
            width = ev.shape[1]
            names = [name for d in range(n_days) for name in (
                [f"ev_daily[{n},{d}]"]
                + [f"ev_rate[{n},{t}]" for t in hours[d]])]
            rows = builder.add_rows(
                names, ([EQ] + [LE] * width) * n_days, 0.0,
                (["ev-daily"] + ["ev-rate"] * width) * n_days,
            ).reshape(n_days, 1 + width)
            builder.add_terms(rows[:, :1], ev, 1.0)
            builder.add_terms(rows[:, 0], rate_veh, -required)
            builder.add_terms(rows[:, 1:], ev, 1.0)
            builder.add_terms(rows[:, 1:], rate_veh, -hourly_cap[:, None])
        else:
            rows = builder.add_rows(
                [f"ev_daily[{n},{d}]" for d in range(n_days)], EQ, required,
                "ev-daily")
            builder.add_terms(rows[:, None], ev, 1.0)
            builder.set_upper(ev, hourly_cap[:, None], "ev-rate")


def _supply_share_row(builder: LPBuilder, inp: BuildInputs, frac: float, *,
                      subtract_nuclear: bool, name: str, tag: str) -> None:
    """Cap the non-qualifying supply share at (1 - frac) of served load.

    Fossil and biofuel generation count in full; imports count only for
    their non-qualifying share. Flexible EV charging (and, when
    electrification rates are decision variables, the rate-driven loads)
    enlarge the served load, so they appear on the left with negative
    (1 - frac) weights. For a renewables-only share, nuclear energy also
    stops qualifying and moves across as a right-hand constant.
    """
    cat = builder.catalog
    dem = inp.demand
    co = 1.0 - frac
    base = 0.0
    heat_total = 0.0
    veh_total = 0.0
    for n in inp.node_ids:
        base += float(
            np.sum(inp.series.d_elec[n])
            - dem.x_btm_mw[n] * np.sum(inp.series.w_btm_solar[n])
        )
        if inp.free_p:
            heat_total += float(np.sum(dem.d_heat[n]))
            veh_total += float(np.sum(dem.d_veh_fix[n]))
        else:
            base += float(np.sum(dem.d_heat[n]) + np.sum(dem.d_veh_fix[n]))
    rhs = co * base
    if subtract_nuclear and inp.config.include_nuclear:
        rhs -= float(sum(np.sum(inp.series.nuclear[n])
                         for n in inp.node_ids))
    row = builder.add_rows([name], LE, rhs, tag)
    for fam, weight in (("fossil_ex", 1.0), ("fossil_new", 1.0),
                        ("biofuel", 1.0), ("imports", co), ("ev_flex", -co)):
        builder.add_terms(row, cat.family(fam), weight)
    if inp.free_p:
        builder.add_terms(row, cat.col("rate_heat"), -co * heat_total)
        builder.add_terms(row, cat.col("rate_veh"), -co * veh_total)


def _ghg_row(builder: LPBuilder, inp: BuildInputs) -> None:
    """Annualized emissions cap in MMT across electricity and end uses."""
    cat = builder.catalog
    cal = inp.emissions
    params = inp.params
    scale = 1e-6 / params.n_years
    if inp.free_p:
        eps_heat, eps_veh = cal.sector_constants(0.0, 0.0)
    else:
        eps_heat, eps_veh = cal.sector_constants(inp.demand.p_heat,
                                                 inp.demand.p_veh)
    rhs = ((1.0 - inp.config.omega) * cal.reference_mmt - eps_heat - eps_veh
           - cal.eps_transp_other_mmt - cal.eps_industrial_mmt)
    row = builder.add_rows(["policy_ghg"], LE, rhs, "policy-ghg")
    for fam, weight in (
            ("fossil_ex",
             cal.theta_ff_t_per_mwh / params.eta_ff_existing * scale),
            ("fossil_new", cal.theta_ff_t_per_mwh / params.eta_ff_new * scale),
            ("imports", cal.theta_imp_t_per_mwh * scale)):
        builder.add_terms(row, cat.family(fam), weight)
    if inp.free_p:
        builder.add_terms(row, cat.col("rate_heat"), -eps_heat)
        builder.add_terms(row, cat.col("rate_veh"), -eps_veh)


def add_policy_constraints(builder: LPBuilder, inp: BuildInputs) -> None:
    """System-wide target rows: low-carbon share, renewable share, GHG cap.

    A zero or absent target adds no row. When both share targets are set
    and the renewable one is stricter, it dominates; both rows are still
    added so their duals stay inspectable.
    """
    config = inp.config
    lcp = config.lcp if config.lcp else None
    rgt = config.rgt if config.rgt else None
    if lcp is not None and rgt is not None and rgt > lcp:
        warnings.warn(
            f"renewable share target {rgt:g} exceeds the low-carbon share "
            f"target {lcp:g} and dominates it",
            UserWarning,
            stacklevel=2,
        )
    if lcp is not None:
        _supply_share_row(builder, inp, lcp, subtract_nuclear=False,
                          name="policy_lcp", tag="policy-lcp")
    if rgt is not None:
        _supply_share_row(builder, inp, rgt, subtract_nuclear=True,
                          name="policy_rgt", tag="policy-rgt")
    if config.omega is not None:
        _ghg_row(builder, inp)


def build_objective(builder: LPBuilder, inp: BuildInputs) -> None:
    """Total-cost objective: annualized new capacity, dispatch, and fixed
    charges for what already exists (carried in the offset)."""
    costs = inp.costs
    params = inp.params
    obj = builder.objective
    cat = builder.catalog
    for fam, cap_field, omf_field, period in CAPACITY:
        for key in inp.build_keys[fam]:
            rate = annualization_rate(params.p_years[period],
                                      params.interest_rate)
            cap = getattr(costs, cap_field)[key]
            omf = getattr(costs, omf_field)[key]
            if fam == "cap_tx":
                # capital per kW-mile, fixed O&M per MW
                coeff = (rate * cap * inp.iface_by_key[key].distance_mi
                         * 1000.0 + omf)
            else:
                coeff = rate * cap * 1000.0 + omf * 1000.0
            obj[cat.col(fam, key)] = params.n_years * coeff

    def price_hours(fam: str, n: str, price: float) -> None:
        obj[cat.cols(fam, n)] = price

    for n in inp.fossil_ex_nodes:
        fuel = (HEAT_RATE_MMBTU_PER_MWH * costs.c_ff[n]
                / params.eta_ff_existing)
        price_hours("fossil_ex", n, fuel)
        price_hours("ramp_ex", n, costs.c_existing_ramp)
    for n in inp.build_keys["cap_fossil"]:
        fuel = (HEAT_RATE_MMBTU_PER_MWH * costs.c_ff[n] / params.eta_ff_new
                + costs.omv_ff)
        price_hours("fossil_new", n, fuel)
        price_hours("ramp_new", n, costs.c_new_ramp)
    for n in inp.hydro_nodes:
        price_hours("hydro_flex", n, costs.c_hydro[n])
    for n in inp.bio_nodes:
        price_hours("biofuel", n, costs.c_bio[n])
    for n in inp.import_nodes:
        price_hours("imports", n, costs.c_imp[n])
    for n in inp.battery_nodes:
        price_hours("batt_charge", n, costs.nominal_storage_charge)
        price_hours("batt_discharge", n, costs.nominal_storage_charge)
    for n in inp.h2_nodes:
        price_hours("h2_charge", n, costs.nominal_storage_charge)
        price_hours("h2_discharge", n, costs.nominal_storage_charge)
    obj[cat.family("flow")] = costs.nominal_tx_charge

    offset = 0.0
    for n in inp.node_ids:
        for charge in inp.fixed_charges(n):
            offset += charge
    builder.offset = offset


def assemble(inp: BuildInputs) -> tuple[LPInstance, VariableCatalog]:
    """Assemble the least-cost scenario LP from resolved inputs: the one
    way to build it, ``assemble(BuildInputs(...))``.

    Returns the immutable LP plus the variable catalog naming its columns.
    Callers that need the resolved inputs afterwards (reporting, the
    scenario runner) keep the ``BuildInputs`` they passed.
    """
    builder = LPBuilder(inp.catalog)
    if inp.free_p:
        # Electrification rates are adoption fractions.
        builder.upper[inp.catalog.family("rate_heat")] = 1.0
        builder.upper[inp.catalog.family("rate_veh")] = 1.0
    add_energy_balance(builder, inp)
    add_fossil_constraints(builder, inp)
    add_resource_caps(builder, inp)
    add_transmission(builder, inp)
    add_storage(builder, inp, "battery")
    add_storage(builder, inp, "hydrogen")
    add_dispatchables(builder, inp)
    add_policy_constraints(builder, inp)
    build_objective(builder, inp)
    return builder.instance(), inp.catalog

