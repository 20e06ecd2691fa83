"""Solving LPInstances: a two-phase revised simplex with native variable
bounds, plus MPS export and a solution importer for running the same
problem through an external solver.

The simplex works on one column-compressed working matrix, built straight
from the LP's CSR arrays (sign-flipped, shifted and equilibrated there)
with the slack and artificial columns appended. It prices by devex
reference weights (Harris 1973, in the form of Forrest & Goldfarb 1992),
and updates the reduced costs and weights from the pivot row, so a BTRAN
runs only at the start of a phase, after a refactorization and before
optimality is declared. The pivot row and FTRAN touch only the matrix's
nonzeros. The basis inverse is the dense inverse from the last
refactorization less one rank-1 term per pivot since, refreshed at least
every ``refactor_every`` pivots, so memory is O(m^2 + nnz) and an iteration
costs O(m^2) reads plus O(nnz). A refactorization peels the basis's row and
column singletons off in rounds and solves the dense kernel of k rows left
over (Hellerman & Rarick 1971; Suhl & Suhl 1990), about
O(nnz(B) m + k^2 m + k^3) instead of the O(m^3) of a dense solve. The dense
inverse still bounds it to desk-scale problems (a few thousand rows), which
is exactly what the bundled fixtures produce. Larger studies are expected to
go through export_mps.
"""

from __future__ import annotations

import hashlib
import io
import math
import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from gridplan.formulation import EQ, GE, LE, LPError, LPInstance

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_ITERATION_LIMIT = "iteration-limit"
STATUS_NUMERICAL = "numerical"

_PIVOT_RULES = ("devex", "bland")


@dataclass(frozen=True)
class SolveOptions:
    """Tunables for the built-in simplex.

    ``refactor_every`` is the most basis updates kept between
    refactorizations. The row count m caps it: m updates already cost as
    much to apply, and to store, as the dense factor they correct.
    """

    feasibility_tol: float = 1e-7
    optimality_tol: float = 1e-7
    max_iterations: int | None = None
    pivot_rule: str = "devex"
    refactor_every: int = 100

    def __post_init__(self):
        if self.feasibility_tol <= 0.0 or self.optimality_tol <= 0.0:
            raise ValueError("tolerances must be > 0")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.pivot_rule not in _PIVOT_RULES:
            raise ValueError(
                f"pivot_rule must be one of {_PIVOT_RULES}, "
                f"got {self.pivot_rule!r}"
            )
        if self.refactor_every < 1:
            raise ValueError("refactor_every must be >= 1")


@dataclass(frozen=True)
class Solution:
    """Outcome of a solve or an imported external solution.

    ``slacks`` holds the signed row residual oriented so feasible
    inequality rows have slack >= 0 (headroom for <=, surplus for >=).
    ``duals`` are shadow prices: d(objective)/d(rhs).
    """

    status: str
    x: np.ndarray | None
    objective: float | None
    slacks: np.ndarray | None
    duals: np.ndarray | None
    iterations: int
    max_violation: float | None
    duality_gap: float | None
    message: str = ""


def _signed_slacks(lp: LPInstance, x: np.ndarray) -> np.ndarray:
    act = lp.activity(x)
    return np.where(lp.sense == LE, lp.rhs - act, act - lp.rhs)


def _row_violations(lp: LPInstance, x: np.ndarray) -> np.ndarray:
    """How far each row misses its sense at x (<= 0 where satisfied)."""
    act = lp.activity(x)
    return np.where(lp.sense == LE, act - lp.rhs,
                    np.where(lp.sense == GE, lp.rhs - act,
                             np.abs(act - lp.rhs)))


def _max_violation(lp: LPInstance, x: np.ndarray) -> float:
    """Worst row or bound violation at x; infinite if x is not finite."""
    if not np.isfinite(x).all():
        return math.inf
    return max(float(np.max(_row_violations(lp, x), initial=0.0)),
               float(np.max(lp.lower - x, initial=0.0)),
               float(np.max(x - lp.upper, initial=0.0)))


class _Simplex:
    """Bounded-variable revised simplex over the working (scaled) problem.

    All variables have lower bound 0 in this space; each is nonbasic at
    0, nonbasic at its upper bound, or basic.

    The basis inverse is kept in product form: a dense inverse ``binv0``
    from the last refactorization, less a low-rank correction built from
    one rank-1 term per pivot since then,

        B^-1 = binv0 - u[:k].T @ v[:k].

    A pivot appends one row to ``u`` and ``v`` and writes O(m) numbers;
    FTRAN and BTRAN each read ``binv0`` once plus the thin correction. A
    refactorization folds the terms back into a fresh ``binv0``, built by
    ``_invert`` from the basis's singleton rounds and its dense kernel of k
    rows in about O(nnz(B) m + k^2 m + k^3).

    The working matrix exists only as its nonzeros ``(cols, rows, vals)``,
    sorted by column; the pivot row, FTRAN and refactorization read them
    directly, and basis repair expands just the basis columns.
    Memory is O(m^2 + nnz).

    ``run`` keeps the reduced costs ``d`` and the devex weights ``wt``.
    After the leaving row r is chosen, rho = e_r^T B^-1 and the pivot row
    alpha = rho A give

        d <- d - (d_q / alpha_q) alpha,   d_leaving = -d_q / alpha_q,
        wt <- max(wt, (alpha / alpha_q)^2 wt_q),
        wt_leaving = max(wt_q / alpha_q^2, 1),

    and the entering column is the candidate of largest d_j^2 / wt_j. A
    bound flip changes neither. ``d`` is recomputed from a BTRAN at the
    start of a phase, after each refactorization, and before optimality
    is declared; the reduced costs of basic columns are held at exactly 0.
    The ratio test skips entries of magnitude at most 1e-7 x min(1,
    max |w|), so every pivot taken exceeds that.
    """

    AT_LOWER, AT_UPPER, BASIC = 0, 1, 2

    def __init__(self, cols, rows, vals, b, ub, basis, opts: SolveOptions):
        self.cols, self.rows, self.vals = cols, rows, vals
        self.b = b.copy()
        self.ub = ub.copy()
        self.opts = opts
        self.m, self.n_all = b.size, ub.size
        self.iterations = 0
        # ``binv0`` below is the identity: the starting basis must be unit
        # slack and artificial columns, or be refactored before use.
        self.basis = np.array(basis, dtype=np.int64)
        self.vstat = np.full(self.n_all, self.AT_LOWER, dtype=np.int8)
        self.vstat[self.basis] = self.BASIC
        self.xb = b.copy()
        # Column j owns entries indptr[j]:indptr[j + 1] of (rows, vals).
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(self.cols, minlength=self.n_all))])
        self.max_updates = min(opts.refactor_every, self.m)
        self.u = np.empty((self.max_updates, self.m))
        self.v = np.empty((self.max_updates, self.m))
        self.k = 0
        self.binv0 = np.eye(self.m)

    def _dense(self, cols: np.ndarray) -> np.ndarray:
        """Working columns ``cols`` as a dense m x len(cols) array, in
        Fortran order (the BLAS summation order of products with it
        depends on the layout)."""
        pos = np.full(self.n_all, -1)
        pos[cols] = np.arange(cols.size)
        keep = pos[self.cols] >= 0
        out = np.zeros((self.m, cols.size), order="F")
        out[self.rows[keep], pos[self.cols[keep]]] = self.vals[keep]
        return out

    def _basis_entries(self):
        """The basis columns' nonzeros as (position in the basis, row,
        value), gathered from their column slices."""
        starts = self.indptr[self.basis]
        lens = self.indptr[self.basis + 1] - starts
        ends = np.cumsum(lens)
        take = np.arange(ends[-1] if self.m else 0) + np.repeat(
            starts - ends + lens, lens)
        return (np.repeat(np.arange(self.m), lens), self.rows[take],
                self.vals[take])

    def _peel(self, pos, rows):
        """Singleton rounds of the basis whose nonzeros are (pos, rows).

        Returns the row-singleton rounds in peel order, the kernel, and the
        column-singleton rounds in reverse peel order, each as (rows,
        positions), pivots paired. Column singletons are peeled until none
        is left, then row singletons; neither peel makes singletons of the
        other kind. A round takes every singleton at once: no two of its
        pivots share a row or a column.
        """
        m = self.m
        live = np.ones(pos.size, dtype=bool)
        row_left = np.ones(m, dtype=bool)
        col_left = np.ones(m, dtype=bool)
        rounds = {True: [], False: []}
        for by_col in (True, False):
            key, other = (pos, rows) if by_col else (rows, pos)
            left = col_left if by_col else row_left
            while True:
                count = np.bincount(key[live], minlength=m)
                if (left & (count == 0)).any():
                    raise np.linalg.LinAlgError("structurally singular basis")
                single = live & (count == 1)[key]
                if not single.any():
                    break
                mine, theirs = key[single], other[single]
                if np.unique(theirs).size < theirs.size:
                    raise np.linalg.LinAlgError(
                        "two singletons share a pivot")
                piv_rows, piv_cols = ((theirs, mine) if by_col
                                      else (mine, theirs))
                rounds[by_col].append((piv_rows, piv_cols))
                row_left[piv_rows] = False
                col_left[piv_cols] = False
                live &= row_left[rows] & col_left[pos]
        kernel = (np.flatnonzero(row_left), np.flatnonzero(col_left))
        return rounds[False], kernel, rounds[True][::-1]

    def _invert(self) -> np.ndarray:
        """B^-1 by peeling singletons off the basis and solving the dense
        kernel left over.

        Ordered as row-singleton pivots, kernel, column-singleton pivots
        (``_peel``), the basis is block lower triangular, with a diagonal
        block per round and one dense block for the kernel, and so is its
        inverse. Block forward substitution builds the inverse a block row
        at a time: a round is one small dense product over the earlier rows
        of the inverse that its basis rows touch, divided by its pivots;
        the kernel is one ``np.linalg.solve``. The row-singleton and kernel
        rows of the inverse are nonzero only in their own basis rows, so
        they are built in a compact array first. Raises LinAlgError for a
        singular basis, structural or numerical.
        """
        m = self.m
        pos, rows, vals = self._basis_entries()
        front, kernel, back = self._peel(pos, rows)
        blocks = front + [kernel] + back
        # Each row's block and slot in it, each position's block and slot,
        # and the entries grouped by the block of their row.
        row_block, row_slot = np.empty(m, np.int64), np.empty(m, np.int64)
        pos_block, pos_slot = np.empty(m, np.int64), np.empty(m, np.int64)
        for i, (r, p) in enumerate(blocks):
            row_block[r] = pos_block[p] = i
            row_slot[r] = pos_slot[p] = np.arange(r.size)
        entry_block = row_block[rows]
        order = np.argsort(entry_block, kind="stable")
        ptr = np.searchsorted(entry_block[order], np.arange(len(blocks) + 1))
        on_diagonal = pos_block[pos] == entry_block

        def split(i):
            """Block i's entries: the diagonal block's (entry, row slot),
            and the rest as a dense (rows x earlier positions) matrix plus
            those positions."""
            e = order[ptr[i]:ptr[i + 1]]
            slot, diag = row_slot[rows[e]], on_diagonal[e]
            deps, dep_slot = np.unique(pos[e[~diag]], return_inverse=True)
            s = np.zeros((blocks[i][0].size, deps.size))
            s[slot[~diag], dep_slot] = vals[e[~diag]]
            return e[diag], slot[diag], s, deps

        def pivots(e, slot):
            piv = np.zeros(slot.size)
            piv[slot] = vals[e]
            if not piv.all():
                raise np.linalg.LinAlgError("zero pivot")
            return piv

        # The row-singleton and kernel rows of the inverse are nonzero only
        # in the basis rows of those blocks: build them compactly first,
        # rows and columns in block order.
        lead = front + [kernel]
        lead_rows = np.concatenate([r for r, _ in lead])
        lead_pos = np.concatenate([p for _, p in lead])
        compact = np.empty(m, dtype=np.int64)
        compact[lead_pos] = np.arange(lead_pos.size)
        x = np.zeros((lead_pos.size, lead_pos.size))
        a = 0
        for i, (r, _) in enumerate(lead):
            b = a + r.size
            e, slot, s, deps = split(i)
            rhs = np.zeros((r.size, b))
            rhs[:, :a] = -(s @ x[compact[deps], :a])
            rhs[:, a:] = np.eye(r.size)
            if i < len(front):
                x[a:b, :b] = rhs / pivots(e, slot)[:, None]
            elif r.size:
                kern = np.zeros((r.size, r.size))
                kern[slot, pos_slot[pos[e]]] = vals[e]
                x[a:b, :b] = np.linalg.solve(kern, rhs)
            a = b
        binv = np.zeros((m, m))
        binv[np.ix_(lead_pos, lead_rows)] = x
        # Column-singleton rows in full, each round from the rows before.
        for i, (r, p) in enumerate(back, start=len(lead)):
            e, slot, s, deps = split(i)
            piv = pivots(e, slot)
            binv[p] = -(s @ binv[deps]) / piv[:, None]
            binv[p, r] = 1.0 / piv
        return binv

    def refactor(self):
        try:
            self.binv0 = self._invert()
        except np.linalg.LinAlgError:
            self._repair_basis()
            self.binv0 = self._invert()
        self.k = 0
        at_ub = np.flatnonzero(self.vstat == self.AT_UPPER)
        self.xb = self.binv0 @ (self.b - self._dense(at_ub) @ self.ub[at_ub])

    def _ftran(self, q: int) -> np.ndarray:
        """B^-1 times working column q."""
        lo, hi = self.indptr[q], self.indptr[q + 1]
        rows, vals = self.rows[lo:hi], self.vals[lo:hi]
        w = self.binv0[:, rows] @ vals
        k = self.k
        return w - (self.v[:k, rows] @ vals) @ self.u[:k]

    def _btran(self, cb: np.ndarray) -> np.ndarray:
        """cb times B^-1."""
        k = self.k
        return cb @ self.binv0 - (self.u[:k] @ cb) @ self.v[:k]

    def _pivot_update(self, r: int, w: np.ndarray, rho: np.ndarray):
        """Record the pivot on row r with entering column B^-1 a_q = w and
        rho, row r of B^-1 before the pivot."""
        k = self.k
        self.v[k] = rho / w[r]
        self.u[k] = w
        self.u[k, r] -= 1.0
        self.k = k + 1

    def _unit_columns(self) -> dict:
        """Row index -> a working column that is a multiple of that row's
        unit vector (slack or artificial), preferring the earliest."""
        out: dict[int, list[int]] = {}
        singles = np.flatnonzero(np.diff(self.indptr) == 1)
        for j, i in zip(singles.tolist(), self.rows[self.indptr[singles]]):
            out.setdefault(int(i), []).append(j)
        return out

    def _repair_basis(self):
        """Swap numerically dependent basis columns for row unit columns.

        Reachable only when roundoff lets a dependent column into the
        basis; the follow-up refactor recomputes consistent basic values.
        """
        lu = self._dense(self.basis)
        used = np.zeros(self.m, dtype=bool)
        dependent = []
        for k in range(self.m):
            col = np.where(used, 0.0, lu[:, k])
            r = int(np.argmax(np.abs(col)))
            if abs(col[r]) < 1e-9:
                dependent.append(k)
                continue
            used[r] = True
            row = lu[r, :].copy()
            row[k] = 0.0
            touched = np.flatnonzero(row)
            if touched.size:
                lu[:, touched] -= np.outer(lu[:, k] / lu[r, k], row[touched])
        in_basis = set(self.basis.tolist())
        units = self._unit_columns()
        for k, i in zip(dependent, np.flatnonzero(~used).tolist()):
            j = next((j for j in units.get(int(i), ()) if j not in in_basis),
                     None)
            if j is None:
                raise ArithmeticError(
                    f"cannot repair a singular basis: no spare unit column "
                    f"for row {i}")
            old = int(self.basis[k])
            in_basis.discard(old)
            in_basis.add(j)
            self.vstat[old] = self.AT_LOWER
            self.basis[k] = j
            self.vstat[j] = self.BASIC

    def point(self) -> np.ndarray:
        x = np.where(self.vstat == self.AT_UPPER, self.ub, 0.0)
        x[self.basis] = self.xb
        return x

    def duals(self, c: np.ndarray) -> np.ndarray:
        return self._btran(c[self.basis])

    def _price(self, c: np.ndarray):
        """Reduced costs ``d = c - A^T y`` from a fresh BTRAN."""
        y = self._btran(c[self.basis])
        self.d = c - np.bincount(self.cols, weights=y[self.rows] * self.vals,
                                 minlength=self.n_all)
        self.d[self.basis] = 0.0

    def run(self, c: np.ndarray, phase: int, max_iterations: int) -> str:
        tol = self.opts.optimality_tol
        bland = self.opts.pivot_rule == "bland"
        fixed = self.ub <= 0.0
        # Devex reference weights, reset at the start of each phase.
        self.wt = wt = np.ones(self.n_all)
        self._price(c)
        fresh = True

        while True:
            d = self.d
            candidates = np.flatnonzero(
                ((self.vstat == self.AT_LOWER) & ~fixed & (d < -tol))
                | ((self.vstat == self.AT_UPPER) & (d > tol)))
            if candidates.size == 0:
                if fresh:
                    return STATUS_OPTIMAL
                # Declare optimality only on reduced costs from a BTRAN.
                self._price(c)
                fresh = True
                continue
            if self.iterations >= max_iterations:
                return STATUS_ITERATION_LIMIT
            self.iterations += 1
            if bland:
                q = int(candidates[0])
            else:
                q = int(candidates[np.argmax(
                    d[candidates] ** 2 / wt[candidates])])
            sigma = 1.0 if self.vstat[q] == self.AT_LOWER else -1.0

            w = self._ftran(q)
            denom = sigma * w
            # The ratio test skips entries this small as roundoff: pivoting
            # on one would make the basis numerically singular. The bound is
            # relative for a column whose whole B^-1 a_q is small, where its
            # tiny entries are real, and a long step would carry a basic
            # variable past its bound unchecked.
            piv_tol = 1e-7 * min(1.0, float(np.abs(w).max(initial=0.0)))
            # Distance each basic variable allows before hitting a bound.
            ratios = np.full(self.m, np.inf)
            hits_upper = np.zeros(self.m, dtype=bool)
            pos = denom > piv_tol
            ratios[pos] = np.maximum(self.xb[pos], 0.0) / denom[pos]
            neg = denom < -piv_tol
            ratios[neg] = np.maximum(self.ub[self.basis[neg]] - self.xb[neg],
                                     0.0) / -denom[neg]
            hits_upper[neg] = True

            t_flip = self.ub[q]
            t_row = float(ratios.min()) if self.m else np.inf
            t_star = min(t_flip, t_row)
            if not np.isfinite(t_star):
                if phase == 1:
                    raise ArithmeticError(
                        "feasibility subproblem claims an unbounded "
                        "direction; numerical breakdown"
                    )
                return STATUS_UNBOUNDED

            self.xb -= t_star * sigma * w
            if t_flip <= t_row:
                # Entering variable swings to its other bound; the basis,
                # and with it d and the weights, stay.
                self.vstat[q] = (self.AT_UPPER if sigma > 0.0
                                 else self.AT_LOWER)
                continue
            near = ratios <= t_star + 1e-12
            idx = np.flatnonzero(near)
            if bland:
                r = int(idx[np.argmin(self.basis[idx])])
            else:
                r = int(idx[np.argmax(np.abs(denom[idx]))])
            # Row r of B^-1, and the pivot row alpha = rho A.
            rho = self.binv0[r] - self.u[:self.k, r] @ self.v[:self.k]
            alpha = np.bincount(self.cols, weights=rho[self.rows] * self.vals,
                                minlength=self.n_all)
            leaving = int(self.basis[r])
            theta = d[q] / w[r]
            d -= theta * alpha
            # Basic reduced costs are zero by definition; what the update
            # leaves there is roundoff, which nothing reads.
            d[self.basis] = 0.0
            d[q] = 0.0
            d[leaving] = -theta
            np.maximum(wt, (alpha / w[r]) ** 2 * wt[q], out=wt)
            wt[leaving] = max(wt[q] / w[r] ** 2, 1.0)
            fresh = False

            self.vstat[leaving] = (self.AT_UPPER if hits_upper[r]
                                   else self.AT_LOWER)
            self.basis[r] = q
            self.vstat[q] = self.BASIC
            self.xb[r] = t_star if sigma > 0.0 else self.ub[q] - t_star
            self._pivot_update(r, w, rho)
            # Small pivots are accepted but poison the rolling inverse,
            # so refresh it immediately afterwards.
            if self.k >= self.max_updates or abs(w[r]) < 1e-3:
                self.refactor()
                self._price(c)
                fresh = True


def _no_solution(status: str, iterations: int, message: str) -> Solution:
    return Solution(status=status, x=None, objective=None, slacks=None,
                    duals=None, iterations=iterations, max_violation=None,
                    duality_gap=None, message=message)


def _finish(lp: LPInstance, x: np.ndarray, duals: np.ndarray,
            vstat: np.ndarray, iterations: int) -> Solution:
    x = np.clip(x, lp.lower, lp.upper)
    primal = float(lp.objective @ x)
    # Dual objective: rhs terms plus reduced-cost terms for every
    # nonbasic variable resting at a finite bound.
    reduced = lp.objective - np.bincount(
        lp.indices, weights=lp.data * duals[lp.row_of], minlength=lp.n_cols)
    dual_obj = float(duals @ lp.rhs)
    at_lower = vstat == _Simplex.AT_LOWER
    dual_obj += float(reduced[at_lower] @ lp.lower[at_lower])
    at_upper = (vstat == _Simplex.AT_UPPER) & np.isfinite(lp.upper)
    dual_obj += float(reduced[at_upper] @ lp.upper[at_upper])
    gap = abs(primal - dual_obj) / max(1.0, abs(primal))
    return Solution(
        status=STATUS_OPTIMAL,
        x=x,
        objective=primal + lp.offset,
        slacks=_signed_slacks(lp, x),
        duals=duals,
        iterations=iterations,
        max_violation=_max_violation(lp, x),
        duality_gap=gap,
    )


def solve(lp: LPInstance, options: SolveOptions | None = None) -> Solution:
    """Minimize the LPInstance with the built-in simplex.

    The working matrix is built from the LP's CSR arrays alone: lower
    bounds shifted to zero, rows flipped to a nonnegative rhs, rows and
    columns equilibrated, slack and artificial columns appended. The
    returned point is verified against the original rows and bounds; one
    that misses them by more than 10 x feasibility_tol x max(1, max |rhs|)
    is never reported optimal but comes back "numerical", naming the
    violated rows worst first.
    """
    opts = options or SolveOptions()
    m, n = lp.n_rows, lp.n_cols
    lower = lp.lower
    row_of, col_of = lp.row_of, lp.indices
    tol = opts.feasibility_tol * max(
        1.0, float(np.max(np.abs(lp.rhs), initial=0.0)))

    # Shift lower bounds to zero.
    b_shift = lp.rhs - lp.activity(lower)
    ub = lp.upper - lower

    # Normalize to nonnegative rhs, tracking the sign for dual recovery.
    flip = np.where(b_shift < 0.0, -1.0, 1.0)
    a = lp.data * flip[row_of]
    b_shift *= flip
    senses = np.where(flip > 0.0, lp.sense,
                      np.where(lp.sense == LE, GE,
                               np.where(lp.sense == GE, LE, EQ)))

    # Geometric-mean equilibration: capital-cost and hourly-energy
    # coefficients differ by orders of magnitude otherwise.
    row_scale = np.ones(m)
    col_scale = np.ones(n)
    mag = np.abs(a)
    for _ in range(2):
        for scale, index in ((row_scale, row_of), (col_scale, col_of)):
            hi = np.zeros(scale.size)
            np.maximum.at(hi, index, mag)
            lo = np.full(scale.size, np.inf)
            np.minimum.at(lo, index, np.where(mag > 0.0, mag, np.inf))
            with np.errstate(invalid="ignore", divide="ignore"):
                f = np.where((hi > 0.0) & np.isfinite(lo),
                             1.0 / np.sqrt(hi * lo), 1.0)
            mag *= f[index]
            scale *= f
    a = a * row_scale[row_of] * col_scale[col_of]
    b_w = b_shift * row_scale
    c_w = lp.objective * col_scale
    ub_w = ub / col_scale

    # Working columns, sorted by column: structural, slack/surplus,
    # artificial.
    slack_rows = np.flatnonzero(senses != EQ)
    art_rows = np.flatnonzero(senses != LE)
    n_slack, n_art = slack_rows.size, art_rows.size
    n_all = n + n_slack + n_art
    slack_cols = n + np.arange(n_slack)
    art_cols = n + n_slack + np.arange(n_art)
    # Start from the artificial of every row that has one, else its slack.
    start_basis = np.empty(m, dtype=np.int64)
    start_basis[slack_rows] = slack_cols
    start_basis[art_rows] = art_cols
    by_col = np.argsort(col_of, kind="stable")
    sx = _Simplex(
        np.concatenate([col_of[by_col], slack_cols, art_cols]),
        np.concatenate([row_of[by_col], slack_rows, art_rows]),
        np.concatenate([a[by_col],
                        np.where(senses[slack_rows] == LE, 1.0, -1.0),
                        np.ones(n_art)]),
        b_w, np.concatenate([ub_w, np.full(n_slack + n_art, np.inf)]),
        start_basis, opts)
    max_iterations = opts.max_iterations
    if max_iterations is None:
        max_iterations = 50 * (m + n_all) + 200

    if n_art:
        c1 = np.zeros(n_all)
        c1[n + n_slack:] = 1.0
        status = sx.run(c1, phase=1, max_iterations=max_iterations)
        if status == STATUS_ITERATION_LIMIT:
            return _no_solution(
                status, sx.iterations,
                f"iteration limit {max_iterations} hit during the "
                "feasibility phase")
        # Basic artificials hold the residual. Judge it in the original
        # rows' units: row scales span many orders of magnitude.
        held = np.flatnonzero(sx.basis >= n + n_slack)
        held_rows = art_rows[sx.basis[held] - n - n_slack]
        level = np.maximum(sx.xb[held], 0.0) / row_scale[held_rows]
        if level.sum() > tol:
            worst = np.argsort(-level, kind="stable")
            bad = [lp.row_names[i]
                   for i in held_rows[worst][level[worst] > tol][:5]]
            return _no_solution(
                STATUS_INFEASIBLE, sx.iterations,
                f"no feasible point; residual {level.sum():.3e} "
                f"concentrated in rows {bad}")
        sx.ub[n + n_slack:] = 0.0

    c2 = np.zeros(n_all)
    c2[:n] = c_w
    status = sx.run(c2, phase=2, max_iterations=max_iterations)
    if status == STATUS_ITERATION_LIMIT:
        return _no_solution(
            status, sx.iterations,
            f"iteration limit {max_iterations} hit while optimizing")
    if status == STATUS_UNBOUNDED:
        return _no_solution(
            status, sx.iterations,
            "objective improves without bound over the feasible set")

    sx.refactor()
    x = lower + sx.point()[:n] * col_scale
    duals = sx.duals(c2) * row_scale * flip
    sol = _finish(lp, x, duals, sx.vstat[:n].copy(), sx.iterations)
    if sol.max_violation > 10.0 * tol:
        violation = _row_violations(lp, sol.x)
        bad = np.flatnonzero(violation > 10.0 * tol)
        bad = bad[np.argsort(-violation[bad], kind="stable")]
        return _no_solution(
            STATUS_NUMERICAL, sx.iterations,
            f"built-in point violates {bad.size} rows beyond tolerance "
            f"(worst {sol.max_violation:.3e}): "
            f"{[lp.row_names[i] for i in bad[:5]]}")
    return sol


_BASE36 = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_RESERVED_MPS_NAMES = ("COST", "RHS", "BND")


def _hash36(name: str, length: int = 6) -> str:
    value = int.from_bytes(
        hashlib.blake2b(name.encode(), digest_size=8).digest(), "big")
    out = []
    for _ in range(length):
        value, digit = divmod(value, 36)
        out.append(_BASE36[digit])
    return "".join(out)


def _mangle(name: str) -> str:
    clean = re.sub(r"[^A-Za-z0-9]", "_", name)
    if len(clean) <= 8:
        return clean
    return clean[:2] + _hash36(name)


def mps_name_map(lp: LPInstance) -> dict:
    """Canonical original-name -> 8-char MPS name map (rows and columns).

    Raises LPError listing colliders if two names mangle identically.
    """
    taken = {reserved: reserved for reserved in _RESERVED_MPS_NAMES}
    mapping = {}
    for name in lp.col_names + lp.row_names:
        short = _mangle(name)
        other = taken.get(short)
        if other is not None and other != name:
            raise LPError(
                f"MPS name collision: {other!r} and {name!r} both mangle "
                f"to {short!r}")
        taken[short] = name
        mapping[name] = short
    return mapping


def export_mps(lp: LPInstance, problem_name: str = "GRIDPLAN") -> str:
    """Write the LP as fixed-format MPS text.

    The constant objective offset has no MPS representation, so it is
    recorded in a leading comment and re-added by import_solution.
    Coefficient values are written at full precision even where that
    overflows the historical 12-character value field; tokenizing
    readers (including every modern solver) accept this.
    """
    if len(set(lp.row_names)) != lp.n_rows:
        raise LPError("row names must be unique for MPS export")
    names = mps_name_map(lp)
    rows = [names[name] for name in lp.row_names]
    cols = [names[name] for name in lp.col_names]
    sense_code = {LE: "L", GE: "G", EQ: "E"}

    # The matrix entries column by column, rows ascending within each.
    by_col = np.argsort(lp.indices, kind="stable")
    col_ptr = np.concatenate(
        ([0], np.cumsum(np.bincount(lp.indices, minlength=lp.n_cols)))).tolist()
    entry_row = lp.row_of[by_col].tolist()
    entry_val = lp.data[by_col].tolist()

    buf = io.StringIO()
    buf.write(f"* OFFSET {lp.offset!r}\n")
    buf.write(f"NAME          {problem_name}\n")
    buf.write("ROWS\n")
    buf.write(" N  COST\n")
    for sense, short in zip(lp.sense.tolist(), rows):
        buf.write(f" {sense_code[sense]}  {short:<8}\n")
    buf.write("COLUMNS\n")
    for j, (col, cost) in enumerate(zip(cols, lp.objective.tolist())):
        # Every column gets an objective entry, declaring it even when 0.
        buf.write(f"    {col:<8}  {'COST':<8}  {cost!r}\n")
        for k in range(col_ptr[j], col_ptr[j + 1]):
            buf.write(f"    {col:<8}  {rows[entry_row[k]]:<8}  "
                      f"{entry_val[k]!r}\n")
    buf.write("RHS\n")
    for short, rhs in zip(rows, lp.rhs.tolist()):
        if rhs != 0.0:
            buf.write(f"    {'RHS':<8}  {short:<8}  {rhs!r}\n")
    buf.write("BOUNDS\n")
    for col, lo, up in zip(cols, lp.lower.tolist(), lp.upper.tolist()):
        if lo == up:
            buf.write(f" FX {'BND':<8}  {col:<8}  {lo!r}\n")
            continue
        if lo != 0.0:
            buf.write(f" LO {'BND':<8}  {col:<8}  {lo!r}\n")
        if math.isfinite(up):
            buf.write(f" UP {'BND':<8}  {col:<8}  {up!r}\n")
    buf.write("ENDATA\n")
    return buf.getvalue()


def _parse_solution_text(text: str) -> dict:
    values = {}
    for line in text.splitlines():
        if line.startswith("*") or not line.strip():
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise LPError(f"cannot parse solution line {line!r}")
        if tokens[0] in values:
            raise LPError(f"solution gives column {tokens[0]!r} twice")
        values[tokens[0]] = float(tokens[1])
    return values


def import_solution(lp: LPInstance, source,
                    options: SolveOptions | None = None) -> Solution:
    """Adopt externally solved values for this LP.

    ``source`` may be a mapping, NAME VALUE text, or a readable stream.
    Column names may be originals or their MPS-mangled forms; a column
    given twice, by either name, raises LPError. The objective and
    slacks are recomputed from the point itself; status
    "optimal" here asserts feasibility within tolerance, while a point
    violating any row beyond tolerance comes back "infeasible" with the
    offending rows named, and so does a point holding a NaN or infinite
    value, with up to 5 such columns named.
    """
    opts = options or SolveOptions()
    if isinstance(source, Mapping):
        raw = dict(source)
    else:
        text = source.read() if hasattr(source, "read") else str(source)
        raw = _parse_solution_text(text)

    known = set(lp.col_names)
    unmangle = None  # mangling every name is costly, so only on demand
    values = {}
    for name, value in raw.items():
        if name not in known:
            if unmangle is None:
                unmangle = {_mangle(col): col for col in lp.col_names}
            if name not in unmangle:
                raise LPError(f"solution names unknown column {name!r}")
            name = unmangle[name]
        if name in values:
            raise LPError(f"solution gives column {name!r} twice: by its "
                          f"name and by its MPS name {_mangle(name)!r}")
        values[name] = value
    missing = [name for name in lp.col_names if name not in values]
    if missing:
        raise LPError(f"solution is missing columns {missing[:5]}")

    x = np.array([values[name] for name in lp.col_names], dtype=float)
    violation = _max_violation(lp, x)
    nonfinite = np.flatnonzero(~np.isfinite(x))
    if violation <= opts.feasibility_tol:
        status, message = STATUS_OPTIMAL, ""
    elif nonfinite.size:
        status = STATUS_INFEASIBLE
        message = (f"imported point has {nonfinite.size} non-finite values: "
                   f"{[lp.col_names[j] for j in nonfinite[:5]]}")
    else:
        status = STATUS_INFEASIBLE
        bad = [lp.row_names[i] for i in np.flatnonzero(
            _row_violations(lp, x) > opts.feasibility_tol)]
        message = (f"imported point violates {len(bad)} rows "
                   f"(worst {violation:.3e}): {bad[:5]}")
    with np.errstate(invalid="ignore"):  # 0 * inf at a non-finite point
        objective = lp.objective_value(x)
    return Solution(
        status=status,
        x=x,
        objective=objective,
        slacks=_signed_slacks(lp, x),
        duals=None,
        iterations=0,
        max_violation=violation,
        duality_gap=None,
        message=message,
    )
