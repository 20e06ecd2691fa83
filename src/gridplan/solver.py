"""Solving LPInstances: a bounded revised simplex, plus MPS export and a
solution importer for running the same problem through an external solver.

Every solve takes one route from a basis: the dual simplex, with dual devex
row pricing and a bound-flipping ratio test (Koberstein 2005; Bixby 2002),
to a primal feasible basis, then primal phase 2 to optimality. A cold solve
starts from the slack basis; a solve given the ``Basis`` of a neighbouring
LP starts from it (see below). A step of electrification rate or emissions
target moves only right-hand sides and bounds, so that basis stays dual
feasible and a few dual pivots restore primal feasibility. Where a basis
is not dual feasible, boxed columns move to their other bound and the
others have their cost shifted for the dual alone (Koberstein 2005, ch.
4). One routine, ``_dual_bound``, reads every verdict off the LP's own
arrays, in its units: the lower bound any row multipliers give on the
optimum (Neumaier & Shcherbina 2004). With the costs and a solve's duals
it certifies the gap; with none it is the Farkas check that "infeasible"
needs, and its per-row form, the row-activity check (Brearley, Mitra &
Williams 1975), runs once per solve before any start is tried. One helper
judges every reported point, built-in or imported.

The working matrix is column-compressed, built straight from the LP's CSR
arrays (shifted and equilibrated there) with one logical column per row.
Both phases price by devex weights (Harris 1973; Forrest & Goldfarb 1992)
and update the reduced costs from the pivot row, so a BTRAN runs only at a
phase's start, after a refactorization and before optimality is declared.
The basis inverse is the dense inverse from the last refactorization less
one rank-1 term per pivot since, so memory is O(m^2 + nnz). An iteration
reads O(k m + nnz), with k <= 200 the terms held, and makes a fixed count
of numpy calls, which take most of its time below about 1,000 rows. The
factor is rebuilt only on need: after 200 terms (at most m), or where the
pivot element read from the column (FTRAN) and from the pivot row part by
more than 1e-9 relative, the dual simplex's pivot stability test
(Koberstein 2005). A solve that pivoted reads its point and duals off
the updated factor, each with one step of iterative refinement, and
refactors only if that point misses the rows. A refactorization peels
the basis's row and column singletons off in rounds and solves the dense
kernel of k' rows left over (Hellerman & Rarick 1971; Suhl & Suhl 1990),
in about O(nnz(B) m + k'^2 m + k'^3); the slack basis of a cold start is
one round of column singletons, inverted as its pivots' reciprocals. By
the same peel, ``_Simplex.complete`` makes any basic columns, short, too
full or singular, m independent ones (Koberstein 2005): a start's as it is
mapped, and a basis's whose factorization fails, before it is factored.

An optimal solve's ``Basis`` is its working problem: the pattern, the
scales, and the final statuses and factor. A solve started from it, on an
LP of the same shape, names and sparsity pattern, keeps the working scales
and a copy of the factor, swaps in the new right-hand sides, bounds and
costs, and folds a change in one row's entries into the factor as one
Sherman-Morrison term (Sherman & Morrison 1950). On any other LP the
statuses are mapped by row and column name onto a fresh working problem,
which is factored afresh. Along a sweep's chain the basis is thus
factored again only where the LP gains a row or the factor needs it. A
basis holds its dense factor packed as its nonzeros (10-20% of m^2 on the
fixture, shared along a chain) and at most m/4 update terms, or, with
more terms, no factor.

The dense inverse bounds the simplex to desk-scale problems (a few
thousand rows), which is what the bundled fixtures produce; larger studies
go through write_mps (or export_mps, its text as one string), whose MPS
file names column j ``C<j>`` and row i ``R<i>``, and import_solution,
which reads a point keyed by those names or by the LP's own. Both stream:
the writer renders and writes a chunk of lines at a time, and the reader
parses a block of text at a time.
"""

from __future__ import annotations

import io
import itertools
import math
import re
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple

import numpy as np

from gridplan.formulation import (EQ, GE, LE, LPError, LPInstance,
                                  period_map)

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_ITERATION_LIMIT = "iteration-limit"
STATUS_NUMERICAL = "numerical"


@dataclass(frozen=True)
class SolveOptions:
    """Tunables for the built-in simplex: ``feasibility_tol``,
    ``optimality_tol`` and ``max_iterations`` (None: 50 (2m + n) + 200).

    ``optimality_tol`` bounds the reduced costs of the equilibrated
    problem; in the LP's own units a column's reduced cost may reach tol
    over its scale. On the shipped fixture the scales run from 9e-6 (the
    hourly flows) to 9e4 (the capacities), so 1e-9 admits about 1e-4 USD
    per MWh of flow where 1e-7 admitted 0.01, the size of the one early
    stop seen (a column priced -0.009 left out, 3.9e-8 above the optimum,
    on a 48 h cell that every tolerance from 1e-9 to 1e-2 now solves
    exactly). No cell of the fixture's lcp and ghg grids at demand seeds
    0-7 stops above its optimum at 1e-7, so the default is a margin, not
    a case; each optimal solution's certified ``duality_gap`` bounds any
    stop short of the optimum.
    """

    feasibility_tol: float = 1e-7
    optimality_tol: float = 1e-9
    max_iterations: int | None = None

    def __post_init__(self):
        if self.feasibility_tol <= 0.0 or self.optimality_tol <= 0.0:
            raise ValueError("tolerances must be > 0")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class Solution:
    """Outcome of a solve or an imported external solution.

    ``slacks`` holds the signed row residual oriented so feasible
    inequality rows have slack >= 0 (headroom for <=, surplus for >=).
    ``duals`` are shadow prices: d(objective)/d(rhs). ``duality_gap`` is
    (c x - L(duals)) / max(1, |c x|), with L the lower bound on the optimum
    that the duals give whatever their quality (``_dual_bound``), so the
    point's cost is at most that far above the optimum: a certificate. It
    may read below 0 at roundoff level; a point without duals has none.
    ``basis`` is the optimal basis of a built-in solve, opaque, which
    ``solve`` can start another LP from; an imported point or a failed
    solve has none.
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
    basis: Basis | None = None


def _row_violations(lp: LPInstance, low: np.ndarray,
                    high: np.ndarray) -> np.ndarray:
    """How far each row misses its sense at every activity within [low,
    high] (<= 0 where one of them satisfies it): at a point, low = high
    is its activity; for the row check, the span the column bounds
    allow."""
    return np.where(lp.sense == LE, low - lp.rhs,
                    np.where(lp.sense == GE, lp.rhs - high,
                             np.maximum(low - lp.rhs, lp.rhs - high)))


def _violation_message(lp: LPInstance, x: np.ndarray, limit: float,
                       subject: str) -> str:
    """The columns where x is NaN or infinite, then the rows and the
    column bounds that x misses by more than ``limit``: how many, the
    worst miss, and up to 5 named worst first."""
    nonfinite = np.flatnonzero(~np.isfinite(x))
    found = [f"has {nonfinite.size} non-finite values: "
             f"{[lp.col_names[j] for j in nonfinite[:5]]}"] \
        if nonfinite.size else []
    parts = []
    with np.errstate(invalid="ignore"):  # inf - inf at a non-finite point
        act = lp.activity(x)
        misses = (("rows", lp.row_names, _row_violations(lp, act, act)),
                  ("column bounds", lp.col_names,
                   np.maximum(lp.lower - x, x - lp.upper)))
    for what, names, miss in misses:
        bad = np.flatnonzero(miss > limit)
        bad = bad[np.argsort(-miss[bad], kind="stable")]
        if bad.size:
            parts.append(f"{bad.size} {what} beyond tolerance (worst "
                         f"{miss[bad[0]]:.3e}): {[names[i] for i in bad[:5]]}")
    if parts:
        found.append(f"violates {' and '.join(parts)}")
    return f"{subject} {' and '.join(found)}"


class _Factor(NamedTuple):
    """A basis and its factor, as a finished ``_Simplex`` leaves them: the
    basic columns in factor order, every column's status, ``binv0`` as its
    nonzeros (flat positions, values) and the update terms; the last three
    are None where the factor is not kept (``_Simplex.keep``). ``binv0`` is
    packed because it is mostly zeros (80-90% on the fixture's bases), and
    the packing is shared along a chain until a refactor."""

    basis: np.ndarray
    vstat: np.ndarray
    packed: tuple | None
    u: np.ndarray | None
    v: np.ndarray | None


class _Simplex:
    """Bounded-variable revised simplex over the working (scaled) problem.

    All variables have lower bound 0 in this space; each is nonbasic at
    0, nonbasic at its upper bound, or basic. ``optimize`` factors the
    basis, runs ``dual`` to primal feasibility, then ``run`` (phase 2).

    The basis inverse is kept in product form: a dense inverse ``binv0``
    from the last refactorization, less a low-rank correction built from
    one rank-1 term per pivot since then,

        B^-1 = binv0 - u[:k].T @ v[:k].

    A pivot appends one row to ``u`` and ``v`` and writes O(m) numbers;
    FTRAN and BTRAN each read ``binv0`` once plus the thin correction. An
    iteration reads O(k m + nnz) numbers, k the terms held: ``binv0`` only
    in the leaving row and in the columns where the entering column has
    nonzeros, and the terms in full. Up to about 1,000 rows, its fixed
    count of numpy calls takes more of its time than those reads. A
    refactorization folds the terms back into a fresh ``binv0``, built by
    ``_invert`` from the basis's singleton rounds and its dense kernel of
    k' rows in about O(nnz(B) m + k'^2 m + k'^3). It runs only on need: once
    ``MAX_UPDATES`` terms are held, where a pivot's two readings part
    (``_pivot``), and before ``dual`` declares infeasibility. ``keep``
    gives the factor a simplex ends with, which another simplex over a
    working matrix of the same shape can ``carry`` on from, and
    ``patch_row`` adds the term of a changed row.

    The working matrix exists only as its nonzeros ``(cols, rows, vals)``,
    sorted by column; the pivot row, FTRAN and refactorization read them
    directly, and refactorization and ``complete`` expand only the
    basis's kernel to a dense array.
    Memory is O(m^2 + nnz).

    ``run`` and ``dual`` keep the reduced costs ``d`` and pivot by ``_pivot``:
    with rho = e_r^T B^-1 and the pivot row alpha = rho A,

        d <- d - (d_q / alpha_q) alpha,   d_leaving = -d_q / alpha_q.

    ``run`` chooses the entering q first, by largest d_j^2 / wt_j over the
    devex column weights, which update as

        wt <- max(wt, (alpha / alpha_q)^2 wt_q),
        wt_leaving = max(wt_q / alpha_q^2, 1);

    ``dual`` chooses the leaving row r first, by dual devex row weights.
    ``d`` is recomputed from a BTRAN as each of them starts, after each
    refactorization, and before optimality is declared. The ratio test
    skips entries of magnitude at most 1e-7 x min(1, max |w|). Each
    iteration of either looks every column's direction up from its status
    once (``DIRECTION``), and the candidates, the pivot tolerance, the
    ratios and the bound flips all read it.
    """

    AT_LOWER, AT_UPPER, BASIC = 0, 1, 2
    # The most basis updates kept between refactorizations. The row count
    # m caps it: m updates already cost as much to apply, and to store, as
    # the dense factor they correct. With the pivot test in _pivot, this
    # cadence sets every refactor of a cold 96 h solve of the fixture past
    # its first: 4 at 200, 8 or 9 at 100 (demand seeds 0-3). The time that
    # saves was within the noise of three runs of those solves.
    MAX_UPDATES = 200
    # The direction in which a column moves off its bound, indexed by its
    # status plus 3 where it is fixed (``_fixed_codes``): +1 up from its
    # lower bound, -1 down from its upper one, 0 for a basic column and
    # for a fixed one, which has nowhere to move.
    DIRECTION = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0])

    def __init__(self, cols, rows, vals, b, ub, vstat, opts: SolveOptions):
        """Updates ``vstat`` in place; ``optimize`` or ``refactor`` factors
        before any other use."""
        self.cols, self.rows, self.vals = cols, rows, vals
        self.b = b.copy()
        self.ub = ub.copy()
        self.opts = opts
        self.m, self.n_all = b.size, ub.size
        self.iterations = 0
        self.vstat = vstat
        self.basis = np.flatnonzero(vstat == self.BASIC)
        # Column j owns entries indptr[j]:indptr[j + 1] of (rows, vals).
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(self.cols, minlength=self.n_all))])
        self.max_updates = min(self.MAX_UPDATES, self.m)
        self.u = np.empty((self.max_updates, self.m))
        self.v = np.empty((self.max_updates, self.m))
        self.k = 0
        # binv0 and, once ``keep`` has packed it, its nonzeros.
        self.binv0 = self.packed = None

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

    def _gather(self, cols: np.ndarray):
        """The nonzeros of working columns ``cols`` as (position in
        ``cols``, row, value), gathered from their column slices. Zeros an
        LP stores are left out: a peel must not take one for a pivot."""
        starts = self.indptr[cols]
        lens = self.indptr[cols + 1] - starts
        ends = np.cumsum(lens)
        take = np.arange(ends[-1] if cols.size else 0) + np.repeat(
            starts - ends + lens, lens)
        nz = self.vals[take] != 0.0
        return (np.repeat(np.arange(cols.size), lens)[nz], self.rows[take[nz]],
                self.vals[take[nz]])

    def _peel(self, pos, rows, n_pos):
        """Singleton rounds of the n_pos columns with nonzeros (pos, rows).

        Returns the row-singleton rounds in peel order, the kernel, and the
        column-singleton rounds in reverse peel order, each as (rows,
        positions), pivots paired. Column singletons are peeled until none
        is left, then row singletons; neither peel makes singletons of the
        other kind. A round takes every singleton at once, but of those
        that share a row (or a column) only the first, so no two of its
        pivots share a row or a column. The rows and columns that no pivot
        takes, emptied ones among them, are the kernel: for m columns it is
        square, and singular where any of its rows or columns is empty.
        """
        live = np.ones(pos.size, dtype=bool)
        row_left = np.ones(self.m, dtype=bool)
        col_left = np.ones(n_pos, dtype=bool)
        rounds = {True: [], False: []}
        for by_col in (True, False):
            key, other = (pos, rows) if by_col else (rows, pos)
            while True:
                count = np.bincount(key[live],
                                    minlength=n_pos if by_col else self.m)
                single = np.flatnonzero(live & (count == 1)[key])
                if not single.size:
                    break
                single = single[np.sort(np.unique(other[single],
                                                  return_index=True)[1])]
                rounds[by_col].append((rows[single], pos[single]))
                row_left[rows[single]] = False
                col_left[pos[single]] = False
                live &= row_left[rows] & col_left[pos]
        kernel = (np.flatnonzero(row_left), np.flatnonzero(col_left))
        return rounds[False], kernel, rounds[True][::-1]

    def complete(self, weight: np.ndarray):
        """Make the basic columns, which may be too few, too many or
        dependent, a basis of m independent ones (Suhl & Suhl 1990;
        Koberstein 2005): send the columns that add no rank to their lower
        bound, and make basic the logicals of the rows left uncovered,
        chosen so that the basis is nonsingular and of least total
        ``weight`` (one entry per row). A nonsingular basis of m columns is
        left as it is, and a singular one keeps its order, logicals in the
        demoted columns' places (the dual's row weights go by position);
        any other ends sorted.

        The pivots that ``_peel`` takes are independent, and a kernel row
        that no kernel column touches is uncovered. Of the kernel K left,
        r rows by c columns, a column adds no rank where its diagonal in a
        QR factorization of K is at most 1e-9 of the largest (and of 1),
        and none past the r-th does. Of K's rows, any r - c' may stay
        uncovered, c' the columns kept, whose rows of N, an orthonormal
        basis of the kept columns' left null space, are independent: the
        other rows are then nonsingular. They are chosen greedily, least
        weight first among the rows whose part of N outside the rows
        already chosen is at least 0.1 of the largest. One QR factorization
        of K finds N, in about the work of one refactorization; a second
        runs where columns are dropped.
        """
        m, nb = self.m, self.basis.size
        pos, rows, vals = self._gather(self.basis)
        _, (kernel_rows, kernel_cols), _ = self._peel(pos, rows, nb)
        uncovered = np.isin(np.arange(m), kernel_rows)
        live = uncovered[rows] & np.isin(pos, kernel_cols)
        kernel_rows = np.unique(rows[live])
        uncovered[kernel_rows] = False
        kern = np.zeros((kernel_rows.size, kernel_cols.size))
        kern[np.searchsorted(kernel_rows, rows[live]),
             np.searchsorted(kernel_cols, pos[live])] = vals[live]
        q, tri = np.linalg.qr(kern, mode="complete")
        diag = np.abs(np.diag(tri))
        kept = np.zeros(kernel_cols.size, dtype=bool)
        kept[:diag.size] = diag > 1e-9 * diag.max(initial=1.0)
        if not kept.all():
            self.vstat[self.basis[kernel_cols[~kept]]] = self.AT_LOWER
            q = np.linalg.qr(kern[:, kept], mode="complete")[0]
        left, w = q[:, np.count_nonzero(kept):], weight[kernel_rows]
        for _ in range(left.shape[1]):
            size = np.sqrt(np.einsum("ij,ij->i", left, left))
            ok = np.flatnonzero(size >= 0.1 * size.max())
            i = int(ok[w[ok].argmin()])
            uncovered[kernel_rows[i]] = True
            v = left[i] / size[i]
            left = left - np.outer(left @ v, v)
        self.vstat[self.n_all - m + np.flatnonzero(uncovered)] = self.BASIC
        basic = np.flatnonzero(self.vstat == self.BASIC)
        if nb == m:
            out = self.vstat[self.basis] != self.BASIC
            self.basis[out] = np.setdiff1d(basic, self.basis)
        else:
            self.basis = basic

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
        they are built in a compact array first. A round that touches no
        earlier row is its pivots' reciprocals alone: the slack basis of
        every cold start is one such round. Raises LinAlgError for a
        singular basis, from a zero pivot or from the kernel's solve; an
        empty row or column of the kernel is one.
        """
        m = self.m
        pos, rows, vals = self._gather(self.basis)
        front, kernel, back = self._peel(pos, rows, m)
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
            if deps.size:
                binv[p] = -(s @ binv[deps]) / piv[:, None]
            binv[p, r] = 1.0 / piv
        return binv

    def refactor(self):
        """Factor the basis afresh, completed first (``complete``) where it
        is singular, and recompute the basic values."""
        try:
            self.binv0 = self._invert()
        except np.linalg.LinAlgError:
            self.complete(np.zeros(self.m))
            self.binv0 = self._invert()
        self.k, self.packed = 0, None
        self._basic_values()

    def keep(self) -> _Factor:
        """The basis and factor this simplex ends with, for ``carry``.

        A basis may be held long after its solve, by a caller that keeps
        its solutions, so the factor is kept only while its update terms
        number at most m/4, which take half the memory of the dense factor.
        A simplex that carries a basis kept without its factor factors it
        afresh.
        """
        if self.k > self.m // 4:
            return _Factor(self.basis.copy(), self.vstat.copy(), None, None,
                           None)
        if self.packed is None:
            flat = np.flatnonzero(self.binv0)
            self.packed = (flat.astype(np.min_scalar_type(self.binv0.size)),
                           self.binv0.ravel()[flat])
        return _Factor(self.basis.copy(), self.vstat.copy(), self.packed,
                       self.u[:self.k].copy(), self.v[:self.k].copy())

    def carry(self, factor: _Factor):
        """Start from ``factor``, kept from a simplex over a working matrix
        of the same shape, whose statuses this one was given."""
        self.basis = factor.basis.copy()
        if factor.packed is None:
            return
        self.binv0 = np.zeros((self.m, self.m))
        self.binv0.ravel()[factor.packed[0]] = factor.packed[1]
        self.packed = factor.packed
        self.k = k = len(factor.u)
        self.u[:k] = factor.u
        self.v[:k] = factor.v

    def patch_row(self, p: int, delta: np.ndarray) -> bool:
        """Fold a change ``delta`` (over all working columns) of row p's
        entries into the factor, which must be that of the matrix before
        the change; False, changing nothing, where it cannot.

        With dB the change over the basic columns, the new basis is
        B + e_p dB^T, whose inverse is B^-1 less one rank-1 term (Sherman &
        Morrison 1950): u = B^-1 e_p and v = dB^T B^-1 / (1 + dB^T u). A
        denominator below 1e-3 of 1 + |dB^T u| leaves the new basis near
        singular and the term inexact, so it is refused, as is a term the
        update arrays have no room for.
        """
        db = delta[self.basis]
        if not db.any():
            return True
        y = self._btran(db)
        den = 1.0 + y[p]
        if (self.k + 1 >= self.max_updates
                or abs(den) < 1e-3 * (1.0 + abs(y[p]))):
            return False
        k = self.k
        self.u[k] = self._ftran_entries(np.array([p]), np.ones(1))
        self.v[k] = y / den
        self.k = k + 1
        return True

    def _apply(self, r: np.ndarray) -> np.ndarray:
        """B^-1 r."""
        k = self.k
        return self.binv0 @ r - (self.v[:k] @ r) @ self.u[:k]

    def _row_times(self, y: np.ndarray) -> np.ndarray:
        """y A over the working matrix, logicals included."""
        return np.bincount(self.cols, weights=y[self.rows] * self.vals,
                           minlength=self.n_all)

    def _basic_values(self):
        """xb = B^-1 (b - the columns at their upper bounds, there), and
        the basic columns' upper bounds ``ub_basic``, which ``_pivot``
        keeps from then on."""
        at_ub = np.flatnonzero(self.vstat == self.AT_UPPER)
        self.xb = self._apply(self.b - self._dense(at_ub) @ self.ub[at_ub])
        self.ub_basic = self.ub[self.basis]

    def refine(self, c: np.ndarray) -> np.ndarray:
        """Recompute the basic values from the factor as it stands, and
        return the duals c_B B^-1; each takes one step of iterative
        refinement, adding the solve of its own residual."""
        self._basic_values()
        x = self.point()
        self.xb += self._apply(self.b - np.bincount(
            self.rows, weights=self.vals * x[self.cols], minlength=self.m))
        cb = c[self.basis]
        y = self._btran(cb)
        return y + self._btran(cb - self._row_times(y)[self.basis])

    def _ftran(self, q: int) -> np.ndarray:
        """B^-1 times working column q."""
        lo, hi = self.indptr[q], self.indptr[q + 1]
        return self._ftran_entries(self.rows[lo:hi], self.vals[lo:hi])

    def _ftran_entries(self, rows: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """B^-1 times the m-vector that sums the entries (rows, vals)."""
        w = self.binv0[:, rows] @ vals
        k = self.k
        return w - (self.v[:k, rows] @ vals) @ self.u[:k]

    def _row(self, r: int):
        """rho, row r of B^-1, and the pivot row alpha = rho A."""
        rho = self.binv0[r] - self.u[:self.k, r] @ self.v[:self.k]
        return rho, self._row_times(rho)

    def _btran(self, cb: np.ndarray) -> np.ndarray:
        """cb times B^-1."""
        k = self.k
        return cb @ self.binv0 - (self.u[:k] @ cb) @ self.v[:k]

    def _pivot(self, r: int, q: int, w: np.ndarray, rho: np.ndarray,
               alpha: np.ndarray, to_upper: bool, x_q: float) -> bool:
        """Pivot column q in at row r, with value x_q, and the row's basic
        column out to its upper bound (``to_upper``) or its lower one, given
        w = B^-1 a_q, rho and alpha from before the pivot. Updates d, the
        statuses and the inverse; True if it then refactored, so that the
        caller re-prices.

        w_r and alpha_q are one number read two ways, from the column and
        from the row. Where they part by more than 1e-9 relative, roundoff
        in the updated factor has grown, so it is rebuilt.
        """
        d = self.d
        drifted = abs(w[r] - alpha[q]) > 1e-9 * abs(w[r])
        leaving = int(self.basis[r])
        theta = d[q] / w[r]
        # Basic reduced costs are zero by definition; what the update
        # leaves at the other basic columns is roundoff, which nothing
        # reads (their direction is 0).
        d -= theta * alpha
        d[q] = 0.0
        d[leaving] = -theta
        self.vstat[leaving] = self.AT_UPPER if to_upper else self.AT_LOWER
        self.basis[r] = q
        self.vstat[q] = self.BASIC
        self.xb[r] = x_q
        self.ub_basic[r] = self.ub[q]
        self._pivot_update(r, w, rho)
        if drifted or self.k >= self.max_updates:
            self.refactor()
            return True
        return False

    def _pivot_update(self, r: int, w: np.ndarray, rho: np.ndarray):
        """Record the pivot on row r with entering column B^-1 a_q = w and
        rho, row r of B^-1 before the pivot."""
        k = self.k
        self.v[k] = rho / w[r]
        self.u[k] = w
        self.u[k, r] -= 1.0
        self.k = k + 1

    def point(self) -> np.ndarray:
        x = np.where(self.vstat == self.AT_UPPER, self.ub, 0.0)
        x[self.basis] = self.xb
        return x

    def duals(self, c: np.ndarray) -> np.ndarray:
        return self._btran(c[self.basis])

    def _price(self, c: np.ndarray):
        """Reduced costs ``d = c - A^T y`` from a fresh BTRAN."""
        y = self._btran(c[self.basis])
        self.d = c - self._row_times(y)
        self.d[self.basis] = 0.0

    def _fixed_codes(self) -> np.ndarray:
        """3 where a column is fixed, else 0: added to the statuses, the
        key of each column's entry in a direction table."""
        return np.where(self.ub > 0.0, 0, 3).astype(np.int8)

    def run(self, c: np.ndarray, max_iterations: int) -> str:
        """Primal phase 2 from the current basis, which must be primal
        feasible: "optimal", "unbounded" or "iteration-limit"."""
        tol = self.opts.optimality_tol
        fixed = self._fixed_codes()
        # Devex reference weights, reset at the start of each run.
        self.wt = wt = np.ones(self.n_all)
        self._price(c)
        fresh = True

        while True:
            d = self.d
            dirs = self.DIRECTION.take(self.vstat + fixed)
            # A column prices in where its move off its bound lowers the
            # objective: d_j dirs_j < 0.
            score = np.where(d * dirs < -tol, d ** 2 / wt, -1.0)
            q = int(score.argmax()) if score.size else -1
            if q < 0 or score[q] < 0.0:
                if fresh:
                    return STATUS_OPTIMAL
                # Declare optimality only on reduced costs from a BTRAN.
                self._price(c)
                fresh = True
                continue
            if self.iterations >= max_iterations:
                return STATUS_ITERATION_LIMIT
            self.iterations += 1
            sigma = dirs[q]

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
            ratios[neg] = np.maximum(self.ub_basic[neg] - self.xb[neg],
                                     0.0) / -denom[neg]
            hits_upper[neg] = True

            t_flip = self.ub[q]
            t_row = float(ratios.min()) if self.m else np.inf
            t_star = min(t_flip, t_row)
            if not np.isfinite(t_star):
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
            r = int(idx[np.argmax(np.abs(denom[idx]))])
            rho, alpha = self._row(r)
            np.maximum(wt, (alpha / w[r]) ** 2 * wt[q], out=wt)
            wt[self.basis[r]] = max(wt[q] / w[r] ** 2, 1.0)
            fresh = False
            if self._pivot(r, q, w, rho, alpha, hits_upper[r],
                           t_star if sigma > 0.0 else self.ub[q] - t_star):
                self._price(c)
                fresh = True

    def _make_dual_feasible(self, c: np.ndarray) -> np.ndarray:
        """Price, then make the basis dual feasible: a nonbasic column whose
        reduced cost points the wrong way moves to its other bound, or,
        with no upper bound, has its cost shifted to make it 0 (Koberstein
        2005, ch. 4). Returns the costs, so shifted, for the dual alone."""
        self._price(c)
        tol = self.opts.optimality_tol
        up = ((self.vstat == self.AT_LOWER) & (self.ub > 0.0)
              & (self.d < -tol))
        shift = up & ~np.isfinite(self.ub)
        up &= ~shift
        down = (self.vstat == self.AT_UPPER) & (self.d > tol)
        if shift.any():
            c = c.copy()
            c[shift] -= self.d[shift]
            self.d[shift] = 0.0
        if up.any() or down.any():
            self.vstat[up] = self.AT_UPPER
            self.vstat[down] = self.AT_LOWER
            self._basic_values()
        return c

    def _ratio_test(self, alpha: np.ndarray, dirs: np.ndarray, d: np.ndarray,
                    ub: np.ndarray, miss: float):
        """The bound-flipping dual ratio test (Koberstein 2005, ch. 3) on
        the pivot row ``alpha`` of a basic variable that misses its bound
        by ``miss`` (< 0 below its lower bound, > 0 above its upper one):
        the entering column and the columns that flip to their other bound
        first, in ratio order, or None where no move of the nonbasic
        columns closes the miss.

        A candidate is a column whose move off its bound, in its direction
        ``dirs``, moves the basic variable toward its bound by more than
        1e-7 x min(1, max |alpha_j|) per unit, the maximum taken over the
        columns that can move. Its ratio |d_j| / |alpha_j| is how far the
        dual step goes before its reduced cost changes sign (a hair on the
        wrong side counts as 0). Passing a breakpoint flips its column,
        which closes |alpha_j| ub_j of the miss; the column at the first
        breakpoint where what is left is within the feasibility tolerance
        enters, or of those tied with it to 1e-12, the one of largest
        |alpha_j|, the earliest by ratio, then by index. Where the first
        breakpoint alone closes the miss, the ties are found without
        sorting.
        """
        # The hot loop calls array methods, not their np.* wrappers, which
        # cost a Python-level call each.
        ftol = self.opts.feasibility_tol
        ad = alpha * dirs
        reach = np.abs(ad)
        piv_tol = 1e-7 * min(1.0, float(reach.max(initial=0.0)))
        cand = (ad < -piv_tol if miss < 0.0 else ad > piv_tol).nonzero()[0]
        if not cand.size:
            return None
        size = reach[cand]
        ratio = np.maximum(d[cand] * dirs[cand], 0.0) / size
        violation = abs(miss)
        first = ratio.argmin()
        if violation - size[first] * ub[cand[first]] <= ftol:
            tied = (ratio <= ratio[first] + 1e-12).nonzero()[0]
            if tied.size > 1:
                top = tied[size[tied] == size[tied].max()]
                first = top[ratio[top].argmin()]
            return int(cand[first]), cand[:0]
        order = ratio.argsort(kind="stable")
        cand, ratio, size = cand[order], ratio[order], size[order]
        # What is left of the violation after passing each breakpoint;
        # within the tolerance is none, as flips that exactly close it can
        # leave roundoff.
        left = violation - (size * ub[cand]).cumsum()
        if left[-1] > ftol:
            return None
        stop = int((left <= ftol).argmax())
        tied = stop + (ratio[stop:] <= ratio[stop] + 1e-12).nonzero()[0]
        return int(cand[tied[size[tied].argmax()]]), cand[:stop]

    def _flip(self, flips: np.ndarray, steps: np.ndarray):
        """Move nonbasic columns ``flips`` to their other bound, each by its
        ``steps`` entry (its upper bound, signed), and the basic values
        with them by one FTRAN of the sum of their columns."""
        spans = zip(self.indptr[flips].tolist(),
                    self.indptr[flips + 1].tolist(), steps.tolist())
        rows, vals = zip(*((self.rows[lo:hi], self.vals[lo:hi] * step)
                           for lo, hi, step in spans))
        self.xb -= self._ftran_entries(np.concatenate(rows),
                                       np.concatenate(vals))
        self.vstat[flips] = np.where(steps > 0.0, self.AT_UPPER,
                                     self.AT_LOWER)

    def dual(self, c: np.ndarray, max_iterations: int) -> str:
        """Bounded dual simplex from the current basis, to a primal
        feasible one; "optimal" then means only that.

        The dual runs on costs that ``_make_dual_feasible`` shifts where a
        bound move cannot make the basis dual feasible, so it only ever
        restores primal feasibility; ``run`` then optimizes the true costs.
        The leaving row is the basic variable of largest squared bound
        violation over its dual devex weight. The ratio test flips bounds
        (``_ratio_test``): it passes the breakpoints of boxed columns in
        ratio order, moving each to its other bound, while the leaving
        variable stays infeasible, and the column at the breakpoint where
        it would not enters. "infeasible" means that no move of the
        nonbasic columns brings the leaving variable to its bound, read
        off a fresh factor (one with update terms is rebuilt first);
        ``ray`` is then row r of B^-1, signed so that ray b exceeds every
        value ray A x takes within the bounds. The row weights update as
        the column weights do in ``run``, with w in place of the pivot row.
        """
        ftol = self.opts.feasibility_tol
        fixed = self._fixed_codes()
        # Dual devex reference weights of the rows, reset at each start.
        self.wr = wr = np.ones(self.m)
        c = self._make_dual_feasible(c)
        while True:
            xb, ub_basic = self.xb, self.ub_basic
            violation = np.maximum(-xb, xb - ub_basic)
            score = np.where(violation > ftol, violation ** 2 / wr, -1.0)
            r = int(score.argmax()) if self.m else -1
            if r < 0 or score[r] < 0.0:
                return STATUS_OPTIMAL
            if self.iterations >= max_iterations:
                return STATUS_ITERATION_LIMIT
            self.iterations += 1
            # The bound x_Br leaves at, and its signed miss of it.
            bound = 0.0 if xb[r] < 0.0 else ub_basic[r]
            miss = xb[r] - bound
            rho, alpha = self._row(r)
            dirs = self.DIRECTION.take(self.vstat + fixed)
            move = self._ratio_test(alpha, dirs, self.d, self.ub, miss)
            if move is None:
                if self.k:
                    # The violation may be the updated factor's roundoff:
                    # infeasibility is declared from a fresh one only.
                    self.refactor()
                    c = self._make_dual_feasible(c)
                    continue
                self.ray = rho if miss > 0.0 else -rho
                return STATUS_INFEASIBLE
            q, flips = move
            if flips.size:
                self._flip(flips, self.ub[flips] * dirs[flips])
            w = self._ftran(q)
            theta_p = (self.xb[r] - bound) / w[r]
            x_q = 0.0 if dirs[q] > 0.0 else self.ub[q]
            self.xb -= theta_p * w
            np.maximum(wr, (w / w[r]) ** 2 * wr[r], out=wr)
            wr[r] = max(wr[r] / w[r] ** 2, 1.0)
            if self._pivot(r, q, w, rho, alpha, miss > 0.0, x_q + theta_p):
                c = self._make_dual_feasible(c)

    def optimize(self, c: np.ndarray, max_iterations: int) -> str:
        """Optimize with costs c from the statuses in ``vstat``: factor the
        basis unless a factor was carried, run ``dual`` to primal
        feasibility, then primal phase 2 (``run``) on the true costs, which
        declares optimality only on fresh reduced costs. A singular basis
        is completed as ``refactor`` does."""
        if self.binv0 is None:
            self.refactor()
        else:
            self._basic_values()
        status = self.dual(c, max_iterations)
        if status != STATUS_OPTIMAL:
            return status
        return self.run(c, max_iterations)


def _no_solution(status: str, iterations: int, message: str) -> Solution:
    return Solution(status=status, x=None, objective=None, slacks=None,
                    duals=None, iterations=iterations, max_violation=None,
                    duality_gap=None, message=message)


def _tolerance(lp: LPInstance, opts: SolveOptions) -> float:
    """The row miss a solve forgives: feasibility_tol x max(1, max |rhs|)."""
    return opts.feasibility_tol * max(
        1.0, float(np.max(np.abs(lp.rhs), initial=0.0)))


def _signed(lp: LPInstance, y: np.ndarray) -> np.ndarray:
    """Row multipliers y with each entry of the wrong sign for its row set
    to 0, which leaves y_i >= 0 on >= rows and y_i <= 0 on <= rows."""
    return np.where(lp.sense == LE, np.minimum(y, 0.0),
                    np.where(lp.sense == GE, np.maximum(y, 0.0), y))


def _dual_bound(lp: LPInstance, y: np.ndarray, c=0.0) -> float:
    """L(y) = y b + sum_j min over [l_j, u_j] of (c - y A)_j x_j, from the
    LP's arrays alone: a lower bound on c x over the feasible points, for
    any row multipliers y (Neumaier & Shcherbina, "Safe bounds in linear
    and mixed-integer linear programming", Math. Prog. 99, 2004).

    y is taken ``_signed``, so y (A x - b) >= 0 at a feasible x, and
    c x >= y b + (c - y A) x >= L(y), which is -inf where a reduced cost
    points at an infinite bound. A (c - y A)_j of at most 1e-9 of |c_j| +
    sum_i |y_i a_ij| is roundoff and counts as 0: the bound is then one
    for the LP with that column moved by 1e-9 relative at most.

    With c = 0 it is the Farkas check: at a point whose largest row
    violation is v, sum_i y_i (a_i x - b_i) >= -|y|_1 v, and the column
    bounds hold that sum to at most -L(y). So v >= L(y) / |y|_1: where
    that is positive, y proves that the LP has no feasible point.
    """
    y = _signed(lp, y)
    terms = lp.data * y[lp.row_of]
    d = c - np.bincount(lp.indices, weights=terms, minlength=lp.n_cols)
    size = np.abs(c) + np.bincount(lp.indices, weights=np.abs(terms),
                                   minlength=lp.n_cols)
    moves = np.abs(d) > 1e-9 * size
    low = np.where(d > 0.0, lp.lower, lp.upper)[moves]
    return float(y @ lp.rhs) + float(d[moves] @ low)


def _row_check(lp: LPInstance, tol: float) -> np.ndarray | None:
    """The row-activity check (Brearley, Mitra & Williams 1975), the
    per-row form of the Farkas check: the unit multiplier, signed as a
    certificate, of the row that misses its right-hand side by the most
    at every point within the column bounds, where that is more than tol;
    else None. O(nnz), on the LP's own arrays."""
    with np.errstate(invalid="ignore"):
        # Each entry at its column's two bounds; an entry of 0 at an
        # infinite bound is nan, which fmin and fmax pass over.
        at_lower = lp.data * lp.lower[lp.indices]
        at_upper = lp.data * lp.upper[lp.indices]
    low = np.bincount(lp.row_of, weights=np.fmin(at_lower, at_upper),
                      minlength=lp.n_rows)
    high = np.bincount(lp.row_of, weights=np.fmax(at_lower, at_upper),
                       minlength=lp.n_rows)
    miss = _row_violations(lp, low, high)
    if not (miss > tol).any():
        return None
    i = int(miss.argmax())
    y = np.zeros(lp.n_rows)
    y[i] = 1.0 if lp.rhs[i] - high[i] >= low[i] - lp.rhs[i] else -1.0
    return y


def _infeasible(lp: LPInstance, y: np.ndarray, tol: float,
                iterations: int) -> Solution:
    """"infeasible" where the row multipliers y prove, by ``_dual_bound``
    with no costs, that every point within the column bounds violates a
    row by more than tol; else "numerical". Either message names up to 5
    rows of y, largest multiplier first."""
    rows_named = [lp.row_names[i] for i in np.argsort(
        -np.abs(y), kind="stable")[:5] if y[i] != 0.0]
    y = _signed(lp, y)
    bound = _dual_bound(lp, y) / max(float(np.abs(y).sum()),
                                     np.finfo(float).tiny)
    if bound > tol:
        return _no_solution(
            STATUS_INFEASIBLE, iterations,
            f"no feasible point: every point within the column bounds "
            f"violates a row by {bound:.3e} or more, by a combination of "
            f"rows led by {rows_named}")
    return _no_solution(
        STATUS_NUMERICAL, iterations,
        f"dual simplex claims no feasible point, but its certificate shows "
        f"a row violation of only {bound:.3e}; rows led by {rows_named}")


def _judge(lp: LPInstance, x: np.ndarray, duals: np.ndarray | None = None,
           iterations: int = 0) -> Solution:
    """The solution at point x, "optimal" until its caller judges its
    ``max_violation``: the objective, and from one row activity the
    slacks and the worst violation of a row or a column bound (infinite
    where x is not finite), and, given duals, the gap they certify."""
    act = lp.activity(x)
    with np.errstate(invalid="ignore"):  # 0 * inf at a non-finite point
        primal = float(lp.objective @ x)
    violation, gap = math.inf, None
    if np.isfinite(x).all():
        violation = max(
            float(np.max(_row_violations(lp, act, act), initial=0.0)),
            float(np.max(lp.lower - x, initial=0.0)),
            float(np.max(x - lp.upper, initial=0.0)))
    if duals is not None:
        gap = (primal - _dual_bound(lp, duals, lp.objective)) / max(
            1.0, abs(primal))
    return Solution(
        status=STATUS_OPTIMAL, x=x, objective=primal + lp.offset,
        slacks=np.where(lp.sense == LE, lp.rhs - act, act - lp.rhs),
        duals=duals, iterations=iterations, max_violation=violation,
        duality_gap=gap)


def _equilibrate(lp: LPInstance) -> tuple[np.ndarray, np.ndarray]:
    """Row and column scales by two passes of geometric-mean
    equilibration: capital-cost and hourly-energy coefficients differ by
    orders of magnitude otherwise."""
    row_of, col_of = lp.row_of, lp.indices
    row_scale = np.ones(lp.n_rows)
    col_scale = np.ones(lp.n_cols)
    mag = np.abs(lp.data)
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
    return row_scale, col_scale


def _positions(names: tuple, of: tuple) -> np.ndarray:
    """The position in ``names`` of each name of ``of``, -1 where absent."""
    where = {name: i for i, name in enumerate(names)}
    return np.array([where.get(name, -1) for name in of], dtype=np.int64)


class _Working:
    """The working problem of one LP and the map back to the LP's units
    (``conclude``).

    Lower bounds are shifted to zero, rows and columns equilibrated, and
    one logical column per row appended (+1 on [0, inf) for <=, -1 on
    [0, inf) for >=, +1 fixed at 0 for =). The working columns are sorted
    by column: structural, then logical. An optimal solve returns its
    working problem as its ``Basis``, with ``factor`` the statuses and
    factor found and ``duals`` the solution's, from which ``follow`` starts
    the next LP of a chain; it then keeps only what ``follow`` reads, not
    the LP. It holds the
    factor's memory (about 0.1 MB at 48 h) for as long as it is kept.
    """

    def __init__(self, lp: LPInstance, opts: SolveOptions,
                 like: _Working | None = None):
        """The working problem of ``lp``, equilibrated afresh or with the
        scales (and so the pattern arrays) of ``like``, a working problem
        of an LP with the same shape and sparsity pattern."""
        self.lp, self.opts = lp, opts
        m, n = lp.n_rows, lp.n_cols
        # What follow compares a next LP with, shared along a chain.
        self.pattern = like.pattern if like else (
            lp.row_names, lp.col_names, lp.sense, lp.indptr, lp.indices)
        self.n_all = n + m
        self.tol = _tolerance(lp, opts)
        if like is None:
            self.row_scale, self.col_scale = _equilibrate(lp)
            self.by_col = np.argsort(lp.indices, kind="stable")
            self.cols = np.concatenate([lp.indices[self.by_col],
                                        n + np.arange(m)])
            self.rows = np.concatenate([lp.row_of[self.by_col],
                                        np.arange(m)])
        else:
            self.row_scale, self.col_scale = like.row_scale, like.col_scale
            self.by_col, self.cols = like.by_col, like.cols
            self.rows = like.rows
        row_scale, col_scale = self.row_scale, self.col_scale
        self.vals = np.concatenate([
            (lp.data * row_scale[lp.row_of]
             * col_scale[lp.indices])[self.by_col],
            np.where(lp.sense == GE, -1.0, 1.0)])
        self.b = (lp.rhs - lp.activity(lp.lower)) * row_scale
        self.ub = np.concatenate([(lp.upper - lp.lower) / col_scale,
                                  np.where(lp.sense == EQ, 0.0, np.inf)])
        self.c = np.zeros(self.n_all)
        self.c[:n] = lp.objective * col_scale
        self.max_iterations = opts.max_iterations
        if self.max_iterations is None:
            self.max_iterations = 50 * (m + self.n_all) + 200
        self.factor = None

    def simplex(self, vstat: np.ndarray | None = None) -> _Simplex:
        """A simplex on this problem from ``vstat``, or the slack basis."""
        if vstat is None:
            vstat = np.full(self.n_all, _Simplex.AT_LOWER, dtype=np.int8)
            vstat[self.lp.n_cols:] = _Simplex.BASIC
        return _Simplex(self.cols, self.rows, self.vals, self.b, self.ub,
                        vstat, self.opts)

    def follow(self, lp: LPInstance, opts: SolveOptions, fold=None):
        """The working problem of ``lp`` and a simplex on it from this
        problem's optimal basis.

        Where ``lp`` has this LP's shape, names, senses and sparsity pattern
        and differs in at most one row's entries, the simplex keeps these
        scales and goes on from a copy of the factor, with the change to
        that row folded in (``_Simplex.patch_row``). Right-hand sides,
        bounds and costs may all differ. On any other LP, or where the
        patch is refused, the statuses are mapped onto a fresh working
        problem, whose basis is factored afresh: through ``fold``, the
        ``period_map`` of ``lp`` onto this LP, or else by row and column
        name, where a row this problem lacks gets a basic logical and a
        column it lacks goes to its lower bound. A column at an upper bound
        ``lp`` does not give it goes to its lower bound, and a logical that
        is not basic is at its lower bound. Where other than m are then
        basic, ``_Simplex.complete`` makes them m independent columns,
        weighing each row by this solve's dual there; a basis of m that is
        singular is completed where its factorization fails.
        """
        row_names, col_names, sense, indptr, indices = self.pattern
        if (lp.row_names == row_names and lp.col_names == col_names
                and np.array_equal(lp.sense, sense)
                and np.array_equal(lp.indptr, indptr)
                and np.array_equal(lp.indices, indices)):
            work = _Working(lp, opts, like=self)
            change = np.flatnonzero(work.vals != self.vals)
            moved = np.unique(work.rows[change])
            if moved.size <= 1:
                vstat = self.factor.vstat.copy()
                vstat[(vstat == _Simplex.AT_UPPER)
                      & ~np.isfinite(work.ub)] = _Simplex.AT_LOWER
                sx = work.simplex(vstat)
                sx.carry(self.factor)
                delta = np.zeros(work.n_all)
                delta[work.cols[change]] = (work.vals[change]
                                            - self.vals[change])
                if (not moved.size or sx.binv0 is None
                        or sx.patch_row(int(moved[0]), delta)):
                    return work, sx
        work = _Working(lp, opts)
        if fold is None:
            fold = (_positions(row_names, lp.row_names),
                    _positions(col_names, lp.col_names))
        row_map, col_map = fold
        status = self.factor.vstat
        n = lp.n_cols
        vstat = np.empty(work.n_all, dtype=np.int8)
        vstat[:n] = np.where(col_map >= 0, status[col_map], _Simplex.AT_LOWER)
        vstat[n:] = np.where(row_map >= 0, status[len(col_names) + row_map],
                             _Simplex.BASIC)
        upper = vstat == _Simplex.AT_UPPER
        upper[:n] &= ~np.isfinite(work.ub[:n])
        vstat[upper] = _Simplex.AT_LOWER
        sx = work.simplex(vstat)
        if sx.basis.size != lp.n_rows:
            sx.complete(np.abs(np.where(row_map >= 0, self.duals[row_map],
                                        0.0)) / work.row_scale)
        return work, sx

    def conclude(self, sx: _Simplex, status: str) -> Solution:
        """The solution of a finished run: an optimal basis's point,
        checked against the rows, or the certificate of a failure."""
        lp, tol = self.lp, self.tol
        if status == STATUS_ITERATION_LIMIT:
            return _no_solution(status, sx.iterations,
                                f"iteration limit {self.max_iterations} hit")
        if status == STATUS_UNBOUNDED:
            return _no_solution(
                status, sx.iterations,
                "objective improves without bound over the feasible set")
        if status == STATUS_INFEASIBLE:
            # Ray entries at roundoff level against its largest, in the
            # equilibrated rows, are dropped: near 1e-14 they can price a
            # column with no upper bound (a ramp excursion) to a bound of
            # -inf. Entries of 1e-12 to 1e-9 can be real: a cut at 1e-9
            # failed three proofs of the fixture at 96 h with little wind.
            ray = sx.ray
            y = np.where(np.abs(ray) > 1e-12 * np.abs(ray).max(), ray,
                         0.0) * self.row_scale
            return _infeasible(lp, y, tol, sx.iterations)
        n = lp.n_cols

        def point(duals):
            x = lp.lower + sx.point()[:n] * self.col_scale
            return _judge(lp, np.clip(x, lp.lower, lp.upper),
                          duals * self.row_scale, sx.iterations)

        # A fresh factor is the one a refactor would build, so only the
        # basic values are recomputed. An updated one gives a refined
        # point, and is rebuilt only where that point misses the rows.
        if sx.k:
            sol = point(sx.refine(self.c))
            if sol.max_violation > 10.0 * tol:
                sx.refactor()
                sol = point(sx.duals(self.c))
        else:
            sx._basic_values()
            sol = point(sx.duals(self.c))
        if sol.max_violation > 10.0 * tol:
            return _no_solution(
                STATUS_NUMERICAL, sx.iterations, _violation_message(
                    lp, sol.x, 10.0 * tol, "built-in point"))
        # The basis carries this problem on: its pattern, scales and
        # factor, not the LP nor the arrays that only a solve reads.
        self.factor, self.duals = sx.keep(), sol.duals
        self.lp = self.b = self.ub = self.c = None
        return replace(sol, basis=self)


# The type of ``Solution.basis``: an optimal solve's working problem, opaque
# outside this module, which ``solve`` starts another LP from.
Basis = _Working


def solve(lp: LPInstance, options: SolveOptions | None = None,
          start: Basis | LPInstance | None = None) -> Solution:
    """Minimize the LPInstance with the built-in simplex, from the slack
    basis or from ``start``: an optimal basis of this LP or of one sharing
    names with it (say, a neighbouring sweep cell), or a period LP, the LP
    of this one's first hours (``formulation.period_map``).

    A start is tried once (``_Working.follow``). On an LP with the start's
    shape, names, senses and sparsity pattern, differing only in
    right-hand sides, bounds, costs and at most one row's entries, it goes
    on from a copy of the start's factor with its scales: neither
    equilibration nor factorization runs. On any other LP its statuses are
    mapped by name onto a fresh working problem. A period LP is solved
    first, cold, and its optimal statuses folded onto this LP by its hours;
    the rows the folded basis leaves uncovered, since a column such as a
    capacity appears once here and not once per period, get basic
    logicals. Whatever a start maps to, short, too full or singular, is
    made a basis of m independent columns (``_Simplex.complete``) and
    solved from. Only a start whose solve ends "numerical", and a period
    that does not solve to optimality or does not fold, gives way to the
    slack basis. The iterations reported are those of every try: a
    period's, the start's and the slack basis's.

    With tol = feasibility_tol x max(1, max |rhs|), a point that misses the
    original rows or bounds by more than 10 tol is never reported optimal
    but "numerical", naming the violated rows worst first. Before any start
    is tried, the row-activity check (``_row_check``) ends a solve
    "infeasible" at 0 iterations where one row alone misses by more than
    tol at every point within the column bounds. "infeasible" needs a
    certificate, that row's unit multiplier or the dual's ray, to prove, by
    ``_dual_bound``, a row violation above tol at every point within the
    bounds; one that does not is "numerical". Either message names up to 5
    rows of the certificate, largest multiplier first. An optimal solution
    carries its certified ``duality_gap`` and its ``basis``, and with it
    the factor for the next solve of a chain.
    """
    opts = options or SolveOptions()
    tol = _tolerance(lp, opts)
    y = _row_check(lp, tol)
    if y is not None:
        return _infeasible(lp, y, tol, 0)
    spent, fold = 0, None
    if isinstance(start, LPInstance):
        fold = period_map(lp, start)
        if fold is None:
            start = None
        else:
            period = solve(start, opts)
            spent, start = period.iterations, period.basis
    if start is not None:
        work, sx = start.follow(lp, opts, fold)
        sol = work.conclude(sx, sx.optimize(work.c, work.max_iterations))
        if sol.status != STATUS_NUMERICAL:
            return replace(sol, iterations=sol.iterations + spent)
        spent += sx.iterations
    work = _Working(lp, opts)
    sx = work.simplex()
    sol = work.conclude(sx, sx.optimize(work.c, work.max_iterations))
    return replace(sol, iterations=sol.iterations + spent)


_LINES_CHUNK = 1 << 16
# Characters that import_solution reads and parses at a time: about 4,700
# lines of a year-scale solution file.
_SOLUTION_CHARS = 1 << 17
_MPS_NAME = "C(?:0|[1-9][0-9]*)"
_MPS_NAMES = re.compile(f"{_MPS_NAME}(?:\n{_MPS_NAME})*")


def float_text(values, end: str) -> tuple[list[str], np.ndarray]:
    """``(texts, index)`` with ``texts[index[i]] == repr(values[i]) + end``
    for each entry of ``values``, flattened.

    The repr is taken once per distinct float64 bit pattern, not per
    distinct value: 0.0 and -0.0 are equal but print differently.
    """
    bits, index = np.unique(
        np.ascontiguousarray(values, dtype=np.float64).ravel().view(np.int64),
        return_inverse=True)
    return [repr(v) + end for v in bits.view(np.float64).tolist()], index


def _numbered(head: str, numbers: np.ndarray, tail: str) -> list[str]:
    """``[f"{head}{i:<7}{tail}" for i in numbers]``, built as one array of
    characters, a place at a time, while every number fits its 7 places."""
    if numbers.size and not 0 <= numbers.min() <= numbers.max() < 10 ** 7:
        return [f"{head}{i:<7}{tail}" for i in numbers.tolist()]
    width = len(head) + 7 + len(tail)
    codes = np.empty((numbers.size, width), dtype=np.uint32)
    codes[:] = np.frombuffer((head + " " * 7 + tail).encode("utf-32-le"),
                             dtype=np.uint32)
    tens = 10 ** np.arange(7)
    length = np.maximum(np.searchsorted(tens, numbers, side="right"), 1)
    for place in range(7):
        power = length - 1 - place
        shown = power >= 0
        codes[shown, len(head) + place] = (
            numbers[shown] // tens[power[shown]] % 10 + ord("0"))
    return codes.view(f"U{width}").ravel().tolist()


def _write_chunk(buf, fields) -> int:
    """Write line k as ``texts[index[k]]`` of each ``(texts, index)``
    field in turn and return the number of characters written.

    The lines are gathered into one (lines, fields) array of texts and
    joined, so no string is built per line.
    """
    parts = np.empty((fields[0][1].size, len(fields)), dtype=object)
    for k, (texts, index) in enumerate(fields):
        parts[:, k] = np.asarray(texts, dtype=object)[index]
    text = "".join(parts.ravel().tolist())
    buf.write(text)
    return len(text)


def _write_chunks(buf, n_lines: int, fields) -> int:
    """Write lines 0..n_lines-1 ``_LINES_CHUNK`` at a time, where
    ``fields(start, stop)`` gives the _write_chunk fields of lines
    start..stop-1, and return the number of characters written.

    No write holds more than a chunk, and each chunk's texts live only
    inside its _write_chunk call, so they are freed before the next
    chunk is built.
    """
    return sum(_write_chunk(buf, fields(start,
                                        min(start + _LINES_CHUNK, n_lines)))
               for start in range(0, n_lines, _LINES_CHUNK))


def write_lines(buf, *fields) -> int:
    """Write line i as ``texts[index[i]]`` of each ``(texts, index)``
    field in turn, a chunk at a time, and return the number of characters
    written."""
    fields = [(np.array(texts, dtype=object), np.asarray(index))
              for texts, index in fields]
    return _write_chunks(buf, fields[0][1].size, lambda start, stop: [
        (texts, index[start:stop]) for texts, index in fields])


def _owners(ends: np.ndarray, sizes: np.ndarray, start: int, stop: int):
    """``(owner, rank)`` of lines start..stop-1, where owner k holds the
    ``sizes[k]`` lines before line ``ends[k]``."""
    line = np.arange(start, stop)
    owner = np.searchsorted(ends, line, side="right")
    return owner, line - ends[owner] + sizes[owner]


def _column_field(cols: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The column field ``C<j>`` of lines naming ``cols``, ascending."""
    return (_numbered("    C", np.arange(cols[0], cols[-1] + 1), "  "),
            cols - cols[0])


def _row_field(rows: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The row field of lines naming ``rows``: 0 is the objective row
    ``COST`` and i + 1 is row i's ``R<i>``."""
    numbers, index = np.unique(rows, return_inverse=True)
    cost = [f"{'COST':<8}  "] if numbers.size and numbers[0] == 0 else []
    return cost + _numbered("R", numbers[len(cost):] - 1, "  "), index


def write_mps(lp: LPInstance, out) -> int:
    """Write the LP as fixed-format MPS text to the text stream ``out``
    and return the number of characters written.

    Column j is named ``C<j>`` and row i ``R<i>``, so the names are unique
    and fit the 8-character name fields whatever the LP calls its rows and
    columns; ``COST`` is the objective row, ``RHS`` and ``BND`` the RHS and
    bound sets. The constant objective offset has no MPS representation,
    so it is recorded in a leading comment and re-added by
    import_solution. Coefficient values are written at full precision even
    where that overflows the historical 12-character value field;
    tokenizing readers (including every modern solver) accept this.

    Each section is rendered ``_LINES_CHUNK`` lines at a time, names
    included, and no write holds more lines than that, so what the writer
    holds beyond the LP's own arrays is one chunk.
    """
    def put(text: str) -> int:
        out.write(text)
        return len(text)

    written = sum(map(put, (f"* OFFSET {lp.offset!r}\n",
                            "NAME          GRIDPLAN\n", "ROWS\n",
                            " N  COST\n")))
    sense = (lp.sense == GE) + 2 * (lp.sense == EQ)
    written += _write_chunks(out, lp.n_rows, lambda start, stop: (
        ([" L  ", " G  ", " E  "], sense[start:stop]),
        (_numbered("R", np.arange(start, stop), "\n"),
         np.arange(stop - start))))

    written += put("COLUMNS\n")
    # Each column's objective line (declaring it even when the cost is 0),
    # then its entries with rows ascending: the CSR entries in one stable
    # sort by column, and each chunk of lines mapped to its columns.
    order = np.argsort(lp.indices, kind="stable")
    counts = np.bincount(lp.indices, minlength=lp.n_cols)
    col_start = np.cumsum(counts) - counts  # a column's first entry in order
    col_lines = counts + 1
    col_ends = np.cumsum(col_lines)

    def columns(start, stop):
        col, rank = _owners(col_ends, col_lines, start, stop)
        entries = rank > 0
        entry = order[col_start[col[entries]] + rank[entries] - 1]
        row = np.zeros(col.size, dtype=np.int64)  # 0: the objective row
        row[entries] = lp.row_of[entry] + 1
        value = lp.objective[col]
        value[entries] = lp.data[entry]
        return _column_field(col), _row_field(row), float_text(value, "\n")

    written += _write_chunks(out, int(col_lines.sum()), columns)

    written += put("RHS\n")
    nonzero = np.flatnonzero(lp.rhs != 0.0)
    written += _write_chunks(out, nonzero.size, lambda start, stop: (
        ([f"    {'RHS':<8}  "], np.zeros(stop - start, dtype=np.int64)),
        _row_field(nonzero[start:stop] + 1),
        float_text(lp.rhs[nonzero[start:stop]], "\n")))

    written += put("BOUNDS\n")
    # A fixed column gets one FX line; any other its LO line (if the lower
    # bound is not 0) and then its UP line (if the upper is finite).
    lower, upper = lp.lower, lp.upper
    fixed = lower == upper
    low = ~fixed & (lower != 0.0)
    bound_lines = fixed.astype(np.int64) + low + (~fixed & np.isfinite(upper))
    bound_ends = np.cumsum(bound_lines)

    def bounds(start, stop):
        col, rank = _owners(bound_ends, bound_lines, start, stop)
        kind = np.where(fixed[col], 0, np.where(low[col] & (rank == 0), 1, 2))
        value = np.where(kind == 2, upper[col], lower[col])
        return (([" FX BND   ", " LO BND   ", " UP BND   "], kind),
                _column_field(col), float_text(value, "\n"))

    written += _write_chunks(out, int(bound_lines.sum()), bounds)
    return written + put("ENDATA\n")


def export_mps(lp: LPInstance) -> str:
    """The LP's MPS text as one string: write_mps into a StringIO."""
    buf = io.StringIO()
    write_mps(lp, buf)
    return buf.getvalue()


def _raise_number_fault(values: list[str], line_numbers) -> None:
    """Raise LPError naming the line of the first of ``values`` that is
    not a number: float()'s syntax, in ASCII and without ``_``."""
    for value, line_no in zip(values, line_numbers):
        try:
            if not value.isascii() or "_" in value:
                raise ValueError(
                    f"numbers must be ASCII, without '_': {value!r}")
            float(value)
        except ValueError as exc:
            raise LPError(f"solution line {line_no}: {exc}") from None


def _parse_block(lines: list[str], first: int) -> tuple[list, np.ndarray]:
    """``(names, values)`` of a block of NAME VALUE lines, each with its
    line end, the first of which is line ``first`` of its source.

    A line starting with ``*`` is a comment and a line of whitespace is
    blank; every other line must hold exactly two tokens, a name and a
    number. Tokens are counted per line, and the block's data lines are
    then tokenized as a whole.
    """
    counts = np.array([len(line.split()) for line in lines])
    data = (counts > 0) & ~np.array([line.startswith("*") for line in lines])
    bad = np.flatnonzero(data & (counts != 2))
    if bad.size:
        line = lines[bad[0]].splitlines()[0]
        raise LPError(f"cannot parse solution line {line!r}")
    tokens = "".join(itertools.compress(lines, data)).split()
    names, values = tokens[0::2], tokens[1::2]
    joined = "".join(values)
    if joined.isascii() and "_" not in joined:
        try:
            return names, np.fromiter(map(float, values), np.float64,
                                      len(values))
        except ValueError:
            pass
    _raise_number_fault(values, first + np.flatnonzero(data))


def _solution_blocks(source):
    """``(names, values)`` of each block of a solution source.

    A mapping is one block. A stream, or text read as one, is taken
    ``_SOLUTION_CHARS`` characters at a time and split into lines where
    str.splitlines splits them, whatever line ends the stream translates;
    a block is the whole lines of what has been taken.
    """
    if isinstance(source, Mapping):
        yield list(source), np.array(list(source.values()), dtype=float)
        return
    if not hasattr(source, "read"):
        source = io.StringIO(str(source))
    pieces = iter(lambda: source.read(_SOLUTION_CHARS), "")
    first, rest = 1, ""
    for piece in pieces:
        lines = (rest + piece).splitlines(keepends=True)
        rest = lines.pop()  # it may go on in the next piece
        if lines:
            yield _parse_block(lines, first)
            first += len(lines)
    if rest:
        yield _parse_block([rest], first)


def _mps_columns(names: list, n: int) -> np.ndarray:
    """Positions of the columns that ``names`` give by their MPS names
    ``C<j>``, read from the names joined in one pass; LPError for the
    first that names no column."""
    try:
        text = "\n".join(names)
    except TypeError:  # a mapping key that is not a string
        text = ""
    if text.count("\n") == len(names) - 1 and _MPS_NAMES.fullmatch(text):
        positions = np.fromiter(map(int, text[1:].split("\nC")), np.int64,
                                len(names))
        if positions.max() < n:
            return positions
    for name in names:
        if (not isinstance(name, str) or "\n" in name
                or not _MPS_NAMES.fullmatch(name) or int(name[1:]) >= n):
            raise LPError(f"solution names unknown column {name!r}")


def import_solution(lp: LPInstance, source) -> Solution:
    """Adopt externally solved values for this LP.

    ``source`` may be a mapping, NAME VALUE text, or a readable text
    stream, which is read ``_SOLUTION_CHARS`` characters at a time. Text
    and streams alike are split into lines where str.splitlines splits
    them, so a bare ``\\r`` ends a line even in a stream that does not
    translate line ends. A line starting with ``*`` is a comment and a
    blank line is skipped; every other line holds exactly a name and a
    number, and a number is what Python's float() reads, in ASCII and
    without ``_``. Any other line raises LPError: one with more or fewer
    tokens is quoted, and a bad number is named with its line number.

    A name is a column's own name or else its MPS name ``C<j>`` (see
    write_mps), so a column whose own name is ``C1`` is never read as
    column 1; a column given twice, by either name, raises LPError. The
    objective and slacks are recomputed from the point itself; status
    "optimal" here asserts feasibility within ``SolveOptions()``'s
    ``feasibility_tol``, while a point holding a NaN or infinite value, or
    violating a row or a column bound beyond it, comes back "infeasible",
    naming the non-finite columns, then the rows, then the columns worst
    first.
    """
    tol = SolveOptions().feasibility_tol
    n = lp.n_cols
    position = dict(zip(lp.col_names, range(n)))
    given = np.zeros((2, n), dtype=np.int64)  # by own name, by MPS name
    x = np.zeros(n)
    for names, values in _solution_blocks(source):
        cols = np.fromiter(map(position.get, names, itertools.repeat(-1)),
                           np.int64, len(names))
        by_mps = cols < 0
        if by_mps.any():
            cols[by_mps] = _mps_columns(
                [names[k] for k in np.flatnonzero(by_mps)], n)
        np.add.at(given, (by_mps.astype(np.intp), cols), 1)
        x[cols] = values
    if np.any(given > 1):  # a name given twice
        j = np.argmax((given > 1).any(axis=0))
        name = lp.col_names[j] if given[0, j] > 1 else f"C{j}"
        raise LPError(f"solution gives column {name!r} twice")
    if np.any(given.all(axis=0)):
        j = np.argmax(given.all(axis=0))
        raise LPError(f"solution gives column {lp.col_names[j]!r} twice: "
                      f"by its name and by its MPS name 'C{j}'")
    missing = np.flatnonzero(given.sum(axis=0) == 0)
    if missing.size:
        raise LPError("solution is missing columns "
                      f"{[lp.col_names[j] for j in missing[:5]]}")

    sol = _judge(lp, x)
    if sol.max_violation <= tol:
        return sol
    return replace(sol, status=STATUS_INFEASIBLE, message=_violation_message(
        lp, x, tol, "imported point"))
