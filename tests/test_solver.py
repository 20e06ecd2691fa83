"""Built-in simplex solver versus independent oracles.

Oracles used here:
  * hand-solvable problems with unique optima,
  * brute-force enumeration of basic feasible vertices,
  * scipy.optimize.linprog (HiGHS) on randomly generated problems.
"""

from __future__ import annotations

import dataclasses
import itertools
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import gridplan
from gridplan import runner, solver
from gridplan.demand import synthesize_demand
from gridplan.formulation import (EQ, GE, LE, BuildInputs, LPError,
                                  LPInstance, assemble, period_map)
from gridplan.runner import load_bundle, load_config
from gridplan.solver import (SolveOptions, _Simplex, import_solution,
                             solve)
from helpers import (count_inverts, dense_matrix, make_lp, mask_ratio_test,
                     tile_bundle, worst_reduced_cost)
from test_acceptance import demo_config

FIXTURE_DIR = Path(gridplan.__file__).parent / "data" / "two_node_48h"


def scipy_solve(lp):
    """Reference solve of an LPInstance via HiGHS."""
    a = dense_matrix(lp)
    b = lp.rhs_vector()
    senses = lp.senses()
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for i, s in enumerate(senses):
        if s == LE:
            a_ub.append(a[i])
            b_ub.append(b[i])
        elif s == GE:
            a_ub.append(-a[i])
            b_ub.append(-b[i])
        else:
            a_eq.append(a[i])
            b_eq.append(b[i])
    bounds = [(lo, None if np.isinf(up) else up)
              for lo, up in zip(lp.lower, lp.upper)]
    return linprog(
        lp.objective,
        A_ub=np.asarray(a_ub) if a_ub else None,
        b_ub=np.asarray(b_ub) if b_ub else None,
        A_eq=np.asarray(a_eq) if a_eq else None,
        b_eq=np.asarray(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )


def least_violation(lp):
    """The least, over points within the column bounds, of the largest row
    violation, by HiGHS: min t subject to every row missed by at most t."""
    a, b = dense_matrix(lp), np.asarray(lp.rhs, dtype=float)
    le, ge = lp.sense != GE, lp.sense != LE  # an equation is both
    a_ub = np.vstack([a[le], -a[ge]])
    a_ub = np.hstack([a_ub, -np.ones((a_ub.shape[0], 1))])
    bounds = [(lo, None if np.isinf(up) else up)
              for lo, up in zip(lp.lower, lp.upper)] + [(0.0, None)]
    ref = linprog(np.eye(lp.n_cols + 1)[-1], A_ub=a_ub,
                  b_ub=np.concatenate([b[le], -b[ge]]), bounds=bounds,
                  method="highs")
    assert ref.status == 0
    return ref.fun


def record_certificates(monkeypatch):
    """Patch the solver's dual bound to record each Farkas check, a call
    without costs, as (y, the row violation it proves: L(y) / |y|_1)."""
    proofs = []
    bound = solver._dual_bound

    def spy(lp, y, c=0.0):
        value = bound(lp, y, c)
        if np.ndim(c) == 0:
            proofs.append((y.copy(), value / np.abs(y).sum()))
        return value

    monkeypatch.setattr(solver, "_dual_bound", spy)
    return proofs


def count_optimizations(monkeypatch):
    """Patch _Simplex.optimize to record each status it returns."""
    statuses = []
    optimize = _Simplex.optimize

    def spy(self, c, max_iterations):
        statuses.append(optimize(self, c, max_iterations))
        return statuses[-1]

    monkeypatch.setattr(_Simplex, "optimize", spy)
    return statuses


def record_completions(monkeypatch):
    """Patch _Simplex.complete to record, per call, the number of basic
    columns it was given and the rank of the basis it left."""
    calls = []
    complete = _Simplex.complete

    def spy(self, weight):
        given = self.basis.size
        complete(self, weight)
        calls.append((given, np.linalg.matrix_rank(self._dense(self.basis))))

    monkeypatch.setattr(_Simplex, "complete", spy)
    return calls


def record_refactors(monkeypatch):
    """Patch _Simplex._pivot to record the cause of each refactor it
    makes: "cadence" where the update arrays are full, else "drift" (the
    pivot's two readings parted)."""
    causes = []
    pivot = _Simplex._pivot

    def spy(self, *args):
        full = self.k + 1 >= self.max_updates
        refactored = pivot(self, *args)
        if refactored:
            causes.append("cadence" if full else "drift")
        return refactored

    monkeypatch.setattr(_Simplex, "_pivot", spy)
    return causes


def rhs_tolerance(lp):
    """The violation a solve forgives: feasibility_tol x max(1, max |rhs|)."""
    return SolveOptions().feasibility_tol * max(
        1.0, float(np.max(np.abs(lp.rhs), initial=0.0)))


def chain_lp():
    """A chain of zero-rhs equalities ahead of two rows that cannot hold:
    r6 asks x6 >= 5 of a column capped at 1, r7 asks x0 + x7 = -2 of
    nonnegative columns."""
    n = 8
    rows = []
    for i in range(6):
        coeffs = np.zeros(n)
        coeffs[[i, i + 1]] = [1.0, -1.0]
        rows.append((coeffs, EQ, 0.0))
    rows.append((np.eye(n)[6], GE, 5.0))
    rows.append((np.eye(n)[0] + np.eye(n)[7], EQ, -2.0))
    upper = np.full(n, np.inf)
    upper[6] = 1.0
    return make_lp(np.zeros(n), rows, upper=upper)


def brute_force_vertices(lp):
    """Enumerate candidate vertices from n-subsets of active constraints.

    Treats rows and both bound kinds as candidate active sets. Only
    usable for very small problems; returns the best feasible objective
    (without offset).
    """
    n = lp.n_cols
    a = dense_matrix(lp)
    b = lp.rhs_vector()
    planes = [(a[i], b[i]) for i in range(lp.n_rows)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        planes.append((e.copy(), lp.lower[j]))
        if np.isfinite(lp.upper[j]):
            planes.append((e.copy(), lp.upper[j]))
    best = np.inf
    for combo in itertools.combinations(range(len(planes)), n):
        m = np.array([planes[k][0] for k in combo])
        r = np.array([planes[k][1] for k in combo])
        if abs(np.linalg.det(m)) < 1e-12:
            continue
        x = np.linalg.solve(m, r)
        ok = np.all(x >= lp.lower - 1e-9) and np.all(x <= lp.upper + 1e-9)
        for i, s in enumerate(lp.senses()):
            act = a[i] @ x
            if s == LE and act > b[i] + 1e-9:
                ok = False
            elif s == GE and act < b[i] - 1e-9:
                ok = False
            elif s == EQ and abs(act - b[i]) > 1e-9:
                ok = False
        if ok:
            best = min(best, float(lp.objective @ x))
    return best


class TestElementary:
    def test_single_variable_floor(self):
        lp = make_lp([1.0], [([1.0], GE, 3.0)])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert sol.x[0] == pytest.approx(3.0, abs=1e-9)
        assert sol.slacks[0] == pytest.approx(0.0, abs=1e-9)
        assert sol.duals[0] == pytest.approx(1.0, abs=1e-9)

    def test_two_variable_vertex(self):
        lp = make_lp([2.0, 3.0],
                     [([1.0, 1.0], GE, 4.0)],
                     upper=[3.0, np.inf])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(9.0, abs=1e-9)
        np.testing.assert_allclose(sol.x, [3.0, 1.0], atol=1e-9)

    def test_two_variable_vertex_bound_as_row(self):
        lp = make_lp([2.0, 3.0],
                     [([1.0, 1.0], GE, 4.0),
                      ([1.0, 0.0], LE, 3.0)])
        sol = solve(lp)
        assert sol.objective == pytest.approx(9.0, abs=1e-9)
        assert sol.objective == pytest.approx(
            brute_force_vertices(lp), abs=1e-9)

    def test_infeasibility_names_rows_holding_the_residual(self,
                                                            monkeypatch):
        # r6 alone cannot hold: x6 <= 1 misses it by 4 at every point. The
        # row check finds it before any optimization, and r6's unit
        # multiplier is the certificate. The dual alone on the same LP
        # leaves on r6 first, whose violation (5) is the largest, and finds
        # no column to enter: its ray is r6 alone too, in one optimization.
        statuses = count_optimizations(monkeypatch)
        proofs = record_certificates(monkeypatch)
        lp = chain_lp()
        sol = solve(lp)
        assert (sol.status, sol.iterations, statuses) == ("infeasible", 0, [])
        work = solver._Working(lp, SolveOptions())
        sx = work.simplex()
        dual = work.conclude(sx, sx.optimize(work.c, work.max_iterations))
        assert statuses == ["infeasible"]
        assert dual.message == sol.message
        for y, bound in proofs:
            assert np.flatnonzero(y).tolist() == [lp.row_names.index("r6")]
            assert bound == pytest.approx(4.0, rel=1e-12)
        assert len(proofs) == 2
        assert "violates a row by 4.000e+00 or more" in sol.message
        assert sol.message.endswith("rows led by ['r6']")

    def test_point_beyond_violation_bound_is_numerical(self):
        # 0.1 * 1.5 rounds 5.6e-17 short of 0.3, far above this bound.
        lp = make_lp([1.0, 1.0], [([0.1, 0.2], GE, 0.3)])
        sol = solve(lp, SolveOptions(feasibility_tol=1e-300))
        assert sol.status == "numerical"
        assert sol.x is None
        assert sol.message.endswith("['r0']")

    def test_non_finite_built_in_point_names_its_columns(self, monkeypatch):
        # A NaN misses no row by any number, so only its column names it.
        point = _Simplex.point

        def spoil(self):
            x = point(self).copy()
            x[1] = np.nan
            return x

        monkeypatch.setattr(_Simplex, "point", spoil)
        lp = make_lp([1.0, 1.0], [([1.0, 1.0], GE, 2.0)],
                     col_names=("x", "y"))
        sol = solve(lp)
        assert (sol.status, sol.x) == ("numerical", None)
        assert sol.message == "built-in point has 1 non-finite values: ['y']"

    def test_contradictory_bounds_infeasible(self):
        lp = make_lp([1.0], [([1.0], GE, 2.0)], upper=[1.0])
        sol = solve(lp)
        assert sol.status == "infeasible"
        assert sol.x is None
        assert sol.duals is None

    def test_unbounded(self):
        lp = make_lp([-1.0, 0.0], [([0.0, 1.0], GE, 1.0)])
        sol = solve(lp)
        assert sol.status == "unbounded"

    def test_unbounded_no_rows(self):
        lp = make_lp([-1.0], [])
        assert solve(lp).status == "unbounded"

    def test_no_rows_box_optimum(self):
        lp = make_lp([1.0, -2.0], [], upper=[np.inf, 5.0])
        sol = solve(lp)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [0.0, 5.0], atol=1e-12)
        assert sol.objective == pytest.approx(-10.0)

    def test_equality_row(self):
        lp = make_lp([1.0, 0.0], [([1.0, 1.0], EQ, 5.0)])
        sol = solve(lp)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [0.0, 5.0], atol=1e-9)

    def test_negative_rhs_normalization(self):
        lp = make_lp([1.0], [([-1.0], LE, -3.0)])
        sol = solve(lp)
        assert sol.objective == pytest.approx(3.0, abs=1e-9)

    def test_offset_added(self):
        lp = make_lp([1.0], [([1.0], GE, 3.0)], offset=100.0)
        assert solve(lp).objective == pytest.approx(103.0, abs=1e-9)

    def test_fixed_variable(self):
        lp = make_lp([1.0, 1.0],
                     [([1.0, 1.0], GE, 3.0)],
                     lower=[2.0, 0.0], upper=[2.0, np.inf])
        sol = solve(lp)
        np.testing.assert_allclose(sol.x, [2.0, 1.0], atol=1e-9)

    def test_nonzero_lower_bounds(self):
        lp = make_lp([1.0, 2.0],
                     [([1.0, 1.0], GE, 1.0)],
                     lower=[0.5, 0.25])
        sol = solve(lp)
        np.testing.assert_allclose(sol.x, [0.75, 0.25], atol=1e-9)
        assert sol.objective == pytest.approx(1.25, abs=1e-9)

    def test_nan_rejected_at_construction(self):
        with pytest.raises(LPError):
            make_lp([1.0], [([np.nan], LE, 1.0, "bad")])

    def test_optimum_at_upper_bounds(self):
        lp = make_lp([-1.0, -1.0],
                     [([1.0, 2.0], LE, 100.0)],
                     upper=[4.0, 5.0])
        sol = solve(lp)
        np.testing.assert_allclose(sol.x, [4.0, 5.0], atol=1e-9)
        assert sol.duality_gap <= 1e-9


def two_row_lp(indices, data, sense=LE, rhs=1.0):
    """Two columns and two rows: a sound row "ok", then the row "bad"
    holding the given entries, sense and rhs."""
    return LPInstance(
        n_cols=2, objective=np.zeros(2),
        indptr=[0, 1, 1 + len(indices)], indices=[0, *indices],
        data=[1.0, *data], sense=[LE, sense], rhs=[1.0, rhs],
        row_names=["ok", "bad"], row_tags=["", ""],
        lower=np.zeros(2), upper=np.full(2, np.inf), col_names=["x0", "x1"])


class TestValidate:
    def test_sound_instance_passes(self):
        # construction validates, so building it is the check
        lp = two_row_lp([1], [2.0])
        assert (lp.n_rows, lp.n_cols) == (2, 2)

    @pytest.mark.parametrize("indices, data, sense, rhs, message", [
        ([2], [1.0], LE, 1.0, "references unknown column"),
        ([-1], [1.0], LE, 1.0, "references unknown column"),
        ([1, 1], [1.0, 2.0], LE, 1.0, "repeated column index"),
        ([1, 0], [1.0, 2.0], LE, 1.0, "column indices must ascend"),
        ([1], [np.inf], LE, 1.0, "non-finite coefficient or rhs"),
        ([1], [np.nan], LE, 1.0, "non-finite coefficient or rhs"),
        ([1], [1.0], LE, np.nan, "non-finite coefficient or rhs"),
        ([1], [1.0], LE, -np.inf, "non-finite coefficient or rhs"),
        ([1], [1.0], "<>", 1.0, "unknown sense '<>'"),
    ])
    def test_error_names_the_row(self, indices, data, sense, rhs, message):
        with pytest.raises(LPError, match=f"row 'bad'.*{re.escape(message)}"):
            two_row_lp(indices, data, sense, rhs)

    @pytest.mark.parametrize("change, message", [
        ({"objective": np.zeros(3)}, "objective has shape (3,), expected (2,)"),
        ({"row_names": ["r", "s"]}, "one name required per column and per row"),
        ({"col_names": ["x", "x"]}, "column names must be unique"),
        ({"objective": [0.0, np.inf]}, "objective has non-finite coefficients"),
        ({"offset": np.nan}, "objective offset must be finite"),
        ({"lower": [0.0, -np.inf]}, "lower bounds must be finite"),
        ({"upper": [np.nan, 1.0]}, "upper bounds must be finite or +inf"),
        ({"upper": [-np.inf, 1.0]}, "upper bounds must be finite or +inf"),
        ({"lower": [0.0, 2.0], "upper": [1.0, 1.0]},
         "column 'x1': lower 2.0 exceeds upper 1.0"),
    ], ids=["shape", "name-count", "duplicate-columns", "objective-inf",
            "offset-nan", "lower-inf", "upper-nan", "upper-minus-inf",
            "lower-above-upper"])
    def test_construction_errors(self, change, message):
        sound = dict(
            n_cols=2, objective=np.zeros(2), indptr=[0, 1], indices=[0],
            data=[1.0], sense=[LE], rhs=[1.0], row_names=["r"],
            row_tags=[""], lower=np.zeros(2), upper=np.full(2, np.inf),
            col_names=["x0", "x1"])
        LPInstance(**sound)
        with pytest.raises(LPError, match=re.escape(message)):
            LPInstance(**{**sound, **change})

    def test_malformed_csr_arrays(self):
        with pytest.raises(LPError, match="CSR"):
            LPInstance(
                n_cols=1, objective=[0.0], indptr=[0, 2], indices=[0],
                data=[1.0], sense=[LE], rhs=[1.0], row_names=["r"],
                row_tags=[""], lower=[0.0], upper=[np.inf], col_names=["x"])


class TestDuals:
    def test_shadow_price_matches_perturbation(self):
        base = make_lp([2.0, 3.0],
                       [([1.0, 1.0], GE, 4.0),
                        ([1.0, 0.0], LE, 3.0)])
        sol = solve(base)
        eps = 1e-5
        bumped = make_lp([2.0, 3.0],
                         [([1.0, 1.0], GE, 4.0 + eps),
                          ([1.0, 0.0], LE, 3.0)])
        sol2 = solve(bumped)
        assert sol2.objective - sol.objective == pytest.approx(
            sol.duals[0] * eps, abs=1e-10)

    def test_perturbation_bounded_by_dual(self):
        lp = make_lp([2.0, 3.0],
                     [([1.0, 1.0], GE, 4.0),
                      ([1.0, 0.0], LE, 3.0)])
        sol = solve(lp)
        eps = 1e-9
        bumped = make_lp([2.0, 3.0],
                         [([1.0, 1.0], GE, 4.0 + eps),
                          ([1.0, 0.0], LE, 3.0)])
        delta = abs(solve(bumped).objective - sol.objective)
        assert delta <= abs(sol.duals[0]) * eps + 1e-9

    def test_dual_signs(self):
        lp = make_lp([2.0, 3.0],
                     [([1.0, 1.0], GE, 4.0),
                      ([1.0, 0.0], LE, 3.0)])
        sol = solve(lp)
        assert sol.duals[0] >= -1e-9   # tightening a >= floor costs money
        assert sol.duals[1] <= 1e-9    # relaxing a <= cap cannot cost

    def test_loose_row_has_zero_dual(self):
        lp = make_lp([1.0], [([1.0], GE, 3.0), ([1.0], LE, 10.0)])
        sol = solve(lp)
        assert sol.duals[1] == pytest.approx(0.0, abs=1e-12)

    def test_strong_duality_small(self):
        lp = make_lp([2.0, 3.0, 1.0],
                     [([1.0, 1.0, 1.0], GE, 6.0),
                      ([2.0, -1.0, 0.0], LE, 4.0),
                      ([0.0, 1.0, -1.0], EQ, 1.0)],
                     upper=[np.inf, 4.0, np.inf])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.duality_gap <= 1e-9
        assert sol.objective == pytest.approx(
            brute_force_vertices(lp), abs=1e-8)


def random_instance(seed, n_rows, n_cols, allow_eq=True):
    rng = np.random.default_rng(seed)
    col_scale = rng.lognormal(0.0, 1.5, size=n_cols)
    a = rng.normal(size=(n_rows, n_cols)) * col_scale
    x0 = rng.uniform(0.0, 5.0, n_cols)
    rows = []
    for i in range(n_rows):
        act = float(a[i] @ x0)
        u = rng.random()
        if allow_eq and u < 0.25:
            rows.append((a[i], EQ, act))
        elif u < 0.6:
            rows.append((a[i], LE, act + rng.uniform(0.0, 3.0)))
        else:
            rows.append((a[i], GE, act - rng.uniform(0.0, 3.0)))
    upper = np.full(n_cols, np.inf)
    mask = rng.random(n_cols) < 0.5
    upper[mask] = x0[mask] + rng.uniform(0.5, 4.0, int(mask.sum()))
    c = rng.normal(size=n_cols)
    return make_lp(c, rows, upper=upper)


class TestRandomCrossCheck:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference_solver(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n_cols = int(rng.integers(3, 11))
        n_rows = int(rng.integers(1, 9))
        lp = random_instance(seed, n_rows, n_cols)
        mine = solve(lp)
        ref = scipy_solve(lp)
        if ref.status == 0:
            assert mine.status == "optimal", mine.message
            assert mine.objective == pytest.approx(
                ref.fun, rel=1e-6, abs=1e-6)
            assert mine.max_violation <= 1e-7
            assert mine.duality_gap <= 1e-6
        elif ref.status == 3:
            assert mine.status == "unbounded"
        elif ref.status == 2:
            assert mine.status == "infeasible"

    def test_medium_dense(self):
        lp = random_instance(777, 100, 150, allow_eq=False)
        mine = solve(lp)
        ref = scipy_solve(lp)
        assert (mine.status == "optimal") == (ref.status == 0)
        if ref.status == 0:
            assert mine.objective == pytest.approx(ref.fun, rel=1e-7)
            assert mine.max_violation <= 1e-7
            assert mine.duality_gap <= 1e-7

    def test_badly_scaled(self):
        lp = make_lp(
            [1.0e6, 2.0e-6, 3.0],
            [([1e-6, 0.0, 1.0], GE, 2.0),
             ([1.0e6, 1.0, 0.0], GE, 3.0e6),
             ([0.0, 1e5, 1e-3], LE, 5e5)],
        )
        mine = solve(lp)
        ref = scipy_solve(lp)
        assert mine.status == "optimal" and ref.status == 0
        assert mine.objective == pytest.approx(ref.fun, rel=1e-8)


class TestDegeneracy:
    def beale(self):
        return make_lp(
            [-0.75, 150.0, -0.02, 6.0],
            [([0.25, -60.0, -0.04, 9.0], LE, 0.0),
             ([0.5, -90.0, -0.02, 3.0], LE, 0.0),
             ([0.0, 0.0, 1.0, 0.0], LE, 1.0)],
        )

    def test_classic_cycling_example_terminates(self):
        sol = solve(self.beale())
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-0.05, abs=1e-9)

    def test_degenerate_vertex(self):
        # Three planes meet where only two are needed: degenerate basis.
        lp = make_lp([1.0, 1.0],
                     [([1.0, 1.0], GE, 2.0),
                      ([1.0, 0.0], GE, 1.0),
                      ([0.0, 1.0], GE, 1.0)])
        sol = solve(lp)
        assert sol.objective == pytest.approx(2.0, abs=1e-9)


class TestControls:
    def test_iteration_limit(self):
        lp = random_instance(31, 40, 60, allow_eq=False)
        sol = solve(lp, SolveOptions(max_iterations=2))
        assert sol.status == "iteration-limit"
        assert sol.message

    def test_determinism(self):
        lp = random_instance(5, 30, 45)
        a = solve(lp)
        b = solve(lp)
        assert a.status == b.status
        assert a.iterations == b.iterations
        assert a.x.tobytes() == b.x.tobytes()

    def test_refactor_cadence_beyond_row_count(self, monkeypatch):
        lp = random_instance(5, 30, 45)
        ref = solve(lp)
        monkeypatch.setattr(_Simplex, "MAX_UPDATES", 10**12)
        sol = solve(lp)
        assert sol.status == ref.status == "optimal"
        assert sol.objective == pytest.approx(ref.objective, rel=1e-9)

    def test_tolerances_must_be_positive(self):
        with pytest.raises(ValueError):
            SolveOptions(feasibility_tol=0.0)
        with pytest.raises(ValueError):
            SolveOptions(optimality_tol=-1e-9)

    def test_solution_reports_iterations(self):
        sol = solve(make_lp([1.0], [([1.0], GE, 3.0)]))
        assert sol.iterations >= 1


def statuses(n_all, basis):
    """A ``_Simplex`` status array: ``basis`` basic, the rest at 0."""
    vstat = np.full(n_all, _Simplex.AT_LOWER, dtype=np.int8)
    vstat[basis] = _Simplex.BASIC
    return vstat


def changed_statuses(before, sx):
    """The columns a completion sent from the basis to their lower bound,
    and the columns it made basic."""
    demoted = np.flatnonzero((before == _Simplex.BASIC)
                             & (sx.vstat == _Simplex.AT_LOWER))
    added = np.flatnonzero((before != _Simplex.BASIC)
                           & (sx.vstat == _Simplex.BASIC))
    assert np.count_nonzero(sx.vstat != before) == demoted.size + added.size
    return demoted.tolist(), added.tolist()


def test_singular_basis_repaired_with_unit_column():
    # Working columns: 0 and 1 are both (1, 2, 0), 2 is (0, 0, 3), and
    # 3-5 are unit columns of rows 0-2 (the second a surplus).
    before = statuses(6, [0, 1, 2])
    sx = _Simplex(np.array([0, 0, 1, 1, 2, 3, 4, 5]),
                  np.array([0, 1, 0, 1, 2, 0, 1, 2]),
                  np.array([1.0, 2.0, 1.0, 2.0, 3.0, 1.0, -1.0, 1.0]),
                  np.ones(3), np.full(6, np.inf), before.copy(),
                  SolveOptions())
    sx.refactor()
    # Column 1 depends on column 0 and leaves the basis; a logical of a
    # row the two share takes its place, in its position.
    demoted, added = changed_statuses(before, sx)
    assert demoted == [1]
    assert len(added) == 1 and added[0] in (3, 4)
    np.testing.assert_array_equal(sx.basis, [0, added[0], 2])
    basis = sx._dense(sx.basis)
    np.testing.assert_allclose(sx.binv0 @ basis, np.eye(3), atol=1e-15)


def test_refactor_peels_singletons_around_a_dense_kernel(monkeypatch):
    # Basis columns 0-3 of
    #     [2 0 0 0]
    #     [1 1 3 0]
    #     [0 2 1 0]
    #     [0 1 1 4]:
    # column 3 is a column singleton (row 3), row 0 then a row singleton
    # (column 0), and rows 1-2 x columns 1-2 the kernel.
    basis = np.array([[2.0, 0.0, 0.0, 0.0], [1.0, 1.0, 3.0, 0.0],
                      [0.0, 2.0, 1.0, 0.0], [0.0, 1.0, 1.0, 4.0]])
    cols, rows = np.nonzero(basis.T)
    sx = _Simplex(cols, rows, basis[rows, cols], np.ones(4),
                  np.full(4, np.inf), statuses(4, [0, 1, 2, 3]),
                  SolveOptions())
    kernels = []
    solve_dense = np.linalg.solve

    def spy(a, b):
        kernels.append(a.copy())
        return solve_dense(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    sx.refactor()
    assert len(kernels) == 1
    np.testing.assert_array_equal(kernels[0], [[1.0, 3.0], [2.0, 1.0]])
    np.testing.assert_allclose(sx.binv0 @ basis, np.eye(4), rtol=0.0,
                               atol=1e-15)


@pytest.mark.parametrize("entries, repaired", [
    # Columns 0 and 1 are both singletons of row 0: the second leaves.
    (([0, 1, 2], [0, 0, 2], [1.0, 2.0, 3.0]), ([1], [4])),
    # No basis column touches row 1: once columns 0 and 2 pivot on rows 0
    # and 2, column 1 has nothing left and leaves.
    (([0, 1, 1, 2], [0, 0, 2, 2], [1.0, 1.0, 1.0, 2.0]), ([1], [4])),
    # Column 1 stores a zero in row 1, so only its stored zero touches that
    # row: it pivots there as a column singleton, the factor fails, and the
    # completion sees column 1 as a second singleton of row 0.
    (([0, 1, 1, 2], [0, 0, 1, 2], [1.0, 2.0, 0.0, 3.0]), ([1], [4])),
])
def test_structurally_singular_basis_repaired(entries, repaired):
    # Basis columns 0-2 leave row 1 uncovered; 3-5 are the unit columns of
    # rows 0-2, and the repair swaps in row 1's.
    cols, rows, vals = (np.array(a) for a in entries)
    before = statuses(6, [0, 1, 2])
    sx = _Simplex(np.concatenate([cols, [3, 4, 5]]),
                  np.concatenate([rows, [0, 1, 2]]),
                  np.concatenate([vals, np.ones(3)]), np.ones(3),
                  np.full(6, np.inf), before.copy(), SolveOptions())
    sx.refactor()
    assert changed_statuses(before, sx) == tuple(repaired)
    basis = sx._dense(sx.basis)
    np.testing.assert_allclose(sx.binv0 @ basis, np.eye(3), atol=1e-15)


def random_basis(seed, case, m=8, n=14):
    """A ``_Simplex`` over a random sparse m x n matrix, with a logical
    of +1 or -1 per row after it, and the statuses it is given: a basis of
    ``case`` ("short", "too-full", "shared-row", "empty-row", "dependent"
    or "nonsingular")."""
    rng = np.random.default_rng([seed, len(case)])
    a = rng.uniform(0.5, 2.0, (m, n)) * (rng.random((m, n)) < 0.35)
    a *= rng.choice([-1.0, 1.0], (m, n))
    logicals = rng.choice([-1.0, 1.0], m)
    basis = rng.permutation(n)[:m]
    if case == "short":
        basis = basis[:m - rng.integers(1, m)]
    elif case == "too-full":
        basis = np.concatenate([basis, np.setdiff1d(
            np.arange(n), basis)[:rng.integers(1, n - m + 1)]])
    elif case == "shared-row":
        # Two basis columns are singletons of one row.
        i = rng.integers(m)
        a[:, basis[:2]] = 0.0
        a[i, basis[:2]] = [1.5, -0.7]
    elif case == "empty-row":
        a[rng.integers(m), basis] = 0.0
    elif case == "dependent":
        # A basis column is a combination of two others, all dense.
        a[:, basis[:2]] = rng.uniform(0.5, 2.0, (m, 2))
        a[:, basis[2]] = a[:, basis[0]] - 0.5 * a[:, basis[1]]
    elif case == "nonsingular":
        a[:, basis] += 4.0 * np.eye(m)
    full = np.hstack([a, np.diag(logicals)])
    cols, rows = np.nonzero(full.T)
    vals = full[rows, cols]
    return _Simplex(cols, rows, vals, np.ones(m), np.full(n + m, np.inf),
                    statuses(n + m, basis), SolveOptions()), n


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("case", ["short", "too-full", "shared-row",
                                  "empty-row", "dependent", "nonsingular"])
def test_completed_basis_is_m_independent_columns(case, seed):
    sx, n = random_basis(seed, case)
    before, given = sx.vstat.copy(), sx.basis.copy()
    sx.complete(np.random.default_rng(seed).random(sx.m))
    demoted, added = changed_statuses(before, sx)
    if given.size == sx.m:
        # A square basis keeps its order, logicals in the demoted places.
        stay = ~np.isin(given, demoted)
        np.testing.assert_array_equal(sx.basis[stay], given[stay])
        np.testing.assert_array_equal(np.sort(sx.basis[~stay]), added)
    else:
        np.testing.assert_array_equal(
            sx.basis, np.flatnonzero(sx.vstat == _Simplex.BASIC))
    assert sx.basis.size == sx.m
    assert np.linalg.matrix_rank(sx._dense(sx.basis)) == sx.m
    # Only given basic columns leave, and only logicals come in.
    assert set(demoted) <= set(given.tolist())
    assert all(j >= n for j in added)
    if case == "nonsingular":
        assert (demoted, added) == ([], [])
        np.testing.assert_array_equal(sx.basis, given)
    elif case != "short":
        assert demoted
    np.testing.assert_allclose(sx._invert() @ sx._dense(sx.basis),
                               np.eye(sx.m), atol=1e-9)


def test_refactor_of_unit_basis_is_exact(fixture_lp, monkeypatch):
    # A permuted unit basis is a permuted diagonal: no kernel, no roundoff.
    sx = _Simplex(np.arange(3), np.array([2, 0, 1]), np.ones(3), np.ones(3),
                  np.full(3, np.inf), statuses(3, [0, 1, 2]), SolveOptions())
    sx.refactor()
    basis = np.zeros((3, 3))
    basis[[2, 0, 1], [0, 1, 2]] = 1.0
    np.testing.assert_array_equal(sx.binv0 @ basis, np.eye(3))
    # The slack basis of <=, >= and = rows, whose logicals are +1, -1 and
    # +1 (scaled rows keep them so), inverts to exactly diag(1 / vals).
    lp = make_lp([1.0, 1.0], [([1.0, 2.0], LE, 4.0), ([3.0, 1.0], GE, 1.0),
                              ([1.0, -1.0], EQ, 0.5)])
    work = solver._Working(lp, SolveOptions())
    sx = work.simplex()
    sx.refactor()
    vals = work.vals[-3:]
    np.testing.assert_array_equal(vals, [1.0, -1.0, 1.0])
    np.testing.assert_array_equal(sx.binv0, np.diag(1.0 / vals))
    # So is a cold solve's first factor, the slack basis of the fixture.
    factors = []
    invert = _Simplex._invert

    def spy(self):
        factors.append((self.basis.copy(), invert(self)))
        return factors[-1][1]

    monkeypatch.setattr(_Simplex, "_invert", spy)
    assert solve(fixture_lp).status == "optimal"
    (basis, binv), m = factors[0], fixture_lp.n_rows
    np.testing.assert_array_equal(basis, fixture_lp.n_cols + np.arange(m))
    logicals = np.where(fixture_lp.sense == GE, -1.0, 1.0)
    np.testing.assert_array_equal(binv, np.diag(1.0 / logicals))


def test_refactor_as_accurate_as_dense_solve(fixture_lp, monkeypatch):
    # At every refactor of the fixture solve, the left residual of the
    # peeled inverse (the one BTRAN and the pivot row read) is within 10x
    # that of a dense LU solve on the same basis.
    refactor = _Simplex.refactor
    ratios = []

    def spy(self):
        refactor(self)
        basis = self._dense(self.basis)
        eye = np.eye(self.m)
        dense = np.abs(np.linalg.solve(basis, eye) @ basis - eye).max()
        peeled = np.abs(self.binv0 @ basis - eye).max()
        ratios.append(peeled / dense if peeled else 0.0)

    monkeypatch.setattr(_Simplex, "refactor", spy)
    assert solve(fixture_lp).status == "optimal"
    assert ratios
    assert max(ratios) <= 10.0, ratios


@pytest.mark.parametrize("case", ["chain", "full-share-fixture",
                                  "contradictory-bounds"])
def test_certificate_holds_on_the_lp_arrays_alone(case, bundle, monkeypatch):
    # Each infeasible LP's certificate y, checked from indptr, indices,
    # data, rhs, sense, lower and upper with nothing of the solver: its
    # signs suit the rows, y A moves no column without an upper bound up
    # (beyond roundoff), and over the bounds y A x stays below y b by a gap
    # that, over |y|_1, exceeds the solve's tolerance. That bound is at
    # most HiGHS's least largest row violation.
    lp = {"chain": chain_lp,
          "full-share-fixture": lambda: tiled_lp(bundle, 1, 0,
                                                 demo_config(lcp=1.0)),
          "contradictory-bounds": lambda: make_lp(
              [1.0], [([1.0], GE, 2.0)], upper=[1.0])}[case]()
    proofs = record_certificates(monkeypatch)
    assert solve(lp).status == "infeasible"
    (y, _), = proofs
    sense = np.asarray(lp.sense)
    tiny = 1e-9 * np.abs(y).max()
    assert (y[sense == GE] >= -tiny).all() and (y[sense == LE] <= tiny).all()
    y = np.where(sense == GE, np.maximum(y, 0.0),
                 np.where(sense == LE, np.minimum(y, 0.0), y))
    a = np.zeros((lp.n_rows, lp.n_cols))
    a[np.repeat(np.arange(lp.n_rows), np.diff(lp.indptr)), lp.indices] = (
        lp.data)
    g = y @ a
    g[np.abs(g) <= 1e-9 * (np.abs(y) @ np.abs(a))] = 0.0
    assert not (g[np.isinf(lp.upper)] > 0.0).any()
    moves = g != 0.0
    top = np.where(g > 0.0, lp.upper, lp.lower)
    bound = (y @ lp.rhs - g[moves] @ top[moves]) / np.abs(y).sum()
    assert bound > rhs_tolerance(lp)
    assert bound <= least_violation(lp) * (1.0 + 1e-9)


def low_sun_and_wind(bundle, factor):
    """The fixture tiled to 96 h, with its first 48 h of onshore, offshore
    and utility-solar availability scaled by ``factor``."""
    tiled = tile_bundle(bundle, 2)
    series = tiled.series

    def cut(mapping):
        return {node: np.concatenate([arr[:48] * factor, arr[48:]])
                for node, arr in mapping.items()}

    return dataclasses.replace(tiled, series=dataclasses.replace(
        series, w_on=cut(series.w_on), w_off=cut(series.w_off),
        w_us_solar=cut(series.w_us_solar)))


@pytest.mark.parametrize("factor, lcp", [(0.1, 0.8), (0.1, 0.9),
                                         (0.2, 0.95)])
def test_small_ray_entries_keep_the_proof(bundle, factor, lcp, monkeypatch):
    # With its first two days' wind and sun cut, the 96 h run cannot meet
    # these low-carbon targets. The dual's ray proves it only with three
    # multipliers of 1e-12 to 1e-9 of its largest: without them the bound
    # reads -7.4, -8.3 and -6.8, and the run would end "numerical", exit 1.
    low = low_sun_and_wind(bundle, factor)
    config = dataclasses.replace(load_config(FIXTURE_DIR / "scenario.json"),
                                 lcp=lcp)
    proofs = record_certificates(monkeypatch)
    result = runner.run_scenario(low, config)
    assert (result.status, result.exit_code) == ("infeasible", 2)
    assert result.message.startswith("no feasible point")
    lp = runner._stage(low, config)[1]
    bound = proofs[-1][1]
    assert rhs_tolerance(lp) < bound <= least_violation(lp) * (1.0 + 1e-9)


def test_devex_pivot_by_hand():
    # Rows [0.5 2 0.1; 0.25 1 3] <= (1, 10), columns 3 and 4 their slacks,
    # c = (-1, -1, -0.5, 0, 0). Column 0 enters first (ties break low)
    # and row 0 leaves (ratios 2 and 40), so rho = e_0 and the pivot row
    # is alpha = row 0 = (0.5, 2, 0.1, 1, 0), with alpha_q = 0.5.
    sx = _Simplex(np.array([0, 0, 1, 1, 2, 2, 3, 4]),
                  np.array([0, 1, 0, 1, 0, 1, 0, 1]),
                  np.array([0.5, 0.25, 2.0, 1.0, 0.1, 3.0, 1.0, 1.0]),
                  np.array([1.0, 10.0]), np.full(5, np.inf),
                  statuses(5, [3, 4]), SolveOptions())
    sx.refactor()
    c = np.array([-1.0, -1.0, -0.5, 0.0, 0.0])
    assert sx.run(c, max_iterations=1) == "iteration-limit"
    np.testing.assert_array_equal(sx.basis, [0, 4])
    # d - (d_q / alpha_q) alpha = c + 2 alpha, which is c - A^T y for the
    # new basis (y = (-2, 0)); column 2 still prices in.
    np.testing.assert_allclose(sx.d, [0.0, 3.0, -0.3, 2.0, 0.0],
                               atol=1e-15)
    # max(1, (alpha_j / alpha_q)^2); the leaving column gets
    # max(1 / alpha_q^2, 1) = 4.
    np.testing.assert_allclose(sx.wt, [1.0, 16.0, 1.0, 4.0, 1.0])


def test_dual_bound_flip_pivot_by_hand():
    # Rows -x0 - 0.5 x1 + s0 = -3 and x0 + 2 x1 + s1 = 10 from the slack
    # basis (s0, s1 >= 0 are columns 2 and 3), with x0 in [0, 1], x1 >= 0
    # and c = (1, 1, 0, 0). s0 = -3 leaves toward 0, so rho = e_0 and the
    # pivot row is alpha = (-1, -0.5, 1, 0): x0 breaks at ratio 1 / 1 and
    # x1 at 1 / 0.5. Passing x0 closes only 1 of the 3, so x0 flips to its
    # upper bound and x1 enters.
    sx = _Simplex(np.array([0, 0, 1, 1, 2, 3]), np.array([0, 1, 0, 1, 0, 1]),
                  np.array([-1.0, 1.0, -0.5, 2.0, 1.0, 1.0]),
                  np.array([-3.0, 10.0]),
                  np.array([1.0, np.inf, np.inf, np.inf]), statuses(4, [2, 3]),
                  SolveOptions())
    sx.refactor()
    c = np.array([1.0, 1.0, 0.0, 0.0])
    assert sx.dual(c, max_iterations=1) == "optimal"
    assert sx.iterations == 1
    np.testing.assert_array_equal(sx.basis, [1, 3])
    np.testing.assert_array_equal(
        sx.vstat, [_Simplex.AT_UPPER, _Simplex.BASIC, _Simplex.AT_LOWER,
                   _Simplex.BASIC])
    # The flip leaves s0 = -2 and s1 = 9; x1 = -2 / -0.5 = 4 closes s0 and
    # leaves s1 = 9 - 2 x 4.
    np.testing.assert_array_equal(sx.xb, [4.0, 1.0])
    # theta = d_1 / alpha_1 = -2, so d + 2 alpha, and d_s0 = 2.
    np.testing.assert_array_equal(sx.d, [-1.0, 0.0, 2.0, 0.0])
    # max(1, (w_i / w_r)^2) with w = B^-1 a_1 = (-0.5, 2); the leaving row
    # gets max(1 / w_r^2, 1) = 4.
    np.testing.assert_array_equal(sx.wr, [4.0, 16.0])


def ratio_test_state(rng):
    """A random dual ratio-test state that stresses the tie-breaks: pivot
    entries, bounds and ratios drawn from a few exact values, so ratios tie
    exactly or within 1e-12 and equal |alpha| recur at different ratios;
    basic, fixed, boxed and unbounded columns, reduced costs a hair on
    the wrong side, and a violation that the first breakpoint closes,
    that only flips close, or that no move closes."""
    n = int(rng.integers(1, 16))
    vstat = rng.choice([_Simplex.AT_LOWER, _Simplex.AT_UPPER, _Simplex.BASIC],
                       size=n, p=[0.5, 0.3, 0.2]).astype(np.int8)
    ub = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0, np.inf], size=n)
    vstat[(vstat == _Simplex.AT_UPPER) & np.isinf(ub)] = _Simplex.AT_LOWER
    alpha = rng.choice([-2.0, -1.0, -0.5, -1e-9, 0.0, 0.5, 1.0, 2.0, 4.0],
                       size=n)
    ratio = rng.choice([0.0, 1.0, 1.0 + 5e-13, 2.0, 3.0], size=n)
    d = np.where(vstat == _Simplex.AT_UPPER, -1.0, 1.0) * ratio * np.abs(
        alpha)
    d[rng.random(n) < 0.1] = rng.choice([1e-14, -1e-14, 0.3])
    d[vstat == _Simplex.BASIC] = 0.0
    violation = float(rng.choice([1e-6, 0.5, 1.0, 2.0, 3.5, 7.0, 1e9]))
    return alpha, vstat, ub, d, violation, bool(rng.random() < 0.5)


def test_ratio_test_matches_the_mask_form():
    # _Simplex._ratio_test, on the direction array, against the masks and
    # sign choices it replaced: the same entering column and the same flips
    # in the same order on every state, exact ties included.
    opts = SolveOptions()
    rng = np.random.default_rng(29)
    seen = dict.fromkeys(["no candidate", "none closes", "flips",
                          "first closes", "exact tie",
                          "equal |alpha| at another ratio"], 0)
    for _ in range(4000):
        alpha, vstat, ub, d, violation, to_lower = ratio_test_state(rng)
        n = alpha.size
        sx = _Simplex(np.arange(n), np.zeros(n, dtype=np.int64), np.ones(n),
                      np.ones(1), ub, vstat.copy(), opts)
        dirs = sx.DIRECTION.take(vstat + sx._fixed_codes())
        got = sx._ratio_test(alpha, dirs, d, ub,
                             -violation if to_lower else violation)
        want = mask_ratio_test(alpha, vstat, ub, d, violation, to_lower,
                               opts.feasibility_tol)
        assert (got is None) == (want is None)
        # The candidates and their ratios, to classify the state.
        toward = dirs * (-alpha if to_lower else alpha)
        cand = toward > 1e-7 * min(1.0, np.abs(alpha * dirs).max())
        if not cand.any():
            seen["no candidate"] += 1
            continue
        if want is None:
            seen["none closes"] += 1
            continue
        q, flips = got
        assert (q, flips.tolist()) == (want[0], want[1].tolist())
        if flips.size:
            seen["flips"] += 1
            continue
        seen["first closes"] += 1
        ratio = np.full(n, np.inf)
        ratio[cand] = np.maximum(d * dirs, 0.0)[cand] / toward[cand]
        tied = ratio <= ratio.min() + 1e-12
        seen["exact tie"] += int((ratio == ratio[q]).sum() > 1)
        seen["equal |alpha| at another ratio"] += int((
            tied & (ratio != ratio[q]) & (toward == toward[q])).any())
    assert min(seen.values()) >= 50, seen


@pytest.fixture(scope="module")
def bundle():
    return load_bundle(FIXTURE_DIR)


@pytest.fixture(scope="module")
def fixture_lp(bundle):
    config = load_config(FIXTURE_DIR / "scenario.json")
    demand = synthesize_demand(bundle.network, bundle.series, config,
                               bundle.params)
    inp = BuildInputs(config, bundle.network, bundle.series, bundle.costs,
                      bundle.params, demand, emissions=bundle.emissions)
    return assemble(inp)[0]


def test_full_share_target_on_fixture_infeasible(bundle):
    # Row scales span ten orders of magnitude on this LP, so the
    # certificate is judged in the rows' own units, not the scaled ones.
    config = demo_config(lcp=1.0)
    demand = synthesize_demand(bundle.network, bundle.series, config,
                               bundle.params)
    inp = BuildInputs(config, bundle.network, bundle.series, bundle.costs,
                      bundle.params, demand, emissions=bundle.emissions)
    lp = assemble(inp)[0]
    assert scipy_solve(lp).status == 2
    sol = solve(lp)
    assert sol.status == "infeasible", sol.message


@pytest.mark.parametrize("max_updates", [1, 7, 100])
def test_refactor_cadence_on_fixture(fixture_lp, max_updates, monkeypatch):
    # 1 refactors after every pivot, 7 fills and resets the update buffer
    # many times per run, and 100 carries updates across the switch
    # from the dual simplex to primal phase 2.
    lp = fixture_lp
    ref = scipy_solve(lp)
    assert ref.status == 0
    monkeypatch.setattr(_Simplex, "MAX_UPDATES", max_updates)
    sol = solve(lp)
    assert sol.status == "optimal", sol.message
    assert sol.objective == pytest.approx(ref.fun + lp.offset, rel=1e-9)
    rhs_scale = max(1.0, float(np.max(np.abs(lp.rhs_vector()))))
    assert sol.max_violation <= 10.0 * SolveOptions().feasibility_tol * rhs_scale
    assert sol.duality_gap <= 1e-9


def test_updated_reduced_costs_match_fresh_at_end_of_phase_2(
        fixture_lp, monkeypatch):
    # Pivot-row updates keep d between BTRANs. The last fresh recompute of
    # the solve is the one optimality waits for, after the last pivot, and
    # it must find d where the updates left it.
    calls = []
    price = _Simplex._price

    def spy(self, c):
        kept = getattr(self, "d", None)
        kept = None if kept is None else kept.copy()
        price(self, c)
        calls.append((self.iterations, kept, self.d))

    monkeypatch.setattr(_Simplex, "_price", spy)
    sol = solve(fixture_lp)
    assert sol.status == "optimal"
    iterations, kept, fresh = calls[-1]
    assert iterations == sol.iterations
    np.testing.assert_allclose(kept, fresh, rtol=0.0, atol=1e-9)


def tiled_lp(bundle, k, seed=0, config=None):
    """The LP of ``tile_bundle(bundle, k, seed)`` under ``config``
    (default: the fixture's scenario)."""
    bundle = tile_bundle(bundle, k, seed)
    config = config or load_config(FIXTURE_DIR / "scenario.json")
    demand = synthesize_demand(bundle.network, bundle.series, config,
                               bundle.params)
    inp = BuildInputs(config, bundle.network, bundle.series, bundle.costs,
                      bundle.params, demand, emissions=bundle.emissions)
    return assemble(inp)[0]


@pytest.mark.parametrize("seed", range(4))
def test_fixture_tiled_to_96h_matches_highs(bundle, seed, monkeypatch):
    lp, period = period_pair(bundle, 2, seed)
    assert lp.n_rows == 497
    ref = scipy_solve(lp)
    assert ref.status == 0
    causes = record_refactors(monkeypatch)
    sol = solve(lp)
    assert sol.status == "optimal", sol.message
    assert sol.objective == pytest.approx(ref.fun + lp.offset, rel=1e-9)
    assert worst_reduced_cost(lp, sol) <= 1e-9
    assert sol.duality_gap <= 1e-9
    # The pivot's two readings agree here (to 5e-13 relative at worst), so
    # only the cadence refactors.
    assert causes and set(causes) == {"cadence"}
    # Started from its first half, the solve reaches the same optimum.
    check_period_start(lp, period, sol)


def period_pair(bundle, k, seed=0):
    """The LP of ``tile_bundle(bundle, k, seed)`` under the fixture's
    scenario, and the LP of its first half that a run starts it from."""
    config = load_config(FIXTURE_DIR / "scenario.json")
    return (tiled_lp(bundle, k, seed, config),
            runner._period_lp(tile_bundle(bundle, k, seed), config))


def check_period_start(lp, period, cold):
    """The solve of ``lp`` from ``period`` reaches the optimum of ``cold``,
    with a certified gap and in fewer pivots."""
    assert 2 * period.n_rows - 1 == lp.n_rows
    warm = solve(lp, start=period)
    assert warm.status == cold.status == "optimal"
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
    assert warm.duality_gap <= 1e-9
    assert warm.iterations < cold.iterations


@pytest.mark.parametrize("seed", range(20))
def test_random_40x60_matches_highs(seed):
    lp = random_instance(seed, 40, 60)
    mine = solve(lp)
    ref = scipy_solve(lp)
    assert mine.status == {0: "optimal", 2: "infeasible",
                           3: "unbounded"}[ref.status]
    if ref.status == 0:
        assert mine.objective == pytest.approx(ref.fun, rel=1e-9)
        # The duals' bound is below HiGHS's optimum, and that is below the
        # point's cost: the gap is a certificate.
        slack = 1e-9 * max(1.0, abs(ref.fun))
        assert solver._dual_bound(lp, mine.duals, lp.objective) <= (
            ref.fun + slack)
        assert ref.fun <= lp.objective @ mine.x + slack


def test_dual_bound_drops_multipliers_of_the_wrong_sign():
    # min x over [0, 5] with x >= 1 and x <= 10 has optimum 1. The
    # multiplier 0.5 on the <= row has the wrong sign: taken as it is, it
    # would claim 1 + 10 (0.5) - 5 (0.5) = 3.5. Set to 0, the bound is 1.
    lp = make_lp([1.0], [([1.0], GE, 1.0), ([1.0], LE, 10.0)], upper=[5.0])
    assert solver._dual_bound(lp, np.array([1.0, 0.5]), lp.objective) == 1.0
    assert solver._dual_bound(lp, np.array([1.0, -0.5]), lp.objective) < 1.0


@pytest.mark.parametrize("seed", range(10))
def test_perturbed_duals_still_bound_the_optimum(seed):
    # Any row multipliers, sign-clipped by the bound itself, give a lower
    # bound on the optimum. Every column is boxed here, so each bound is
    # finite.
    lp = random_instance(seed, 40, 60)
    lp = dataclasses.replace(lp, upper=np.minimum(lp.upper, 50.0))
    ref = scipy_solve(lp)
    assert ref.status == 0
    duals = solve(lp).duals
    slack = 1e-9 * max(1.0, abs(ref.fun))
    tight = solver._dual_bound(lp, duals, lp.objective)
    assert tight == pytest.approx(ref.fun, rel=1e-9)
    rng = np.random.default_rng(seed)
    for spread in (1e-6, 1e-3, 1.0):
        for _ in range(10):
            y = duals + spread * rng.normal(size=duals.size) * (
                1.0 + np.abs(duals))
            bound = solver._dual_bound(lp, y, lp.objective)
            assert np.isfinite(bound) and bound <= ref.fun + slack


# --------------------------------------------------------------------------
# starting from the basis of a neighbouring LP


def sweep_cell(bundle, seed, lcp, hve):
    """The 48 h fixture LP of the lcp+hve sweep cell (lcp, hve)."""
    return tiled_lp(bundle, 1, seed, demo_config(lcp=lcp, p_heat=hve,
                                                 p_veh=hve))


def test_cold_basis_names_m_basic_columns_and_slacks(fixture_lp):
    sol = solve(fixture_lp)
    n, m = fixture_lp.n_cols, fixture_lp.n_rows
    vstat, basic = sol.basis.factor.vstat, sol.basis.factor.basis
    assert vstat.size == n + m
    # m basic: the basic columns, and the logicals of the rows that are
    # not tight, each once in the factor's order.
    np.testing.assert_array_equal(np.sort(basic),
                                  np.flatnonzero(vstat == _Simplex.BASIC))
    assert basic.size == m
    at_upper = np.flatnonzero(vstat[:n] == _Simplex.AT_UPPER)
    np.testing.assert_allclose(sol.x[at_upper], fixture_lp.upper[at_upper],
                               rtol=1e-12)
    at_lower = np.flatnonzero(vstat[:n] == _Simplex.AT_LOWER)
    np.testing.assert_array_equal(sol.x[at_lower], fixture_lp.lower[at_lower])


@pytest.mark.parametrize("seed", range(4))
def test_warm_sweep_matches_cold(bundle, seed, monkeypatch):
    # A sweep's cell order (lcp, then hve), each cell from the last
    # optimal basis; lcp = 1 at hve = 0.4 is infeasible.
    statuses = count_optimizations(monkeypatch)
    proofs = record_certificates(monkeypatch)
    start, outcomes = None, []
    for lcp in (0.0, 0.4, 0.8, 1.0):
        for hve in (0.0, 0.4):
            lp = sweep_cell(bundle, seed, lcp, hve)
            cold, warm = solve(lp), solve(lp, start=start)
            assert warm.status == cold.status, warm.message
            if cold.status == "optimal":
                assert warm.objective == pytest.approx(cold.objective,
                                                       rel=1e-9)
                assert worst_reduced_cost(lp, warm) <= 1e-9
                assert warm.duality_gap <= 1e-9
                start = warm.basis
            else:
                assert warm.message.startswith("no feasible point")
                tol = rhs_tolerance(lp)
            outcomes.append(cold.status)
    assert outcomes.count("infeasible") == 1
    # Every solve, cold then warm, optimized once: no cell fell back to a
    # second optimization, and both certificates of the infeasible one
    # passed the check.
    assert statuses == ["optimal"] * 14 + ["infeasible"] * 2
    assert len(proofs) == 2
    assert all(bound > tol for _, bound in proofs)


def one_row_status(lp, row):
    """HiGHS's status for the LP of ``lp``'s row ``row`` alone over its
    column bounds (0 feasible, 2 infeasible)."""
    i = lp.row_names.index(row)
    a = dense_matrix(lp)[i:i + 1]
    b = lp.rhs[i:i + 1]
    sense = lp.sense[i]
    bounds = [(lo, None if np.isinf(up) else up)
              for lo, up in zip(lp.lower, lp.upper)]
    return linprog(np.zeros(lp.n_cols), bounds=bounds, method="highs",
                   **({"A_eq": a, "b_eq": b} if sense == EQ else
                      {"A_ub": a if sense == LE else -a,
                       "b_ub": b if sense == LE else -b})).status


def test_row_check_ends_lps_with_a_row_that_cannot_hold(bundle, monkeypatch):
    # On the cells of sweep --lcp 0:1:0.1 --hve 0:1:0.2, those at hve 0.6
    # or more each hold a balance row of node b that no point within the
    # column bounds meets: the row check ends them before any pivot, with
    # that row's unit multiplier, and HiGHS finds the row infeasible on its
    # own. It passes every other cell to the simplex: the 32 that HiGHS
    # finds feasible, and (lcp 1.0, hve 0.4), which needs the policy row
    # together with balance rows to be infeasible.
    proofs = record_certificates(monkeypatch)
    fired, passed = [], []
    for lcp in np.round(np.arange(0.0, 1.01, 0.1), 10):
        for hve in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            lp = sweep_cell(bundle, 0, lcp, hve)
            if solver._row_check(lp, rhs_tolerance(lp)) is None:
                passed.append(((lcp, hve), scipy_solve(lp).status))
                continue
            sol = solve(lp)
            assert (sol.status, sol.iterations) == ("infeasible", 0)
            (y, bound), = proofs
            proofs.clear()
            assert np.count_nonzero(y) == 1 and bound > rhs_tolerance(lp)
            row = lp.row_names[int(np.flatnonzero(y)[0])]
            assert row.startswith("balance[b,")
            assert sol.message.endswith(f"led by {[row]}")
            assert one_row_status(lp, row) == 2
            fired.append((lcp, hve))
    assert len(fired) == 33
    assert all(hve >= 0.6 for _, hve in fired)
    assert [cell for cell, status in passed if status != 0] == [(1.0, 0.4)]
    assert len(passed) == 33


def test_row_check_proves_misses_in_the_lps_units(monkeypatch):
    # r0 = 1e-6 x0 >= 1e-6 + 5e-8 over x0 <= 1 misses by 5e-8, under
    # tol = 1e-7, though equilibration scales r0 by 1e6, which would make
    # its working miss 5e-2. r1 = x1 >= 1 + 1e-6 misses by 1e-6, over tol,
    # in both units. The check weighs each row's miss on the LP's arrays:
    # it ends the LP with r1's certificate, which the Farkas check
    # accepts, and leaves r0 alone to the dual.
    proofs = record_certificates(monkeypatch)
    band = ([1e-6, 0.0], GE, 1e-6 + 5e-8)
    lp = make_lp([1.0, 1.0], [band, ([0.0, 1.0], GE, 1.0 + 1e-6)],
                 upper=[1.0, 1.0])
    work = solver._Working(lp, SolveOptions())
    assert work.row_scale[0] == pytest.approx(1e6)
    sol = solve(lp)
    assert (sol.status, sol.iterations) == ("infeasible", 0)
    assert sol.message.endswith("led by ['r1']")
    (_, bound), = proofs
    assert bound == pytest.approx(1e-6, rel=1e-9)
    # With r1 met, no row misses by more than tol: the dual runs.
    lp = make_lp([1.0, 1.0], [band, ([0.0, 1.0], GE, 0.5)], upper=[1.0, 1.0])
    assert solver._row_check(lp, rhs_tolerance(lp)) is None
    assert solve(lp).iterations > 0


def logical_basic(sol, lp, row):
    """Whether the logical of ``row`` is basic in ``sol``'s basis."""
    vstat = sol.basis.factor.vstat
    return vstat[lp.n_cols + lp.row_names.index(row)] == _Simplex.BASIC


def test_start_without_a_row_gives_it_a_basic_slack(bundle, monkeypatch):
    # lcp 0 -> 0.2 adds the policy_lcp row, which the start does not have:
    # its statuses are mapped by name onto a fresh working problem, with a
    # basic logical for the new row, and factored afresh.
    lp0, lp = sweep_cell(bundle, 0, 0.0, 0.0), sweep_cell(bundle, 0, 0.2, 0.0)
    assert "policy_lcp" not in lp0.row_names
    assert "policy_lcp" in lp.row_names
    before = solve(lp0)
    _, sx = before.basis.follow(lp, SolveOptions())
    assert sx.binv0 is None
    assert sx.vstat[lp.n_cols + lp.row_names.index("policy_lcp")] == (
        _Simplex.BASIC)
    statuses = count_optimizations(monkeypatch)
    warm = solve(lp, start=before.basis)
    assert statuses == ["optimal"]
    cold = solve(lp)
    assert warm.status == "optimal"
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
    assert (logical_basic(warm, lp, "policy_lcp")
            == logical_basic(cold, lp, "policy_lcp"))
    assert warm.iterations < cold.iterations


# Starts, each the optimal basis of a solved neighbour, that are not a dual
# feasible basis of two independent columns here, with the number of basic
# columns and logicals that ``complete`` is given, if it runs: the slack
# basis, carried from a neighbour with positive costs, where y has reduced
# cost -1 and no upper bound, so the dual runs on a shifted cost; the basis
# of a neighbour with both columns basic and a tight row "other" that the
# LP lacks, which maps to three basic columns and logicals for two rows and
# is completed as it is mapped; and the basis of a neighbour whose entries
# differ in both rows, which maps to two parallel basic columns and is
# completed where its factorization fails.
PRICED_WRONG_WAY = make_lp([-1.0, -1.0], [([1.0, 1.0], LE, 4.0, "cap")],
                           upper=[3.0, np.inf], col_names=("x", "y"))
PARALLEL_ROWS = make_lp([1.0, 2.0], [([1.0, 1.0], GE, 2.0, "need"),
                                     ([2.0, 2.0], LE, 10.0, "cap")],
                        col_names=("x", "y"))
# x = y = 1 is the optimum, with both rows tight.
CROSSING_ROWS = make_lp([1.0, 5.0], [([1.0, 2.0], GE, 3.0, "need"),
                                     ([2.0, 1.0], LE, 3.0, "cap")],
                        col_names=("x", "y"))
ODD_STARTS = {
    "unbounded-column-priced-wrong-way": (
        dataclasses.replace(PRICED_WRONG_WAY, objective=np.ones(2)),
        PRICED_WRONG_WAY, None),
    "too-many-basic": (
        make_lp([1.0, 2.0], [([1.0, 1.0], GE, 2.0, "need"),
                             ([1.0, -1.0], EQ, 0.0, "other")],
                col_names=("x", "y")),
        PARALLEL_ROWS, 3),
    "singular": (CROSSING_ROWS, PARALLEL_ROWS, 2),
}


@pytest.mark.parametrize("neighbour, lp, given", ODD_STARTS.values(),
                         ids=ODD_STARTS.keys())
def test_unusable_start_gives_the_cold_solution(neighbour, lp, given,
                                                monkeypatch):
    start = solve(neighbour).basis
    cold = solve(lp)
    statuses = count_optimizations(monkeypatch)
    completions = record_completions(monkeypatch)
    warm = solve(lp, start=start)
    # The start is solved from, made a basis of two independent columns
    # first where it is not: one optimization runs to the cold solution,
    # in no more pivots.
    assert statuses == ["optimal"]
    assert completions == ([] if given is None else [(given, 2)])
    assert warm.status == cold.status == "optimal"
    np.testing.assert_array_equal(warm.x, cold.x)
    assert warm.objective == cold.objective
    if given is None:
        # Nothing to complete: the carried factor pivots as the cold
        # solve does.
        assert warm.iterations == cold.iterations
        np.testing.assert_array_equal(warm.basis.factor.vstat,
                                      cold.basis.factor.vstat)
    else:
        assert warm.iterations <= cold.iterations


def test_start_with_a_tight_row_the_lp_lacks_is_completed():
    neighbour, lp, _ = ODD_STARTS["too-many-basic"]
    start = solve(neighbour).basis
    n = neighbour.n_cols
    assert (start.factor.vstat[:n] == _Simplex.BASIC).all()
    # x, y and the logical of "cap", which the neighbour lacks, map to
    # basic. Once that logical pivots on "cap", x and y are singletons of
    # "need": the first stays, and y goes to its lower bound.
    _, sx = start.follow(lp, SolveOptions())
    np.testing.assert_array_equal(sx.basis,
                                  [0, n + lp.row_names.index("cap")])
    assert sx.vstat[1] == _Simplex.AT_LOWER
    sol = solve(lp, start=start)
    assert (sol.status, sol.iterations) == ("optimal", 0)
    assert sol.objective == solve(lp).objective


def test_neighbour_differing_in_two_rows_starts_by_name(monkeypatch):
    # Both rows' entries move, so the factor is not carried: the statuses
    # go by name onto a fresh working problem, whose basis is factored
    # once and is optimal as it stands.
    start = solve(CROSSING_ROWS).basis
    lp = make_lp([1.0, 5.0], [([1.0, 2.5], GE, 3.0, "need"),
                              ([2.5, 1.0], LE, 3.5, "cap")],
                 col_names=("x", "y"))
    work, sx = start.follow(lp, SolveOptions())
    assert sx.binv0 is None
    assert work.row_scale is not start.row_scale
    np.testing.assert_array_equal(sx.vstat, start.factor.vstat)
    inverts = count_inverts(monkeypatch)
    warm = solve(lp, start=start)
    assert (warm.status, warm.iterations, len(inverts)) == ("optimal", 0, 1)
    assert warm.objective == pytest.approx(solve(lp).objective, rel=1e-12)


def test_boxed_column_priced_wrong_way_starts_at_its_upper_bound(
        monkeypatch):
    # Both columns are boxed, so the slack basis, carried from a neighbour
    # with positive costs, becomes dual feasible by moving them to their
    # upper bounds; the dual simplex then restores the violated row.
    lp = make_lp([-1.0, -2.0], [([1.0, 1.0], LE, 4.0, "cap")],
                 upper=[3.0, 3.0], col_names=("x", "y"))
    start = solve(dataclasses.replace(lp, objective=np.ones(2))).basis
    assert (start.factor.vstat == [_Simplex.AT_LOWER, _Simplex.AT_LOWER,
                                   _Simplex.BASIC]).all()
    statuses = count_optimizations(monkeypatch)
    sol = solve(lp, start=start)
    assert statuses == ["optimal"]
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [1.0, 3.0])
    assert list(sol.basis.factor.vstat[:2]) == [_Simplex.BASIC,
                                                _Simplex.AT_UPPER]


def test_infeasible_lp_from_a_start_is_certified_without_a_cold_solve(
        bundle, monkeypatch):
    feasible = solve(sweep_cell(bundle, 0, 0.8, 0.4))
    lp = sweep_cell(bundle, 0, 1.0, 0.4)
    statuses = count_optimizations(monkeypatch)
    proofs = record_certificates(monkeypatch)
    warm = solve(lp, start=feasible.basis)
    assert warm.status == "infeasible"
    # The dual from the start ended infeasible, its certificate passed the
    # check, and no solve from the slack basis followed.
    assert statuses == ["infeasible"]
    (y, bound), = proofs
    assert bound > rhs_tolerance(lp)
    led_by = np.argsort(-np.abs(y), kind="stable")[:5]
    assert warm.message.endswith(
        f"{[lp.row_names[i] for i in led_by if y[i] != 0.0]}")
    assert solve(lp).status == "infeasible"


def with_rows_doubled(lp, rows):
    """``lp`` with the entries and right-hand sides of ``rows`` doubled:
    the same feasible set from other entries."""
    data, rhs = lp.data.copy(), lp.rhs.copy()
    for i in rows:
        data[lp.indptr[i]:lp.indptr[i + 1]] *= 2.0
        rhs[i] *= 2.0
    return dataclasses.replace(lp, data=data, rhs=rhs)


def test_start_at_the_optimum_inverts_the_basis_once(fixture_lp,
                                                     monkeypatch):
    # The basis solve returns carries its factor, so a restart from it
    # inverts nothing.
    cold = solve(fixture_lp)
    doubled = solve(with_rows_doubled(fixture_lp, (0, 1)))
    inverts = count_inverts(monkeypatch)
    carried = solve(fixture_lp, start=cold.basis)
    assert carried.status == "optimal"
    assert (carried.iterations, len(inverts)) == (0, 0)
    assert carried.objective == pytest.approx(cold.objective, rel=1e-12)
    # The optimum of the LP with two rows doubled has the same basis, but
    # not the entries the factor was carried with: it is mapped by name and
    # factored afresh. No pivot follows optimize's factorization, so the end
    # of the solve reads the basic values off that factor instead of
    # building it again.
    start = doubled.basis
    warm = solve(fixture_lp, start=start)
    assert warm.status == "optimal"
    assert (warm.iterations, len(inverts)) == (0, 1)
    # The same solve with the refactorization that used to end every
    # solve, and that _invert repeats bit for bit, returns the same bytes.
    optimize = _Simplex.optimize

    def then_refactor(self, c, max_iterations):
        status = optimize(self, c, max_iterations)
        self.refactor()
        return status

    monkeypatch.setattr(_Simplex, "optimize", then_refactor)
    again = solve(fixture_lp, start=start)
    assert len(inverts) == 3
    np.testing.assert_array_equal(warm.x, again.x)
    np.testing.assert_array_equal(warm.duals, again.duals)
    np.testing.assert_array_equal(warm.basis.factor.vstat,
                                  again.basis.factor.vstat)
    assert warm.iterations == again.iterations


def lcp_06_lp(bundle):
    """The fixture's LP at lcp 0.6, whose entries differ from the fixture's
    own (lcp 0.4) in the policy_lcp row alone."""
    config = load_config(FIXTURE_DIR / "scenario.json")
    return tiled_lp(bundle, 1, 0, dataclasses.replace(config, lcp=0.6))


def test_changed_row_is_folded_into_the_factor(bundle, fixture_lp):
    # lcp 0.4 -> 0.6 changes the entries of the policy_lcp row alone. The
    # factor carried from the lcp 0.4 optimum, with one Sherman-Morrison
    # term, inverts the lcp 0.6 LP's basis, in the old factor's order.
    # The residual is measured against max |B^-1| max |B|: this basis has
    # condition number 5.6e8, and a fresh inverse of it reads 3e-9.
    lp = lcp_06_lp(bundle)
    moved = np.unique(lp.row_of[lp.data != fixture_lp.data])
    assert [lp.row_names[i] for i in moved] == ["policy_lcp"]
    start = solve(fixture_lp).basis
    old = start.factor
    _, sx = start.follow(lp, SolveOptions())
    np.testing.assert_array_equal(sx.basis, old.basis)
    assert sx.k == len(old.u) + 1
    basis = sx._dense(sx.basis)

    def residual(binv0, u, v):
        binv = binv0 - u.T @ v
        return np.abs(binv @ basis - np.eye(sx.m)).max() / (
            np.abs(binv).max() * np.abs(basis).max())

    assert residual(sx.binv0, sx.u[:sx.k], sx.v[:sx.k]) <= 1e-12
    # The factor before the patch does not.
    assert residual(sx.binv0, old.u, old.v) > 1e-9
    sol = solve(lp, start=start)
    assert sol.objective == pytest.approx(solve(lp).objective, rel=1e-9)


@pytest.mark.parametrize("failure", ["numerical"])
def test_failed_carried_solve_falls_to_the_slack_basis(bundle, fixture_lp,
                                                       failure, monkeypatch):
    # The carried solve from the lcp 0.4 optimum to lcp 0.6 is made to end
    # in a point that misses the rows. The solve then runs from the slack
    # basis, and reports that solve's point with the iterations of both.
    lp = lcp_06_lp(bundle)
    start = solve(fixture_lp).basis
    carried, cold = solve(lp, start=start), solve(lp)
    assert carried.iterations > 0
    tries = []
    optimize = _Simplex.optimize

    def count_first(self, c, max_iterations):
        status = optimize(self, c, max_iterations)
        tries.append(self.iterations)
        return status

    conclude = solver._Working.conclude

    def numerical_first(self, sx, status):
        if len(tries) == 1:
            tries.append(None)
            return solver._no_solution(failure, sx.iterations, "forced")
        return conclude(self, sx, status)

    monkeypatch.setattr(_Simplex, "optimize", count_first)
    monkeypatch.setattr(solver._Working, "conclude", numerical_first)
    sol = solve(lp, start=start)
    assert tries[0] == carried.iterations
    assert sol.status == "optimal"
    assert sol.iterations == carried.iterations + cold.iterations
    np.testing.assert_array_equal(sol.x, cold.x)
    np.testing.assert_array_equal(sol.duals, cold.duals)


def test_refined_point_that_misses_the_rows_is_refactored(fixture_lp,
                                                          monkeypatch):
    # A solve that pivoted reads its point off the updated factor. Spoiled
    # after the refinement, that point misses the rows, so the factor is
    # rebuilt and the point read again from it.
    cold = solve(fixture_lp)
    inverts = count_inverts(monkeypatch)
    refine = _Simplex.refine
    spoiled = []

    def spoil(self, c):
        y = refine(self, c)
        assert self.k
        self.xb += 1.0
        spoiled.append(len(inverts))
        return y

    monkeypatch.setattr(_Simplex, "refine", spoil)
    sol = solve(fixture_lp)
    assert spoiled and len(inverts) == spoiled[0] + 1
    assert sol.status == "optimal"
    assert sol.max_violation <= 10.0 * rhs_tolerance(fixture_lp)
    assert sol.objective == pytest.approx(cold.objective, rel=1e-9)


def test_near_singular_patch_takes_a_fresh_factor(monkeypatch):
    # "gap" x - y <= 1 becomes x + y <= 1: with x and y basic, the new
    # basis repeats the row "cap", and 1 + dB^T B^-1 e_p is 0. The patch is
    # refused, and the statuses, mapped by name onto a fresh working
    # problem, name that singular basis. Its factorization fails, so it is
    # completed, with y replaced by a logical, and solved from.
    cap = ([1.0, 1.0], LE, 4.0, "cap")
    lp0 = make_lp([-1.0, -1.0], [cap, ([1.0, -1.0], LE, 1.0, "gap")],
                  col_names=("x", "y"))
    lp = make_lp([-1.0, -1.0], [cap, ([1.0, 1.0], LE, 1.0, "gap")],
                 col_names=("x", "y"))
    start = solve(lp0).basis
    assert (start.factor.vstat[:2] == _Simplex.BASIC).all()
    patches = []
    patch_row = _Simplex.patch_row

    def spy(self, p, delta):
        patches.append(patch_row(self, p, delta))
        return patches[-1]

    monkeypatch.setattr(_Simplex, "patch_row", spy)
    _, sx = start.follow(lp, SolveOptions())
    assert patches == [False]
    assert sx.binv0 is None
    np.testing.assert_array_equal(sx.vstat, start.factor.vstat)
    inverts = count_inverts(monkeypatch)
    statuses = count_optimizations(monkeypatch)
    completions = record_completions(monkeypatch)
    sol = solve(lp, start=start)
    assert patches == [False, False]
    assert inverts and statuses == ["optimal"]
    assert completions == [(2, 2)]
    assert sol.basis.factor.vstat[1] == _Simplex.AT_LOWER
    cold = solve(lp)
    assert sol.status == cold.status == "optimal"
    assert sol.objective == pytest.approx(cold.objective, rel=1e-12)
    assert sol.iterations <= cold.iterations


def test_drifted_factor_is_rebuilt_at_the_next_pivot(fixture_lp, monkeypatch):
    # One stored update term is perturbed once, in the dual simplex,
    # between the pivot row (read from the clean factor) and the FTRAN of
    # the entering column (from the perturbed one). The pivot's two
    # readings then part, and that pivot refactors.
    ref = scipy_solve(fixture_lp)
    causes = record_refactors(monkeypatch)
    pivots = []
    pivot = _Simplex._pivot

    def counted(self, *args):
        pivots.append(len(causes))
        return pivot(self, *args)

    monkeypatch.setattr(_Simplex, "_pivot", counted)
    row = _Simplex._row
    perturbed = []

    def perturb(self, r):
        out = row(self, r)
        if not perturbed and len(pivots) >= 50 and self.k:
            assert sys._getframe(1).f_code.co_name == "dual"
            self.u[self.k - 1] += 1e-3
            self.v[self.k - 1] += 1e-3
            perturbed.append((len(pivots), len(causes)))
        return out

    monkeypatch.setattr(_Simplex, "_row", perturb)
    sol = solve(fixture_lp)
    (at, refactors), = perturbed
    assert causes[refactors:refactors + 1] == ["drift"]
    assert pivots[at] == refactors  # the next pivot is the one
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(ref.fun + fixture_lp.offset,
                                          rel=1e-9)


def test_cold_solve_reaches_the_optimum_of_a_scaled_column(bundle):
    # An earlier simplex, at optimality_tol 1e-7, stopped 3.9e-8 relative
    # above HiGHS on this cell with batt_discharge[b,20] at its lower bound
    # priced -0.009: a reduced cost within the tolerance in the
    # equilibrated problem, which that column's scale magnifies. Today's
    # simplex reaches the optimum here at every tolerance from 1e-9 to
    # 1e-2, so the cell no longer shows that stop; it stays as a check of
    # the optimum on a cell whose columns span a wide range of scales.
    lp = tiled_lp(bundle, 1, 5, demo_config(
        mode="ghg+hve", lcp=None, omega=0.05, p_heat=0.0, p_veh=0.0))
    ref = scipy_solve(lp)
    assert ref.status == 0
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(ref.fun + lp.offset, rel=1e-9)


def test_imported_solution_has_no_basis(fixture_lp):
    sol = solve(fixture_lp)
    imported = import_solution(fixture_lp, dict(zip(fixture_lp.col_names,
                                                    sol.x.tolist())))
    assert imported.status == "optimal"
    assert imported.basis is None


# --------------------------------------------------------------------------
# a long horizon started from its first half


@pytest.mark.parametrize("seed", range(4))
def test_192h_period_start_reaches_the_cold_optimum(bundle, seed):
    # The 96 h case is part of test_fixture_tiled_to_96h_matches_highs.
    lp, period = period_pair(bundle, 4, seed)
    check_period_start(lp, period, solve(lp))


def test_folded_basis_is_topped_up_with_the_logicals_it_lacks(bundle,
                                                               monkeypatch):
    # The capacity columns appear once in the 96 h LP, not once per 48 h,
    # so the folded statuses name one basic too few; one logical completes
    # them to a nonsingular basis, of least dual among the choices.
    lp, period = period_pair(bundle, 2)
    start = solve(period)
    fold = period_map(lp, period)
    added = []
    complete = _Simplex.complete

    def spy(self, weight):
        before = self.vstat.copy()
        complete(self, weight)
        added.extend(np.flatnonzero(self.vstat != before))
        assert np.linalg.matrix_rank(self._dense(self.basis)) == self.m

    monkeypatch.setattr(_Simplex, "complete", spy)
    work, sx = start.basis.follow(lp, SolveOptions(), fold)
    assert sx.basis.size == lp.n_rows
    (logical,) = added
    assert logical >= lp.n_cols


def test_infeasible_period_gives_the_cold_solution(bundle):
    # A start whose own solve ends infeasible is not folded: the solve
    # runs from the slack basis and counts both tries' iterations.
    lp, _ = period_pair(bundle, 2)
    period = sweep_cell(bundle, 0, 1.0, 0.4)
    assert period_map(lp, period) is not None
    failed, cold = solve(period), solve(lp)
    assert failed.status == "infeasible" and failed.iterations > 0
    sol = solve(lp, start=period)
    assert sol.status == "optimal"
    assert sol.iterations == failed.iterations + cold.iterations
    np.testing.assert_array_equal(sol.x, cold.x)


def test_singular_folded_start_is_repaired(bundle, monkeypatch):
    # The completion of the folded basis is made to pick the logical of
    # balance[a,0], with which that basis is singular. Its factorization
    # fails before any pivot, the refactor completes it again, and the
    # solve goes on from it to the cold optimum, with no slack basis.
    lp, period = period_pair(bundle, 2)
    first, cold = solve(period), solve(lp)
    complete = _Simplex.complete

    def wrong_row(self, weight):
        before = self.vstat.copy()
        complete(self, weight)
        changed = self.vstat != before
        if not completions:
            self.vstat[changed] = before[changed]
            self.vstat[lp.n_cols + lp.row_names.index("balance[a,0]")] = (
                _Simplex.BASIC)
            self.basis = np.flatnonzero(self.vstat == _Simplex.BASIC)

    monkeypatch.setattr(_Simplex, "complete", wrong_row)
    completions = record_completions(monkeypatch)
    statuses = count_optimizations(monkeypatch)
    sol = solve(lp, start=period)
    m = lp.n_rows
    assert completions == [(m - 1, m - 1), (m, m)]
    assert statuses == ["optimal", "optimal"]  # the period, the start
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(cold.objective, rel=1e-9)
    assert sol.duality_gap <= 1e-9
    assert first.iterations < sol.iterations < first.iterations + (
        cold.iterations)


def test_start_that_does_not_fold_is_not_solved(bundle, monkeypatch):
    lp, period = period_pair(bundle, 2)
    statuses = count_optimizations(monkeypatch)
    sol = solve(period, start=lp)
    assert statuses == ["optimal"]
    assert sol.iterations == solve(period).iterations
