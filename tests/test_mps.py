"""MPS writer and solution importer, cross-checked through an
independent reader feeding an external solver."""

from __future__ import annotations

import hashlib
import io
import re

import numpy as np
import pytest

from _mpsread import read_mps, solve_mps_with_highs
from gridplan import solver
from gridplan.formulation import EQ, GE, LE, LPError
from gridplan.runner import load_bundle
from gridplan.solver import export_mps, import_solution, mps_name_map, solve
from helpers import make_lp, mps_lines_oracle
from test_solver import FIXTURE_DIR, random_instance, tiled_lp


def two_var_lp():
    return make_lp([2.0, 3.0],
                   [([1.0, 1.0], GE, 4.0, "floor"),
                    ([1.0, 0.0], LE, 3.0, "cap")])


class TestExport:
    def test_external_solver_agrees_on_small_vertex(self):
        text = export_mps(two_var_lp())
        status, objective, _ = solve_mps_with_highs(text)
        assert status == "optimal"
        assert objective == pytest.approx(9.0, abs=1e-9)

    def test_sections_present(self):
        text = export_mps(two_var_lp())
        for section in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
            assert section in text

    def test_empty_objective_single_row(self):
        lp = make_lp([0.0, 0.0], [([1.0, 2.0], LE, 4.0)])
        status, objective, _ = solve_mps_with_highs(export_mps(lp))
        assert status == "optimal"
        assert objective == pytest.approx(0.0, abs=1e-12)

    def test_offset_in_comment_and_readded(self):
        lp = make_lp([1.0], [([1.0], GE, 3.0)], offset=42.0)
        text = export_mps(lp)
        assert "* OFFSET" in text
        status, objective, _ = solve_mps_with_highs(text)
        assert status == "optimal"
        assert objective == pytest.approx(45.0, abs=1e-9)

    def test_byte_stable(self):
        lp = random_instance(11, 6, 9)
        assert export_mps(lp) == export_mps(lp)

    def test_long_names_mangled_to_eight_chars(self):
        lp = make_lp(
            [1.0, 1.0],
            [([1.0, 1.0], GE, 2.0, "a-very-long-row-name:node:17")],
            col_names=("first_extremely_long_column_name",
                       "second_extremely_long_column_name"),
        )
        text = export_mps(lp)
        for line in text.splitlines():
            if line.startswith("*") or not line[:1].isspace():
                continue
            for token in line.split():
                try:
                    float(token)
                except ValueError:
                    assert len(token) <= 8, token

    def test_mangling_collision_reported(self):
        lp = make_lp([1.0, 1.0],
                     [([1.0, 1.0], GE, 2.0)],
                     col_names=("x:1", "x_1"))
        with pytest.raises(LPError) as err:
            export_mps(lp)
        assert str(err.value) == ("MPS name collision: 'x:1' and 'x_1' "
                                  "both mangle to 'x_1'")

    def test_first_collision_in_column_then_row_order(self):
        lp = make_lp([1.0, 1.0],
                     [([1.0, 1.0], GE, 2.0, "b-2"), ([1.0, 0.0], GE, 0.0,
                                                      "a.1")],
                     col_names=("a:1", "b:2"))
        with pytest.raises(LPError) as err:
            mps_name_map(lp)
        assert str(err.value) == ("MPS name collision: 'b:2' and 'b-2' "
                                  "both mangle to 'b_2'")

    @pytest.mark.parametrize("cols, row, reserved", [
        (("RHS", "x"), "COST", "RHS"),
        (("x", "y"), "COST", "COST"),
        (("x", "BND"), "r", "BND"),
    ])
    def test_reserved_name_rejected(self, cols, row, reserved):
        # A row named COST would be a second objective row; a column
        # named RHS or BND would read as the RHS or bound set.
        lp = make_lp([1.0, 1.0], [([1.0, 1.0], GE, 2.0, row)],
                     col_names=cols)
        with pytest.raises(LPError, match=f"'{reserved}' is a reserved "
                           "MPS name"):
            export_mps(lp)

    def test_row_may_share_a_column_name(self):
        lp = make_lp([1.0, 1.0], [([1.0, 1.0], GE, 2.0, "x")],
                     col_names=("x", "y"))
        assert mps_name_map(lp) == {"x": "x", "y": "y"}
        status, objective, _ = solve_mps_with_highs(export_mps(lp))
        assert status == "optimal"
        assert objective == pytest.approx(2.0)

    def test_senses_round_trip(self):
        lp = make_lp([1.0, 1.0, 1.0],
                     [([1.0, 0.0, 0.0], LE, 5.0, "le_row"),
                      ([0.0, 1.0, 0.0], GE, 1.0, "ge_row"),
                      ([0.0, 0.0, 1.0], EQ, 2.0, "eq_row")])
        data = read_mps(export_mps(lp))
        assert sorted(data.senses.values()) == ["E", "G", "L"]
        status, objective, _ = solve_mps_with_highs(export_mps(lp))
        assert objective == pytest.approx(solve(lp).objective, abs=1e-9)

    def test_fixed_and_upper_bounds_encoded(self):
        lp = make_lp([-1.0, -1.0, 5.0],
                     [([1.0, 1.0, 1.0], LE, 100.0)],
                     lower=[0.0, 1.5, 0.0],
                     upper=[4.0, 1.5, 0.0])
        text = export_mps(lp)
        data = read_mps(text)
        assert data.upper[data.col_order[0]] == pytest.approx(4.0)
        assert data.lower[data.col_order[1]] == pytest.approx(1.5)
        assert data.upper[data.col_order[1]] == pytest.approx(1.5)
        # zero-width bound must not be mistaken for a free variable
        assert data.upper[data.col_order[2]] == pytest.approx(0.0)
        assert data.lower[data.col_order[2]] == pytest.approx(0.0)
        status, objective, _ = solve_mps_with_highs(text)
        assert objective == pytest.approx(solve(lp).objective, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_random_cross_solver_agreement(self, seed):
        lp = random_instance(seed, 8, 12)
        mine = solve(lp)
        status, objective, _ = solve_mps_with_highs(export_mps(lp))
        assert (mine.status == "optimal") == (status == "optimal")
        if status == "optimal":
            rel = abs(mine.objective - objective) / max(1.0, abs(objective))
            assert rel <= 1e-6


# MPS names and text as written before the name function was vectorized.
PINNED_NAMES = {
    "balance[a,18]": "baY17ECX",
    "cap_us_solar[a]": "caGUT4J3",
    "flow-out[a,b,17]": "flBQG75I",    # two long names sharing a head
    "flow-out[a,b,18]": "flXJQV67",
    "g\u00e9n\u00e9r\u00e9-\u00e0-Z\u00fcrich:1": "g_UP10W0",
    "\u00e9t\u00e9": "_t_",
    "x:1": "x_1",
    "ab.c-d": "ab_c_d",
    "y": "y",
    "EXACTLY8": "EXACTLY8",
    "NINECHARS": "NIZRMDEX",
}

PINNED_MPS = (
    "* OFFSET 42.0\n"
    "NAME          GRIDPLAN\n"
    "ROWS\n"
    " N  COST\n"
    " G  fl5W27K4\n"
    " L  cap     \n"
    " E  eq      \n"
    "COLUMNS\n"
    "    bu2BSERV  COST      2.0\n"
    "    bu2BSERV  fl5W27K4  1.0\n"
    "    bu2BSERV  cap       3.0\n"
    "    x         COST      -0.0\n"
    "    x         fl5W27K4  1e-16\n"
    "    x         eq        -2.0\n"
    "    y         COST      1e-16\n"
    "    y         cap       1.0\n"
    "    y         eq        0.1\n"
    "    z         COST      0.0\n"
    "    z         cap       2.5\n"
    "    z         eq        1.0\n"
    "RHS\n"
    "    RHS       fl5W27K4  4.0\n"
    "    RHS       eq        -1.5\n"
    "BOUNDS\n"
    " FX BND       x         1.5\n"
    " LO BND       y         -2.0\n"
    " UP BND       y         7.0\n"
    "ENDATA\n"
)


class TestPinnedBytes:
    def test_name_map(self):
        names = tuple(PINNED_NAMES)
        lp = make_lp([0.0] * len(names),
                     [([1.0] * len(names), GE, 1.0, "r")], col_names=names)
        assert mps_name_map(lp) == {**PINNED_NAMES, "r": "r"}

    def test_export_text(self):
        # -0.0 and 0.0 costs print apart; 1e-16 keeps its exponent; a
        # fixed column, a nonzero lower bound and an infinite upper one.
        lp = make_lp([2.0, -0.0, 1e-16, 0.0],
                     [([1.0, 1e-16, 0.0, 0.0], GE, 4.0, "floor-row:long"),
                      ([3.0, 0.0, 1.0, 2.5], LE, 0.0, "cap"),
                      ([0.0, -2.0, 0.1, 1.0], EQ, -1.5, "eq")],
                     lower=[0.0, 1.5, -2.0, 0.0],
                     upper=[np.inf, 1.5, 7.0, np.inf],
                     col_names=("build_capacity[a]", "x", "y", "z"),
                     offset=42.0)
        assert export_mps(lp) == PINNED_MPS


def per_name_mps_name(name: str) -> str:
    """The MPS name rule of ``solver._mps_names``, one name at a time."""
    clean = re.sub(r"[^A-Za-z0-9]", "_", name)
    if len(clean) <= 8:
        return clean
    value = int.from_bytes(
        hashlib.blake2b(name.encode(), digest_size=8).digest(), "big")
    digits = ""
    for _ in range(6):
        value, digit = divmod(value, 36)
        digits += "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"[digit]
    return clean[:2] + digits


class TestMpsNames:
    def test_matches_per_name_rule(self):
        names = ["", "abcdefgh", "abcdefghi", "a[b]", "x[1,2]", "a>b",
                 "flow[a>b,17]", "ab,cd,ef,gh", "\u00e9\u00e9_long_name",
                 "long_name_\u00e9", "\u00e9", "ab_shared_tail_1",
                 "ab_shared_tail_2"]
        assert solver._mps_names(names) == [per_name_mps_name(name)
                                            for name in names]

    def test_no_names(self):
        assert solver._mps_names([]) == []


class TestLineWriter:
    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    def test_matches_per_line_rendering(self, chunk, monkeypatch):
        # Both zeros, a tiny and a huge value, and values that repeat.
        rng = np.random.default_rng(3)
        values = rng.choice([0.0, -0.0, 1e-16, 2.5, -1.0 / 3.0, 1e300],
                            size=50)
        values[:2] = (0.0, -0.0)
        left, right = rng.integers(0, 3, 50), rng.integers(0, 4, 50)
        left_text = [f"    c{i:<7}  " for i in range(3)]
        right_text = [f"r\u00e9{j:<6}  " for j in range(4)]
        monkeypatch.setattr(solver, "_LINES_CHUNK", chunk)
        buf = io.StringIO()
        solver._write_lines(buf, (left_text, left), (right_text, right),
                            solver._float_text(values, "\n"))
        assert buf.getvalue() == mps_lines_oracle(left_text, left,
                                                  right_text, right, values)

    def test_no_lines(self):
        buf = io.StringIO()
        solver._write_lines(buf, (["x"], np.zeros(0, dtype=np.int64)),
                            solver._float_text(np.zeros(0), "\n"))
        assert buf.getvalue() == ""

    def test_chunk_ends_mid_section_write_the_same_bytes(self, monkeypatch):
        lp = tiled_lp(load_bundle(FIXTURE_DIR), 7)
        whole = export_mps(lp)
        monkeypatch.setattr(solver, "_LINES_CHUNK", 7)
        assert export_mps(lp) == whole


class TestImportSolution:
    def test_round_trip_own_solution(self):
        lp = random_instance(3, 6, 9)
        mine = solve(lp)
        assert mine.status == "optimal"
        text = "\n".join(f"{name} {float(value)!r}" for name, value
                         in zip(lp.col_names, mine.x))
        imported = import_solution(lp, text)
        assert imported.status == "optimal"
        assert imported.objective == pytest.approx(mine.objective,
                                                   rel=1e-9, abs=1e-9)

    def test_mangled_names_accepted(self):
        lp = make_lp(
            [2.0, 3.0],
            [([1.0, 1.0], GE, 4.0)],
            col_names=("first_extremely_long_column_name",
                       "second_extremely_long_column_name"),
            upper=[3.0, np.inf],
        )
        text = export_mps(lp)
        status, _, values = solve_mps_with_highs(text)
        assert status == "optimal"
        sol_text = "\n".join(f"{k} {float(v)!r}" for k, v in values.items())
        imported = import_solution(lp, sol_text)
        assert imported.status == "optimal"
        assert imported.objective == pytest.approx(9.0, abs=1e-8)

    def test_original_and_mangled_names_mixed(self):
        lp = make_lp(
            [2.0, 3.0],
            [([1.0, 1.0], GE, 4.0)],
            col_names=("first_extremely_long_column_name",
                       "second_extremely_long_column_name"),
            upper=[3.0, np.inf],
        )
        short = mps_name_map(lp)["second_extremely_long_column_name"]
        assert short != "second_extremely_long_column_name"
        imported = import_solution(
            lp, f"first_extremely_long_column_name 3.0\n{short} 1.0\n")
        assert imported.status == "optimal"
        np.testing.assert_array_equal(imported.x, [3.0, 1.0])

    def test_external_matches_builtin_on_random(self):
        lp = random_instance(12, 7, 10, allow_eq=False)
        mine = solve(lp)
        assert mine.status == "optimal"
        _, _, values = solve_mps_with_highs(export_mps(lp))
        imported = import_solution(lp, values)
        assert imported.objective == pytest.approx(mine.objective, rel=1e-6)

    def test_infeasible_point_flagged(self):
        lp = two_var_lp()
        imported = import_solution(lp, {"x0": 0.0, "x1": 0.0})
        assert imported.status == "infeasible"
        assert imported.max_violation > 1e-7
        assert "floor" in imported.message

    def test_bound_only_violation_names_columns_worst_first(self):
        lp = make_lp([1.0, 1.0], [([1.0, 1.0], GE, 2.0)], upper=[3.0, 3.0])
        imported = import_solution(lp, {"x0": 5.0, "x1": -1.0})
        assert imported.status == "infeasible"
        assert imported.max_violation == pytest.approx(2.0)
        assert imported.message == (
            "imported point violates 2 column bounds beyond tolerance "
            "(worst 2.000e+00): ['x0', 'x1']")

    def test_rows_named_worst_first(self):
        # At (0, 3) "floor" misses by 1 and "cap" by 2; at (-1, 3) "floor"
        # misses by 2, "cap" by 1 and x0 its lower bound by 1.
        lp = make_lp([2.0, 3.0],
                     [([1.0, 1.0], GE, 4.0, "floor"),
                      ([1.0, 0.0], LE, -2.0, "cap")])
        imported = import_solution(lp, {"x0": 0.0, "x1": 3.0})
        assert imported.message == (
            "imported point violates 2 rows beyond tolerance (worst "
            "2.000e+00): ['cap', 'floor']")
        imported = import_solution(lp, {"x0": -1.0, "x1": 3.0})
        assert imported.message == (
            "imported point violates 2 rows beyond tolerance (worst "
            "2.000e+00): ['floor', 'cap'] and 1 column bounds beyond "
            "tolerance (worst 1.000e+00): ['x0']")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_flagged(self, value):
        imported = import_solution(two_var_lp(), {"x0": value, "x1": 2.0})
        assert imported.status == "infeasible"
        assert imported.max_violation == np.inf
        assert "non-finite" in imported.message
        assert "['x0']" in imported.message

    def test_missing_variable_rejected(self):
        lp = two_var_lp()
        with pytest.raises(LPError, match="x1"):
            import_solution(lp, {"x0": 4.0})

    def test_unknown_name_rejected(self):
        lp = two_var_lp()
        with pytest.raises(LPError, match="mystery"):
            import_solution(lp, {"x0": 4.0, "x1": 0.0, "mystery": 1.0})

    def test_column_given_twice_rejected(self):
        # The repeat is the error, not the row the last value breaks.
        with pytest.raises(LPError, match="'x0' twice"):
            import_solution(two_var_lp(), "x0 3.0\nx1 1.0\nx0 100.0")

    def test_column_given_by_both_names_rejected(self):
        lp = make_lp(
            [2.0, 3.0],
            [([1.0, 1.0], GE, 4.0)],
            col_names=("first_extremely_long_column_name",
                       "second_extremely_long_column_name"),
        )
        short = mps_name_map(lp)["second_extremely_long_column_name"]
        lines = ["first_extremely_long_column_name 3.0",
                 "second_extremely_long_column_name 1.0", f"{short} 5.0"]
        for order in (lines, lines[::-1]):
            with pytest.raises(LPError, match="second_extremely_long_column"
                               "_name' twice"):
                import_solution(lp, "\n".join(order))

    def test_objective_recomputed_not_trusted(self):
        # Import recomputes objective and slacks from the point itself;
        # a feasible but suboptimal point is accepted with its true cost.
        lp = make_lp([1.0], [([1.0], GE, 3.0)], offset=10.0)
        imported = import_solution(lp, {"x0": 5.0})
        assert imported.status == "optimal"
        assert imported.objective == pytest.approx(15.0)
        assert imported.slacks[0] == pytest.approx(2.0)
