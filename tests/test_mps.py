"""MPS writer and solution importer, cross-checked through an
independent reader feeding an external solver."""

from __future__ import annotations

import numpy as np
import pytest

from _mpsread import read_mps, solve_mps_with_highs
from gridplan.formulation import EQ, GE, LE, LPError
from gridplan.solver import export_mps, import_solution, mps_name_map, solve
from helpers import make_lp
from test_solver import random_instance


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
        with pytest.raises(LPError, match="x:1|x_1"):
            export_mps(lp)

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
