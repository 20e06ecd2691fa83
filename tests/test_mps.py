"""MPS writer and solution importer, cross-checked through an
independent reader feeding an external solver."""

from __future__ import annotations

import io

import numpy as np
import pytest

from _mpsread import read_mps, solve_mps_with_highs
from gridplan import solver
from gridplan.formulation import EQ, GE, LE, LPError
from gridplan.runner import load_bundle, load_config, run_scenario
from gridplan.solver import export_mps, import_solution, solve, write_mps
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

    def test_names_whose_hashes_collided_export(self):
        # An 8-character hash of the name gave both 'ba68VZZE'; names by
        # position cannot collide.
        lp = make_lp([1.0, 2.0],
                     [([1.0, 1.0], GE, 3.0), ([1.0, 0.0], LE, 2.0)],
                     col_names=("balance[east,8481]", "balance[west,5060]"))
        status, _, values = solve_mps_with_highs(export_mps(lp))
        assert status == "optimal"
        imported = import_solution(lp, values)
        assert imported.status == "optimal"
        assert imported.objective == pytest.approx(4.0, abs=1e-9)

    def test_mps_words_are_ordinary_names(self):
        # COST, RHS and BND name the objective row and the RHS and bound
        # sets in the file; the LP may use them for its own rows and
        # columns, and rows may share a name.
        lp = make_lp([1.0, 2.0], [([1.0, 1.0], GE, 3.0, "COST"),
                                  ([1.0, 0.0], LE, 2.0, "COST")],
                     col_names=("RHS", "BND"))
        status, objective, values = solve_mps_with_highs(export_mps(lp))
        assert status == "optimal"
        assert objective == pytest.approx(4.0, abs=1e-9)
        assert import_solution(lp, values).status == "optimal"

    def test_row_may_share_a_column_name(self):
        lp = make_lp([1.0, 1.0], [([1.0, 1.0], GE, 2.0, "x")],
                     col_names=("x", "y"))
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


# The MPS text of one small LP: names by position, both zeros, a tiny
# coefficient, and each kind of bound line.
PINNED_MPS = (
    "* OFFSET 42.0\n"
    "NAME          GRIDPLAN\n"
    "ROWS\n"
    " N  COST\n"
    " G  R0      \n"
    " L  R1      \n"
    " E  R2      \n"
    "COLUMNS\n"
    "    C0        COST      2.0\n"
    "    C0        R0        1.0\n"
    "    C0        R1        3.0\n"
    "    C1        COST      -0.0\n"
    "    C1        R0        1e-16\n"
    "    C1        R2        -2.0\n"
    "    C2        COST      1e-16\n"
    "    C2        R1        1.0\n"
    "    C2        R2        0.1\n"
    "    C3        COST      0.0\n"
    "    C3        R1        2.5\n"
    "    C3        R2        1.0\n"
    "RHS\n"
    "    RHS       R0        4.0\n"
    "    RHS       R2        -1.5\n"
    "BOUNDS\n"
    " FX BND       C1        1.5\n"
    " LO BND       C2        -2.0\n"
    " UP BND       C2        7.0\n"
    "ENDATA\n"
)


class TestPinnedBytes:
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
        solver.write_lines(buf, (left_text, left), (right_text, right),
                           solver.float_text(values, "\n"))
        assert buf.getvalue() == mps_lines_oracle(left_text, left,
                                                  right_text, right, values)

    def test_no_lines(self):
        buf = io.StringIO()
        solver.write_lines(buf, (["x"], np.zeros(0, dtype=np.int64)),
                           solver.float_text(np.zeros(0), "\n"))
        assert buf.getvalue() == ""

    def test_chunk_ends_mid_section_write_the_same_bytes(self, monkeypatch):
        lp = tiled_lp(load_bundle(FIXTURE_DIR), 7)
        whole = export_mps(lp)
        for chunk in (1, 7, solver._LINES_CHUNK):
            monkeypatch.setattr(solver, "_LINES_CHUNK", chunk)
            buf = io.StringIO()
            assert write_mps(lp, buf) == len(whole)
            assert buf.getvalue() == whole

    @pytest.mark.parametrize("numbers", [
        [0, 1, 9, 10, 99, 100, 123456, 999999, 1000000, 9999999],
        [10 ** 7 - 1, 10 ** 7, 123456789], [], [5, -1]])
    def test_numbered_names_match_per_name_rendering(self, numbers):
        numbers = np.array(numbers, dtype=np.int64)
        for head, tail in (("    C", "  "), ("R", "\n")):
            assert solver._numbered(head, numbers, tail) == [
                f"{head}{i:<7}{tail}" for i in numbers.tolist()]


class RecordingStream:
    """A text stream that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


class TestWriteMps:
    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    def test_no_write_holds_more_than_a_chunk(self, chunk, monkeypatch):
        lp = tiled_lp(load_bundle(FIXTURE_DIR), 2)
        whole = export_mps(lp)
        monkeypatch.setattr(solver, "_LINES_CHUNK", chunk)
        out = RecordingStream()
        assert write_mps(lp, out) == len(whole)
        assert "".join(out.writes) == whole
        assert max(text.count("\n") for text in out.writes) <= chunk
        assert all(text.endswith("\n") for text in out.writes)

    def test_run_streams_model_mps_to_out_dir(self, tmp_path):
        bundle = load_bundle(FIXTURE_DIR)
        config = load_config(FIXTURE_DIR / "scenario.json")
        want = export_mps(tiled_lp(bundle, 1))
        streamed = run_scenario(bundle, config, solver="export",
                                out_dir=tmp_path)
        assert streamed.status == "exported"
        assert streamed.mps is None
        assert streamed.artifacts == ("model.mps",)
        assert (tmp_path / "model.mps").read_bytes() == want.encode()
        held = run_scenario(bundle, config, solver="export")
        assert held.mps == want
        assert held.artifacts == ()


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
        assert list(values) == ["C0", "C1"]
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
        imported = import_solution(
            lp, "first_extremely_long_column_name 3.0\nC1 1.0\n")
        assert imported.status == "optimal"
        np.testing.assert_array_equal(imported.x, [3.0, 1.0])

    def test_own_name_taken_before_mps_name(self):
        # Column 0 is named C1, which is also column 1's MPS name: C1
        # means column 0, so column 1 must be given by its own name.
        lp = make_lp([1.0, 1.0], [([1.0, 1.0], GE, 2.0)],
                     col_names=("C1", "y"))
        imported = import_solution(lp, "C1 2.0\ny 3.0\n")
        np.testing.assert_array_equal(imported.x, [2.0, 3.0])
        with pytest.raises(LPError) as err:
            import_solution(lp, "C0 2.0\nC1 3.0\n")
        assert str(err.value) == ("solution gives column 'C1' twice: by its "
                                  "name and by its MPS name 'C0'")

    @pytest.mark.parametrize("name", [
        "C2", "C01", "C-1", "R0", "c0", "C+1", "C\u0661", "C", 0, None,
        "C1\nC0", "C0\n"])
    def test_name_neither_own_nor_mps_rejected(self, name):
        # MPS names are resolved together; the first that names no
        # column is the one reported.
        with pytest.raises(LPError) as err:
            import_solution(two_var_lp(),
                            {"x0": 4.0, "C1": 0.0, name: 1.0, "C9": 0.0})
        assert str(err.value) == f"solution names unknown column {name!r}"

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
        lines = ["first_extremely_long_column_name 3.0",
                 "second_extremely_long_column_name 1.0", "C1 5.0"]
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


def whole_text_point(lp, text):
    """The point as the whole-text reader read it: split into lines, skip
    comments and blank lines, and take float() of each line's value."""
    values = {}
    for line in text.splitlines():
        if line.startswith("*") or not line.strip():
            continue
        name, value = line.split()
        values[name] = float(value)
    position = {name: j for j, name in enumerate(lp.col_names)}
    x = np.empty(lp.n_cols)
    for name, value in values.items():
        x[position[name] if name in position else int(name[1:])] = value
    return x


def awkward_solution(lp, newline="\n"):
    """NAME VALUE text for every column of ``lp``: own and MPS names in
    turn, values of every magnitude and sign, both zeros, several
    spellings of a number, and comments, blank lines and leading spaces
    where blocks of 1 or 7 characters begin and end."""
    rng = np.random.default_rng(11)
    values = rng.standard_normal(lp.n_cols) * 10.0 ** rng.integers(
        -300, 300, lp.n_cols)
    values[:4] = (0.0, -0.0, 5e-324, 1e-16)
    lines = []
    for j, (name, value) in enumerate(zip(lp.col_names, values.tolist())):
        if j % 3 == 1:
            name = f"C{j}"
        text = {0: repr(value), 1: f"{value:.17g}", 2: f"{value:.17E}",
                3: f"+{value!r}" if value >= 0 else repr(value)}[j % 4]
        lines.append(f"{' ' * (j % 7 == 6)}{name} {text}")
        if j % 7 == 5:
            lines += ["* a comment", "   "]
        if j % 11 == 0:
            lines.append("")
    return newline.join(["* solved elsewhere", *lines]) + newline


class TestSolutionReader:
    @pytest.fixture(scope="class")
    def lp96(self):
        return tiled_lp(load_bundle(FIXTURE_DIR), 2)

    @pytest.mark.parametrize("block", [1, 7, 64, solver._SOLUTION_CHARS])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r", "\u2028"])
    def test_point_is_the_whole_text_readers_bit_for_bit(
            self, lp96, block, newline, monkeypatch, tmp_path):
        text = awkward_solution(lp96, newline)
        want = whole_text_point(lp96, text).tobytes()
        path = tmp_path / "values.txt"
        path.write_bytes(text.encode())
        monkeypatch.setattr(solver, "_SOLUTION_CHARS", block)
        # Universal newlines, no translation at all, and text: the lines
        # are the same in each.
        for newlines in (None, ""):
            with open(path, encoding="utf-8", newline=newlines) as fh:
                assert import_solution(lp96, fh).x.tobytes() == want
        assert import_solution(lp96, text).x.tobytes() == want
        assert import_solution(lp96, io.StringIO(text)).x.tobytes() == want

    @pytest.mark.parametrize("block", [1, 7, solver._SOLUTION_CHARS])
    def test_bare_cr_ends_a_line_of_an_untranslated_stream(self, block,
                                                           monkeypatch):
        monkeypatch.setattr(solver, "_SOLUTION_CHARS", block)
        stream = io.StringIO("* point\rx0 4.0\rx1 0.5\r")
        assert stream.readline() == "* point\rx0 4.0\rx1 0.5\r"
        stream.seek(0)
        np.testing.assert_array_equal(
            import_solution(two_var_lp(), stream).x, [4.0, 0.5])
        with pytest.raises(LPError) as err:
            import_solution(two_var_lp(), io.StringIO("x0 4.0\rx1 x 1\r"))
        assert str(err.value) == "cannot parse solution line 'x1 x 1'"

    @pytest.mark.parametrize("block", [1, 7, solver._SOLUTION_CHARS])
    def test_first_name_that_is_no_column_is_named(self, block, monkeypatch):
        # The MPS names of a block are resolved together; the first that
        # is not C<j> of a column is the one named.
        monkeypatch.setattr(solver, "_SOLUTION_CHARS", block)
        with pytest.raises(LPError) as err:
            import_solution(two_var_lp(), "C1 4.0\nC01 1.0\nC9 0.0\n")
        assert str(err.value) == "solution names unknown column 'C01'"
        with pytest.raises(LPError) as err:
            import_solution(two_var_lp(), "C1 4.0\nx0 1.0\nC2 0.0\n")
        assert str(err.value) == "solution names unknown column 'C2'"

    @pytest.mark.parametrize("block", [7, 64, solver._SOLUTION_CHARS])
    def test_point_by_mps_names_is_the_point_by_own_names(self, lp96, block,
                                                          monkeypatch):
        monkeypatch.setattr(solver, "_SOLUTION_CHARS", block)
        values = np.random.default_rng(5).standard_normal(lp96.n_cols)
        own = "".join(f"{name} {value!r}\n" for name, value
                      in zip(lp96.col_names, values.tolist()))
        mps = "".join(f"C{j} {value!r}\n"
                      for j, value in enumerate(values.tolist()))
        assert import_solution(lp96, own).x.tobytes() == values.tobytes()
        assert import_solution(lp96, mps).x.tobytes() == values.tobytes()

    def test_mapping_is_one_block(self, lp96, monkeypatch):
        monkeypatch.setattr(solver, "_SOLUTION_CHARS", 1)
        values = np.random.default_rng(2).standard_normal(lp96.n_cols)
        point = dict(zip(lp96.col_names, values.tolist()))
        assert import_solution(lp96, point).x.tobytes() == values.tobytes()

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_repeats_across_blocks_keep_their_messages(self, block,
                                                       monkeypatch):
        monkeypatch.setattr(solver, "_SOLUTION_CHARS", block)
        with pytest.raises(LPError) as err:
            import_solution(two_var_lp(), "x0 3.0\nx1 1.0\nx0 100.0\n")
        assert str(err.value) == "solution gives column 'x0' twice"
        with pytest.raises(LPError) as err:
            import_solution(two_var_lp(), "C0 3.0\nx1 1.0\nC0 100.0\n")
        assert str(err.value) == "solution gives column 'C0' twice"
        lp = make_lp([2.0, 3.0], [([1.0, 1.0], GE, 4.0)],
                     col_names=("first", "second"))
        with pytest.raises(LPError) as err:
            import_solution(lp, "first 3.0\nsecond 1.0\nC1 5.0\n")
        assert str(err.value) == ("solution gives column 'second' twice: "
                                  "by its name and by its MPS name 'C1'")

    @pytest.mark.parametrize("block", [1, 7, solver._SOLUTION_CHARS])
    @pytest.mark.parametrize("text, line", [
        ("x0 1.0 2.0\nx1 1.0\n", "x0 1.0 2.0"),
        ("x0\nx1 1.0\n", "x0"),
        # Four tokens on two lines: each line is checked, not the block.
        ("x0 1 x1\n2\n", "x0 1 x1"),
        ("x0 1\r\nx1 2 3\r\n", "x1 2 3"),
        ("x\u00e9 1 x1\n2\n", "x\u00e9 1 x1"),
    ])
    def test_a_line_holds_exactly_a_name_and_a_value(self, block, text, line,
                                                     monkeypatch):
        monkeypatch.setattr(solver, "_SOLUTION_CHARS", block)
        with pytest.raises(LPError) as err:
            import_solution(two_var_lp(), text)
        assert str(err.value) == f"cannot parse solution line {line!r}"

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("value, reason", [
        ("abc", "could not convert string to float: 'abc'"),
        ("1_0", "numbers must be ASCII, without '_': '1_0'"),
        ("\u0661", "numbers must be ASCII, without '_': '\u0661'"),
        ("1.0.0", "could not convert string to float: '1.0.0'"),
    ])
    def test_a_bad_number_is_named_with_its_line(self, block, value, reason,
                                                  monkeypatch):
        monkeypatch.setattr(solver, "_SOLUTION_CHARS", block)
        text = f"* point\n\nx0 1.0\n  x1 {value}\n"
        with pytest.raises(LPError) as err:
            import_solution(two_var_lp(), text)
        assert str(err.value) == f"solution line 4: {reason}"


class TestHighsReader:
    def test_fixture_round_trip_through_highs_mps_parser(self, tmp_path):
        # model.mps read by HiGHS's own parser (not tests/_mpsread.py),
        # solved, and its point read back by the NAME VALUE importer.
        core = pytest.importorskip("scipy.optimize._highspy._core")
        if not hasattr(core, "_Highs"):
            pytest.skip("scipy's HiGHS bindings have no _Highs")
        bundle = load_bundle(FIXTURE_DIR)
        config = load_config(FIXTURE_DIR / "scenario.json")
        exported = run_scenario(bundle, config, solver="export",
                                out_dir=tmp_path / "mps")
        assert exported.status == "exported"
        highs = core._Highs()
        highs.setOptionValue("output_flag", False)
        # kWarning: HiGHS drops the fixture's two coefficients of ~1e-16.
        assert highs.readModel(str(tmp_path / "mps" / "model.mps")) in (
            core.HighsStatus.kOk, core.HighsStatus.kWarning)
        assert highs.run() == core.HighsStatus.kOk
        assert highs.getModelStatus() == core.HighsModelStatus.kOptimal
        values = tmp_path / "values.txt"
        values.write_text("".join(
            f"{highs.getColName(j)[1]} {value!r}\n"
            for j, value in enumerate(highs.getSolution().col_value)),
            encoding="utf-8")
        imported = run_scenario(bundle, config, solution_file=values)
        assert imported.status == "optimal"
        builtin = run_scenario(bundle, config)
        assert imported.report.total_cost_usd == pytest.approx(
            builtin.report.total_cost_usd, rel=1e-9)
