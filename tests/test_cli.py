"""Command-line surface: output formats, golden files, and exit codes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qcpd import (
    build_gram,
    closed_form_strengths,
    critical_overlap,
    fl_solution,
    global_success,
    optimal_global,
    recursive_strengths,
    sl_solution,
    validate_unambiguous,
)
from qcpd import cli, kernels, online_opt, optimize_strengths, verification
from qcpd.cli import (
    _CSV_ROW,
    CSV_HEADER,
    MAX_CURVE_ROWS,
    MAX_POSITIONS,
    MAX_TRIAL_STEPS,
    MAX_TRIALS,
    CurveTable,
    _Rows,
    _distinct,
    _dump_json,
    _fmt,
    _strength_cells,
    _strength_lines,
    _strengths_text,
    _z_scores,
    build_curve,
    build_parser,
    main,
)
from qcpd.core import EPSILON
from qcpd.online_opt import _exact_table, _online_row, best_online, fl_success_exact
from oracles import GOLDEN, detection_profile_reference, optimal_success_fraction, z_score_reference

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(*args, **kwargs):
    # -W error: a warning in the subprocess fails the test, as in pytest
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "qcpd.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


class TestCurve:
    def test_golden_exact_table(self):
        result = run_cli(
            "curve", "--n", "31", "--c-min", "0", "--c-max", "0.9", "--step", "0.05"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == (GOLDEN_DIR / "curve_n31_exact.csv").read_text()

    def test_golden_exact_json_table(self):
        # full precision: a 1-ulp move shows here, not in the 12-digit CSV
        result = run_cli(
            "curve", "--n", "301", "--c-min", "0.4", "--c-max", "0.8",
            "--step", "0.01", "--format", "json",
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == (GOLDEN_DIR / "curve_n301_exact.json").read_text()

    def test_golden_asymptotic_table(self):
        result = run_cli(
            "curve", "--asymptotic", "--c-min", "0", "--c-max", "0.95", "--step", "0.05"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == (GOLDEN_DIR / "curve_asymptotic.csv").read_text()

    def test_header_and_zero_overlap_row(self):
        result = run_cli("curve", "--n", "6", "--c-max", "0.1", "--step", "0.05")
        lines = result.stdout.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1] == "0,1,1,1,1"

    def test_online_equals_global_below_half(self):
        table = build_curve(n=31, c_min=0.0, c_max=0.5, step=0.1)
        for c, p_global, p_online, _, _ in rows_of(table.columns):
            assert abs(p_online - p_global) <= 1e-10

    def test_csv_round_trip_is_stable(self):
        table = build_curve(n=9, c_min=0.0, c_max=0.8, step=0.2)
        text = "".join(table.to_csv())
        header, *lines = text.splitlines()
        assert header == CSV_HEADER
        rows = [[float(v) for v in line.split(",")] for line in lines]
        assert "".join(CurveTable(n=9, mode="exact", columns=np.array(rows).T).to_csv()) == text

    def test_short_chains_report_a_feasible_bound_met_online(self):
        # n = 2 has no threshold: p_global is the plain closed form on
        # every row
        result = run_cli("curve", "--n", "2")
        assert result.returncode == 0, result.stderr
        for line in result.stdout.splitlines()[1:]:
            c, p_global = line.split(",")[:2]
            assert p_global == f"{global_success(2, float(c)):.12g}"
        # n = 3 switches to the primed form above c = 1/2, where the plain
        # entry 2 turns negative; the online strategy attains it throughout
        result = run_cli(
            "curve", "--n", "3", "--c-max", "1", "--include-endpoint", "--format", "json"
        )
        assert result.returncode == 0, result.stderr
        rows = json.loads(result.stdout)["rows"]
        assert len(rows) == 101
        for row in rows:
            c = row["c"]
            vec, value = optimal_global(3, c)
            assert validate_unambiguous(build_gram(3, c), vec).feasible
            assert row["p_global"] == (value if c else 1.0)
            assert abs(row["p_online"] - row["p_global"]) <= 1e-12

    def test_json_format_carries_the_same_values(self):
        result = run_cli(
            "curve", "--n", "7", "--c-max", "0.4", "--step", "0.2", "--format", "json"
        )
        payload = json.loads(result.stdout)
        assert payload["n"] == 7 and payload["mode"] == "exact"
        assert [row["c"] for row in payload["rows"]] == [0.0, 0.2, 0.4]
        table = build_curve(n=7, c_min=0.0, c_max=0.4, step=0.2)
        for row, expected in zip(payload["rows"], rows_of(table.columns)):
            assert row["p_global"] == expected[1]
            assert row["p_sl"] == expected[4]

    def test_endpoint_excluded_unless_requested(self):
        result = run_cli("curve", "--n", "8", "--c-min", "0.9", "--c-max", "1.0", "--step", "0.05")
        assert result.stdout.strip().split("\n")[-1].startswith("0.95,")
        result = run_cli(
            "curve", "--n", "8", "--c-min", "0.9", "--c-max", "1.0",
            "--step", "0.05", "--include-endpoint",
        )
        last = result.stdout.strip().split("\n")[-1].split(",")
        assert last[0] == "1"
        assert all(float(v) == 0.0 for v in last[1:])

    @pytest.mark.parametrize(
        "flags",
        [
            ("--c-min", "0.5", "--c-max", "0.5"),
            ("--c-min", "0.6", "--c-max", "0.4"),
            ("--step", "0"),
            ("--step", "-0.01"),
            ("--c-max", "1.5"),
        ],
    )
    def test_bad_grid_is_a_usage_error(self, flags):
        result = run_cli("curve", *flags)
        assert result.returncode == 1

    @pytest.mark.parametrize("flag", ["--c-min", "--c-max", "--step"])
    def test_nan_grid_bound_names_the_flag(self, flag):
        result = run_cli("curve", flag, "nan")
        assert result.returncode == 1
        assert result.stdout == ""
        assert f"{flag} must be finite" in result.stderr

    @pytest.mark.parametrize(
        "mode",
        [
            ("--c-min", "0", "--c-max", "0.005", "--step", "0.01"),
            ("--asymptotic", "--format", "json"),
        ],
        ids=["exact", "asymptotic"],
    )
    @pytest.mark.parametrize("n", ["1", "-3"])
    def test_stream_length_below_two_is_exit_one(self, n, mode):
        result = run_cli("curve", "--n", n, *mode)
        assert result.returncode == 1
        assert result.stdout == ""
        assert f"got {n}" in result.stderr

    def test_oversized_grid_is_rejected_at_once(self):
        # 1e12 rows would never finish; the cap applies before any row
        result = run_cli("curve", "--step", "1e-12", timeout=30)
        assert result.returncode == 1
        assert result.stdout == ""
        assert "rows" in result.stderr and str(MAX_CURVE_ROWS) in result.stderr

    @pytest.mark.parametrize("mode", [(), ("--asymptotic",)], ids=["exact", "asymptotic"])
    def test_step_below_the_grid_rounding_is_rejected(self, mode, capsys):
        # rounded to 12 digits, the grid 0, 4e-13, 8e-13, .. reads 0, 0, 1e-12, ..
        argv = ["curve", "--n", "5", "--c-min", "0", "--c-max", "2e-12", "--step", "4e-13"]
        code = main([*argv, *mode])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert "strictly increasing" in err and "--step 4e-13" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("mode", [(), ("--asymptotic",)], ids=["exact", "asymptotic"])
    def test_grid_of_only_the_dropped_endpoint_is_rejected(self, mode, fmt, capsys):
        # the one grid point rounds to c = 1, which is dropped by default
        argv = ["curve", "--n", "4", "--c-min", "0.9999999999999", "--c-max", "1",
                "--step", "0.1", "--format", fmt, *mode]
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert "--include-endpoint" in err
        assert main([*argv, "--include-endpoint"]) == 0
        out = capsys.readouterr().out
        rows = out.splitlines()[1:] if fmt == "csv" else json.loads(out)["rows"]
        assert len(rows) == 1

    def test_online_column_above_the_bound_is_rejected(self):
        # within 1e-12 of the bound is round-off; beyond it, a broken table,
        # named at its first overlap over the bound
        rows = [(0.5, 0.5, 0.5, 0.4, 0.3), (0.6, 0.5, 0.5 + 1e-13, 0.4, 0.3)]
        CurveTable(n=5, mode="exact", columns=np.array(rows).T)
        rows += [(0.7, 0.5, 0.5 + 1e-11, 0.4, 0.3), (0.8, 0.5, 0.6, 0.4, 0.3)]
        with pytest.raises(ValueError, match=r"exceeds the global bound at c=0\.7$"):
            CurveTable(n=5, mode="exact", columns=np.array(rows).T)

    def test_table_holds_one_read_only_column_array(self):
        table = build_curve(n=7, c_min=0.0, c_max=0.9, step=0.3)
        assert table.columns.shape == (5, 4) and table.columns.dtype == np.float64
        assert not table.columns.flags.writeable
        assert table.columns[0].tolist() == [0.0, 0.3, 0.6, 0.9]

    def test_out_writes_the_file(self, tmp_path):
        target = tmp_path / "table.csv"
        result = run_cli(
            "curve", "--n", "5", "--c-max", "0.2", "--step", "0.1",
            "--out", str(target),
        )
        assert result.returncode == 0 and result.stdout == ""
        assert target.read_text().startswith(CSV_HEADER)


def rows_of(columns):
    """The rows of a ``(5, rows)`` curve-column array as tuples of Python
    floats."""
    return [tuple(row) for row in columns.T.tolist()]


def row_by_row(n, c):
    """One exact curve row from the public per-overlap functions, each
    strategy's success the ``np.mean`` of its profile."""
    if c == 0.0:
        return (0.0, 1.0, 1.0, 1.0, 1.0)
    return (
        c,
        optimal_global(n, c)[1],
        *(
            float(np.mean(build(n, c).profile.per_position))
            for build in (best_online, fl_solution, sl_solution)
        ),
    )


def is_sl(n, c):
    """Whether the optimizer's schedule at ``c`` is sl's, bit for bit."""
    optimized = optimize_strengths(n, c).schedule.strengths
    return optimized.tobytes() == sl_solution(n, c).schedule.strengths.tobytes()


def scalar_row(n, c):
    """One exact curve row from each column's scalar production route: the
    bound; the bound again up to 1/2, beyond it ``_online_row``'s backward
    pass, or sl's where the optimal schedule is sl's; and
    ``fl_success_exact`` at fl's strength and at sl's ``1/c``."""
    if c == 0.0:
        return (0.0, 1.0, 1.0, 1.0, 1.0)
    bound, sl = optimal_global(n, c)[1], fl_success_exact(n, c, x=1.0 / c)
    if c <= 0.5:
        online = bound
    else:
        success, saturated = _online_row(n, c)
        online = sl if saturated else success
    return (c, bound, online, fl_success_exact(n, c), sl)


def edge_grid(n):
    """Overlaps where the table's routes switch: 0, 1/2 and its neighbours,
    fl's clip, the critical overlap and its neighbours, and 1."""
    below, above = np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)
    overlaps = {0.0, 1e-300, 0.05, 0.3, below, 0.5, above, 0.7, 0.95, 1.0}
    # where fl's clip switches: the last float with 1 + c < 1/c, the
    # one with 1 + c == 1/c, and the golden ratio just above
    overlaps |= {0.6180339887498947, 0.6180339887498948, GOLDEN}
    cstar = critical_overlap(n)
    if cstar is not None:
        overlaps |= {np.nextafter(cstar, 0.0), cstar, np.nextafter(cstar, 1.0)}
    return sorted(float(c) for c in overlaps)


class TestExactTable:
    """The table against each column's scalar route, with ``==``, and
    against the profile walks of the public per-overlap functions within
    ``TestConstantStrengthFamily``'s 1e-12."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 31, 301, 2001])
    def test_edge_overlaps_match_the_scalar_routes(self, n):
        grid = edge_grid(n)
        table = rows_of(_exact_table(n, grid))
        assert table == [scalar_row(n, c) for c in grid]
        for got, walked in zip(table, (row_by_row(n, c) for c in grid)):
            assert got == pytest.approx(walked, rel=0.0, abs=1e-12), (n, got[0])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 31, 301])
    def test_curve_with_endpoint_matches_the_scalar_routes(self, n):
        table = build_curve(n=n, c_min=0.0, c_max=1.0, step=0.05, include_endpoint=True)
        rows = rows_of(table.columns)
        assert rows == [scalar_row(n, c) for c, *_ in rows]
        for got in rows:
            assert got == pytest.approx(row_by_row(n, got[0]), rel=0.0, abs=1e-12), (n, got[0])
        assert rows[-1][0] == 1.0

    def test_singular_endpoint_reports_a_zero_bound(self):
        # c = 1 with even n: the plain position-2 efficiency is exactly
        # zero, so the plain form applies and gives the all-zero vector
        # (identical states admit no conclusive outcome)
        vec, value = optimal_global(6, 1.0)
        assert vec.tolist() == [0.0] * 6
        assert value == 0.0
        table = build_curve(n=6, c_min=0.9, c_max=1.0, step=0.05, include_endpoint=True)
        assert rows_of(table.columns)[-1] == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_no_row_walks_a_profile_or_builds_a_schedule(self, monkeypatch):
        # 19 rows, 9 of them above 1/2: the online rows there are backward
        # passes, so no row or column calls the optimizer or the kernel
        shapes = kernel_shapes(monkeypatch)

        def forbidden(*args):
            raise AssertionError("the table built a schedule")

        monkeypatch.setattr(online_opt, "optimize_strengths", forbidden)
        monkeypatch.setattr(online_opt, "StrengthSchedule", forbidden)
        table = build_curve(n=31, c_min=0.05, c_max=0.95, step=0.05)
        assert table.columns.shape == (5, 19)
        assert shapes == []

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 31, 301, 2001])
    @pytest.mark.parametrize("grid", ["edge", "k/1000"])
    def test_invariants(self, n, grid):
        cs = edge_grid(n) if grid == "edge" else [round(k / 1000, 12) for k in range(1001)]
        c, bound, online, fl, sl = _exact_table(n, cs)
        up_to_half = c <= 0.5
        assert online[up_to_half].tobytes() == bound[up_to_half].tobytes()
        saturated = [r for r, cv in enumerate(cs) if cv > 0.5 and is_sl(n, cv)]
        assert online[saturated].tobytes() == sl[saturated].tobytes()
        # the backward pass flags a row as sl's exactly where the
        # optimizer's schedule is: none of its strengths but the last
        # below the ceiling 1/c
        above = [cv for cv in cs if cv > 0.5]
        tails = [optimize_strengths(n, cv).schedule.strengths[:-1] for cv in above]
        assert [_online_row(n, cv)[1] for cv in above] == [
            np.minimum.reduce(xs, initial=1.0 / cv) == 1.0 / cv for cv, xs in zip(above, tails)
        ]
        # beyond c_s every schedule is sl's: the rows 0.689..1 at least
        assert len(saturated) >= (312 if grid == "k/1000" else 3)
        clipped = [r for r, cv in enumerate(cs) if cv > 0.0 and 1.0 + cv >= 1.0 / cv]
        assert fl[clipped].tobytes() == sl[clipped].tobytes()
        assert (fl <= online + EPSILON).all() and (sl <= online + EPSILON).all()

    @pytest.mark.parametrize("c", [0.0, 1e-300, 0.3, 0.5, 0.7, 0.99, 0.999999, 1.0])
    def test_two_positions_succeed_with_one_minus_c(self, c):
        # n = 2 has no bulk: both closed forms are exactly 1 - c
        assert fl_success_exact(2, c) == 1.0 - c
        if c:
            assert fl_success_exact(2, c, x=1.0 / c) == 1.0 - c


def twelfth_digit_gap(cell: str, exact: Fraction) -> Fraction:
    """How far the printed ``cell`` lies from the positive ``exact``, in
    units of the exact value's 12th significant digit."""
    e = math.floor(math.log10(exact))
    e += (Fraction(10) ** (e + 1) <= exact) - (Fraction(10) ** e > exact)
    return abs(Fraction(cell) - exact) / Fraction(10) ** (e - 11)


class TestDigitContract:
    """Each printed ``p_global``, ``p_fl`` and ``p_sl`` cell of ``curve``
    lies within one unit in the 12th significant digit of the exact value
    at the double overlap, and so does ``p_online`` up to c = 1/2, where
    its exact value is the bound.  The bound is exact in ``fractions``; fl
    and sl are the means of the 50-digit profiles of the schedules
    ``fl_solution`` and ``sl_solution`` build."""

    @pytest.mark.parametrize(
        "n",
        [3, 4, 5, 31]
        # the full grid, about 9 s: run with ``-m slow``
        + [pytest.param(n, marks=pytest.mark.slow) for n in [*range(6, 31), 61, 101]],
    )
    def test_printed_cells_hold_twelve_digits(self, n, capsys):
        argv = ["curve", "--n", str(n), "--c-min", "0.01", "--c-max", "0.99", "--step", "0.01"]
        assert main(argv) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert header == CSV_HEADER and len(lines) == 99
        for k, line in enumerate(lines, start=1):
            cells, c = line.split(","), k / 100
            assert float(cells[0]) == c
            bound = optimal_success_fraction(n, c)
            exact = {"p_global": bound, "p_online": bound} if c <= 0.5 else {"p_global": bound}
            for name, build in (("p_fl", fl_solution), ("p_sl", sl_solution)):
                profile = detection_profile_reference(c, build(n, c).schedule.strengths)
                exact[name] = sum(map(Fraction, profile)) / n
            for name, value in exact.items():
                cell = cells[CSV_HEADER.split(",").index(name)]
                assert twelfth_digit_gap(cell, value) <= 1, (n, c, name, cell, float(value))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 31, 301])
    def test_near_one_cells_hold_twelve_digits(self, n, capsys):
        # c = 1 - 10^-k, k = 3..6: the fl and sl cells, and the online ones
        # whose schedule is sl's, which print the sl cell.  The bound's
        # cells are not held: at n = 3, c = 0.999999 its cell is 4.5 units
        # off
        for grid in (["0.999", "0.9999", "0.0009"], ["0.99999", "0.999999", "0.000009"]):
            argv = ["curve", "--n", str(n), "--c-min", grid[0], "--c-max", grid[1], "--step", grid[2]]
            assert main(argv) == 0
            header, *lines = capsys.readouterr().out.splitlines()
            assert [float(line.split(",")[0]) for line in lines] == [float(v) for v in grid[:2]]
            for line in lines:
                cells = dict(zip(header.split(","), line.split(",")))
                c = float(cells["c"])
                assert is_sl(n, c)
                profile = detection_profile_reference(c, sl_solution(n, c).schedule.strengths)
                sl = sum(map(Fraction, profile)) / n
                profile = detection_profile_reference(c, fl_solution(n, c).schedule.strengths)
                fl = sum(map(Fraction, profile)) / n
                for name, value in (("p_online", sl), ("p_fl", fl), ("p_sl", sl)):
                    assert twelfth_digit_gap(cells[name], value) <= 1, (n, c, name, cells[name], float(value))

    @pytest.mark.xfail(
        strict=True,
        reason="the profile kernel's 1 - c/x cancels on strengths near 1/c; "
        "ROADMAP item 3's (x - c)/x form must make this pass",
    )
    @pytest.mark.parametrize("n, c", [(31, "0.99999999"), (5, "0.9999999")])
    def test_near_one_numeric_success_holds_twelve_digits(self, n, c, capsys):
        # the success line of ``strengths --method numeric`` against the
        # 50-digit mean of the schedule it prints: 178 units off at n = 31
        # and 80 at n = 5
        assert main(["strengths", "--n", str(n), "--c", c, "--method", "numeric"]) == 0
        cell = capsys.readouterr().out.split("success=")[1].split()[0]
        profile = detection_profile_reference(float(c), optimize_strengths(n, float(c)).schedule.strengths)
        exact = sum(map(Fraction, profile)) / n
        assert twelfth_digit_gap(cell, exact) <= 1, (n, c, cell, float(exact))


def kernel_shapes(monkeypatch) -> list[tuple[int, ...]]:
    """The shape of the strengths of every later profile-kernel call."""
    shapes = []
    profile = kernels.detection_profile

    def counted(c, xs):
        shapes.append(np.shape(xs))
        return profile(c, xs)

    monkeypatch.setattr(kernels, "detection_profile", counted)
    return shapes


class TestStrengths:
    @pytest.mark.parametrize(
        "golden, args",
        [
            ("strengths_numeric_n50.json",
             ("--n", "50", "--c", "0.6", "--method", "numeric", "--format", "json")),
            ("strengths_closed_n10.txt", ("--n", "10", "--c", "0.3")),
            # four-digit positions and ``yes`` flags
            ("strengths_numeric_n1200.txt",
             ("--n", "1200", "--c", "0.7", "--method", "numeric")),
            # one strength, no saturated position
            ("strengths_closed_n2.json", ("--n", "2", "--c", "0.3", "--format", "json")),
        ],
    )
    def test_golden_schedule(self, golden, args):
        result = run_cli("strengths", *args)
        assert result.returncode == 0, result.stderr
        assert result.stdout == (GOLDEN_DIR / golden).read_text()

    def test_four_positions_closed_form(self):
        result = run_cli("strengths", "--n", "4", "--c", "0.3", "--method", "closed")
        assert result.returncode == 0
        assert "1.26582278481" in result.stdout
        assert "1.42857142857" in result.stdout
        assert "closed-form" in result.stdout

    def test_zero_overlap_is_all_balanced(self):
        result = run_cli("strengths", "--n", "4", "--c", "0.0", "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["strengths"] == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("c", ["0", "5e-324", "1e-310"])
    def test_infinite_ceiling_saturates_no_strength(self, c, capsys):
        # below about 5.6e-309 the ceiling 1/c overflows to inf, which no
        # finite strength reaches; at 1e-308 it is finite and far away
        argv = ["strengths", "--n", "5", "--c", c]
        assert main([*argv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strengths"] == [1.0] * 4
        assert payload["saturated_positions"] == []
        assert main(argv) == 0
        flags = [line.split()[-1] for line in capsys.readouterr().out.splitlines()[2:]]
        assert flags == ["no"] * 4

    def test_balanced_last_strength_is_not_saturated_near_unit_overlap(self, capsys):
        # [c, 1/c] is 2e-10 wide, narrower than the relative slack 1e-9:
        # the balanced last strength 1.0 must not be flagged against the
        # ceiling 1.0000000001
        argv = ["strengths", "--n", "4", "--c", "0.9999999999", "--method", "numeric"]
        assert main([*argv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strengths"][-1] == 1.0
        assert payload["saturated_positions"] == [1, 2]
        assert main(argv) == 0
        flags = [line.split()[-1] for line in capsys.readouterr().out.splitlines()[2:]]
        assert flags == ["yes", "yes", "no"]

    def test_numeric_method_saturates_beyond_the_threshold(self):
        result = run_cli(
            "strengths", "--n", "12", "--c", "0.75", "--method", "numeric",
            "--format", "json",
        )
        payload = json.loads(result.stdout)
        ceiling = 1 / 0.75
        assert payload["strengths"][:-1] == pytest.approx([ceiling] * 10, abs=1e-9)
        assert payload["strengths"][-1] == 1.0
        assert payload["saturated_positions"] == list(range(1, 11))

    def test_out_of_validity_is_exit_one(self):
        for method in ("closed", "recursive"):
            result = run_cli("strengths", "--n", "4", "--c", "0.6", "--method", method)
            assert result.returncode == 1
            assert "error" in result.stderr

    @pytest.mark.parametrize("method", [(), ("--method", "recursive")])
    def test_out_of_validity_names_the_numeric_flag(self, method):
        result = run_cli("strengths", "--n", "10", "--c", "0.7", *method)
        assert (result.returncode, result.stdout) == (1, "")
        assert "qcpd strengths --method numeric" in result.stderr

    def test_recursion_floor_prints_a_plain_float(self, capsys, monkeypatch):
        # a first target of 1 stands in for 1 - g(1) cancelling to 0, which
        # RECURSION_FLOOR now keeps real overlaps from reaching
        monkeypatch.setattr(
            online_opt, "global_efficiencies", lambda n, c: np.array([1.0, 0.5, 0.5, 0.5, 0.5])
        )
        code = main(["strengths", "--n", "5", "--c", "0.3", "--method", "recursive"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == "qcpd: error: cannot solve for the first strength: 1 - target = 0.0\n"

    @pytest.mark.parametrize("c, code", [("0.001", 0), ("0.000999", 1), ("1e-12", 1), ("0", 0)])
    def test_recursion_floor(self, c, code, capsys):
        assert main(["strengths", "--n", "6", "--c", c, "--method", "recursive"]) == code
        out, err = capsys.readouterr()
        if code:
            assert out == ""
            assert err == (
                "qcpd: error: the recursion drifts from the closed form below overlap "
                f"0.001 (got {float(c)!r}); use the closed form instead\n"
            )
        else:
            assert out.startswith(f"n=6 c={c} method=recursive")

    @pytest.mark.parametrize(
        "argv",
        [
            ("strengths", "--n", "4", "--c", "{c}"),
            ("strengths", "--n", "5", "--c", "{c}", "--method", "recursive", "--format", "json"),
            ("strengths", "--n", "5", "--c", "{c}", "--method", "numeric", "--format", "json"),
            ("simulate", "--n", "6", "--c", "{c}", "--trials", "50", "--seed", "2"),
            ("simulate", "--n", "6", "--c", "{c}", "--strategy", "fl", "--trials", "50", "--seed", "2"),
            ("simulate", "--n", "6", "--c", "{c}", "--strategy", "sl", "--trials", "50", "--seed", "2"),
            ("curve", "--c-min", "{c}", "--c-max", "0.3", "--step", "0.1", "--format", "json"),
        ],
    )
    def test_negative_zero_overlap_is_zero(self, argv, capsys):
        # -0.0 keeps its sign through float(), and its ceiling 1/c is -inf
        runs = []
        for c in ("-0.0", "0"):
            code = main([arg.format(c=c) for arg in argv])
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1]

    def test_domain_errors_are_exit_one(self):
        assert run_cli("strengths", "--n", "4", "--c", "1.0").returncode == 1
        assert run_cli("strengths", "--n", "1", "--c", "0.3").returncode == 1
        assert run_cli("strengths", "--n", "4", "--c", "0.3", "--method", "x").returncode == 1


class TestVerify:
    @pytest.mark.parametrize(
        "golden, args, code",
        [
            ("verify_n5_seed7.json", ("--n-max", "5", "--seed", "7"), 0),
            ("verify_self_test.json", ("--self-test",), 2),
            # the enumeration cap: pins the n = 9..12 path sums byte for byte
            ("verify_n12_seed64331.json", ("--n-max", "12", "--seed", "64331"), 0),
            # the other two shapes of the benchmark's verify requests
            ("verify_n6_seed22017.json", ("--n-max", "6", "--seed", "22017"), 0),
            ("verify_n9_seed46786.json", ("--n-max", "9", "--seed", "46786"), 0),
        ],
    )
    def test_golden_report(self, golden, args, code):
        result = run_cli("verify", *args)
        assert result.returncode == code, result.stderr
        assert result.stdout == (GOLDEN_DIR / golden).read_text()

    def test_default_run_passes(self):
        result = run_cli("verify")
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["passed"] is True
        names = {suite["name"] for suite in payload["suites"]}
        assert names == {
            "oracle_equivalence",
            "central_equality",
            "recursion_agreement",
            "gram_feasibility",
            "backward_value",
        }
        central = next(
            s for s in payload["suites"] if s["name"] == "central_equality"
        )
        assert central["max_residual"] <= 1e-10

    def test_self_test_fault_is_caught(self):
        result = run_cli("verify", "--self-test")
        assert result.returncode == 2
        payload = json.loads(result.stdout)
        assert payload["passed"] is False
        assert "verification failed" in result.stderr
        assert "central_equality" in result.stderr
        # the failing case is reported with its parameters
        assert "n=" in result.stderr and "c=" in result.stderr

    def test_a_nan_row_does_not_hide_a_failing_one(self, monkeypatch, capsys):
        recursive = verification._recursive_xs

        def faulted(c, gammas):
            xs = recursive(c, gammas)
            if c == 0.05:
                return np.full_like(xs, np.nan)
            return xs * 1.01 if c == 0.1 else xs

        monkeypatch.setattr(verification, "_recursive_xs", faulted)
        code = main(["verify"])
        out, err = capsys.readouterr()
        assert code == 2
        assert json.loads(out)["passed"] is False
        # the NaN is the worst residual, reported at its first case
        assert err == (
            "verification failed: recursion_agreement max residual nan > 1e-10"
            " at n=2 c=0.05 position=1\n"
        )

    @pytest.mark.parametrize("n_max", ["1", "40"])
    def test_n_max_outside_the_oracle_range_is_exit_one(self, n_max):
        result = run_cli("verify", "--n-max", n_max)
        assert result.returncode == 1
        assert result.stdout == ""
        assert "2..12" in result.stderr

    def test_negative_seed_is_named(self, capsys):
        code = main(["verify", "--seed", "-1"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == "qcpd: error: seed must lie in [0, 2**64), got -1\n"

    @pytest.mark.parametrize("seed, accepted", [(0, True), (2**64 - 1, True), (2**64, False)])
    def test_seed_outside_the_generator_range_is_rejected(self, seed, accepted, capsys):
        # verify keys the simulate generator, so it takes the same seeds
        code = main(["verify", "--n-max", "4", "--seed", str(seed)])
        out, err = capsys.readouterr()
        if accepted:
            assert code == 0 and json.loads(out)["passed"] is True, err
        else:
            assert (code, out) == (1, "")
            assert err == f"qcpd: error: seed must lie in [0, 2**64), got {seed}\n"

    def test_n_max_at_the_cap_passes(self):
        result = run_cli("verify", "--n-max", "12")
        assert result.returncode == 0, result.stderr
        oracle = json.loads(result.stdout)["suites"][0]
        assert oracle["name"] == "oracle_equivalence"
        assert oracle["cases"] == 11 * 25


class TestSimulate:
    @pytest.mark.parametrize(
        "golden, args",
        [
            ("simulate_online_n31.json", ("--c", "0.4")),
            ("simulate_fl_n31.json", ("--strategy", "fl", "--c", "0.6")),
            ("simulate_sl_n31.json", ("--strategy", "sl", "--c", "0.7")),
        ],
    )
    def test_golden_report(self, golden, args):
        result = run_cli(
            "simulate", "--n", "31", *args, "--trials", "200000", "--seed", "3"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == (GOLDEN_DIR / golden).read_text()

    def test_golden_report_across_chunks(self):
        # 70001 trials span several kernel chunks; n = 200 walks long chains
        result = run_cli(
            "simulate", "--n", "200", "--c", "0.3", "--trials", "70001", "--seed", "5"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == (GOLDEN_DIR / "simulate_online_n200.json").read_text()

    def test_reports_are_byte_identical(self):
        args = (
            "simulate", "--n", "6", "--c", "0.4", "--strategy", "online",
            "--trials", "50000", "--seed", "42",
        )
        first, second = run_cli(*args), run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        payload = json.loads(first.stdout)
        assert abs(payload["z_success"]) <= 4.0
        assert payload["report"]["mismatched_detections"] == 0
        assert len(payload["per_position"]) == 6

    def test_single_trial_report(self):
        result = run_cli(
            "simulate", "--n", "4", "--c", "0.3", "--trials", "1", "--seed", "1"
        )
        payload = json.loads(result.stdout)
        assert payload["report"]["trials"] == 1

    def test_custom_schedule_file(self, tmp_path):
        good = tmp_path / "schedule.txt"
        good.write_text("1.0 1.5 2.0 1.0\n")
        result = run_cli(
            "simulate", "--c", "0.4", "--strategy", "custom",
            "--schedule", str(good), "--trials", "5000", "--seed", "3",
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["report"]["n"] == 5

    def test_violating_schedule_names_the_position(self, tmp_path):
        bad = tmp_path / "schedule.txt"
        bad.write_text("1.0 5.0 1.0\n")
        result = run_cli(
            "simulate", "--c", "0.4", "--strategy", "custom",
            "--schedule", str(bad), "--trials", "10", "--seed", "1",
        )
        assert result.returncode == 1
        assert "position 2" in result.stderr

    def test_oversized_run_is_rejected_at_once(self):
        # about 1e11 trial steps would run for hours; the cap applies first
        result = run_cli(
            "simulate", "--n", "100000", "--c", "0.4", "--trials", "1000000",
            "--seed", "1", timeout=30,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert str(MAX_TRIAL_STEPS) in result.stderr

    def test_oversized_trial_count_is_rejected_at_once(self):
        # at n = 2, 1e10 trials are within the step cap but would run for
        # some 400 s; the trial cap applies first
        result = run_cli(
            "simulate", "--n", "2", "--c", "0.4", "--trials", str(10**10),
            "--seed", "1", timeout=30,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert f"{10**10} trials exceed the cap of {MAX_TRIALS}" in result.stderr

    @pytest.mark.parametrize("strategy", ["online", "fl", "sl", "custom"])
    @pytest.mark.parametrize("trials, accepted", [(10, True), (11, False)])
    def test_trial_cap_boundary(self, strategy, trials, accepted, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_TRIALS", 10)
        schedule = tmp_path / "schedule.txt"
        schedule.write_text("1.2 1.0\n")
        argv = ["simulate", "--c", "0.4", "--strategy", strategy,
                "--trials", str(trials), "--seed", "1"]
        argv += ["--schedule", str(schedule)] if strategy == "custom" else ["--n", "3"]
        rc = main(argv)
        out, err = capsys.readouterr()
        if accepted:
            assert rc == 0 and json.loads(out)["report"]["trials"] == trials, err
        else:
            assert rc == 1 and out == ""
            assert err == f"qcpd: error: {trials} trials exceed the cap of 10\n"

    @pytest.mark.parametrize("strategy", ["online", "custom"])
    @pytest.mark.parametrize("seed, accepted", [(-1, False), (0, True), (2**64 - 1, True), (2**64, False)])
    def test_seed_outside_the_generator_range_is_rejected(
        self, strategy, seed, accepted, tmp_path, monkeypatch, capsys
    ):
        # reduced modulo 2**64, -1 and 2**64 - 1 would run the same trials;
        # seed_root rejects an out-of-range seed, which exits 1 before any
        # schedule is built
        if not accepted:
            monkeypatch.setattr(cli, "best_online", None)
            monkeypatch.setattr(cli, "_solution", None)
        schedule = tmp_path / "schedule.txt"
        schedule.write_text("1.2 1.0\n")
        argv = ["simulate", "--c", "0.4", "--strategy", strategy, "--trials", "5", "--seed", str(seed)]
        argv += ["--schedule", str(schedule)] if strategy == "custom" else ["--n", "3"]
        rc = main(argv)
        out, err = capsys.readouterr()
        if accepted:
            assert rc == 0 and json.loads(out)["report"]["seed"] == seed, err
        else:
            assert (rc, out) == (1, "")
            assert err == f"qcpd: error: seed must lie in [0, 2**64), got {seed}\n"

    @pytest.mark.parametrize("strategy", ["online", "fl", "sl", "custom"])
    def test_profile_is_evaluated_once(self, strategy, tmp_path, monkeypatch, capsys):
        calls = []
        profile = kernels.detection_profile

        def counted(c, xs):
            calls.append(len(xs))
            return profile(c, xs)

        monkeypatch.setattr(kernels, "detection_profile", counted)
        schedule = tmp_path / "schedule.txt"
        schedule.write_text("1.2 1.3 1.0\n")
        argv = ["simulate", "--c", "0.6", "--strategy", strategy, "--trials", "100", "--seed", "1"]
        argv += ["--schedule", str(schedule)] if strategy == "custom" else ["--n", "4"]
        assert main(argv) == 0, capsys.readouterr().err
        assert calls == [3]

    @pytest.mark.parametrize("strategy", ["online", "fl", "sl"])
    @pytest.mark.parametrize("exists", [True, False])
    def test_schedule_file_needs_the_custom_strategy(
        self, strategy, exists, tmp_path, monkeypatch, capsys
    ):
        # a --schedule file with another strategy exits 1 before the file
        # is read or any schedule is built
        for name in ("best_online", "fl_solution", "sl_solution", "_load_custom_schedule"):
            monkeypatch.setattr(cli, name, None)
        schedule = tmp_path / "schedule.txt"
        if exists:
            schedule.write_text("1.2 1.3 1.0\n")
        argv = ["simulate", "--c", "0.3", "--n", "4", "--strategy", strategy,
                "--schedule", str(schedule), "--trials", "10", "--seed", "1"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"qcpd: error: --schedule FILE needs --strategy custom, not {strategy}\n"

    @pytest.mark.parametrize(
        "c, shown", [("0.0", "0"), ("1e-310", "1e-310"), ("5e-324", "4.94065645841e-324")]
    )
    def test_saturated_strategy_needs_a_finite_ceiling(self, c, shown, capsys):
        # at a subnormal overlap 1/c overflows; the run is rejected as at
        # c = 0, not for an infinite strength the user never gave
        argv = ["simulate", "--n", "5", "--c", c, "--trials", "3", "--seed", "1", "--strategy", "sl"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"qcpd: error: the saturated strategy is undefined at overlap {shown}"
            " (ceiling 1/c unbounded)\n"
        )

    def test_usage_errors(self):
        # missing required seed
        assert run_cli("simulate", "--n", "4", "--c", "0.4").returncode == 1
        # invalid trial count
        assert run_cli(
            "simulate", "--n", "4", "--c", "0.4", "--trials", "0", "--seed", "1"
        ).returncode == 1
        # saturated family undefined at zero overlap
        assert run_cli(
            "simulate", "--n", "4", "--c", "0.0", "--strategy", "sl",
            "--trials", "10", "--seed", "1",
        ).returncode == 1
        # custom strategy without a file
        assert run_cli(
            "simulate", "--c", "0.4", "--strategy", "custom",
            "--trials", "10", "--seed", "1",
        ).returncode == 1


class TestPositionCap:
    """At most ``MAX_POSITIONS`` strength positions per request: ``n - 1``
    for ``strengths``, ``simulate`` and an exact ``curve``, checked before
    any schedule is built; a curve's row count does not enter it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("strengths", "--n", "1000000000", "--c", "0.3"),
            ("curve", "--n", "3000002"),
            ("simulate", "--n", "10000000000", "--c", "0.4", "--trials", "1", "--seed", "1"),
        ],
        ids=["strengths", "curve", "simulate"],
    )
    def test_oversized_n_is_rejected_at_once(self, argv):
        result = run_cli(*argv, timeout=30)
        assert result.returncode == 1
        assert result.stdout == ""
        assert "strength positions" in result.stderr
        assert str(MAX_POSITIONS) in result.stderr

    @pytest.mark.parametrize(
        "argv, accepted",
        [
            (("strengths", "--n", "13", "--c", "0.3"), True),
            (("strengths", "--n", "14", "--c", "0.3"), False),
            (("curve", "--n", "13", "--c-max", "0.9", "--step", "0.1"), True),
            (("curve", "--n", "14", "--c-max", "0.2", "--step", "0.1"), False),
            (("curve", "--n", "14", "--c-max", "0.2", "--step", "0.1", "--asymptotic"), True),
            (("simulate", "--n", "13", "--c", "0.4", "--trials", "10", "--seed", "1"), True),
            (("simulate", "--n", "14", "--c", "0.4", "--trials", "10", "--seed", "1"), False),
        ],
    )
    def test_cap_boundary(self, argv, accepted, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_POSITIONS", 12)
        rc = main(list(argv))
        out, err = capsys.readouterr()
        if accepted:
            assert rc == 0 and out, err
        else:
            assert rc == 1 and out == ""
            assert "strength positions exceed the cap of 12" in err

    def test_custom_schedule_is_capped(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_POSITIONS", 12)
        schedule = tmp_path / "schedule.txt"
        schedule.write_text("1.0 " * 13)
        argv = ["simulate", "--c", "0.4", "--strategy", "custom",
                "--schedule", str(schedule), "--trials", "10", "--seed", "1"]
        assert main(argv) == 1
        assert "more than 12 strengths" in capsys.readouterr().err

    def test_custom_schedule_is_capped_before_any_strength_is_read(
        self, tmp_path, monkeypatch, capsys
    ):
        # a token past the cap is never converted: the cap message comes
        # first, not the conversion error of the trailing token
        monkeypatch.setattr(cli, "MAX_POSITIONS", 12)
        schedule = tmp_path / "schedule.txt"
        schedule.write_text("1.0 " * 13 + "junk\n")
        argv = ["simulate", "--c", "0.4", "--strategy", "custom",
                "--schedule", str(schedule), "--trials", "10", "--seed", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "more than 12 strengths" in err and "convert" not in err
        # at the cap the file is read in full
        schedule.write_text("1.0 " * 12 + "\n")
        assert main(argv) == 0

    @pytest.mark.parametrize("chars", [5, 6, 9, 25, 64])
    def test_custom_schedule_read_in_chunks(self, chars, tmp_path, monkeypatch):
        # tokens and runs of whitespace straddle every chunk boundary; the
        # strengths are float() of each token of str.split(), bit for bit
        rng = np.random.default_rng(chars)
        tokens = [repr(x) for x in rng.uniform(0.5, 2.0, 60).tolist()]
        tokens += ["1", "2.", "1e0", "1_0.5"]
        seps = [" ", "\n", "\t", "  \r\n ", "\u00a0", "\u2003\f"]
        text = "".join(t + seps[i % len(seps)] for i, t in enumerate(tokens))
        schedule = tmp_path / "schedule.txt"
        schedule.write_text(text[:-1], encoding="utf-8")  # no separator after the last
        monkeypatch.setattr(cli, "_MAX_TOKEN", chars)
        if max(map(len, tokens)) > chars:
            with pytest.raises(ValueError, match=f"holds a token over {chars} characters"):
                cli._load_custom_schedule(str(schedule), None)
            return
        values = cli._load_custom_schedule(str(schedule), len(tokens) + 1)
        assert values.tobytes() == np.array([float(t) for t in text.split()]).tobytes()

    def test_custom_schedule_token_length_bound(self, tmp_path, capsys):
        # a token of 4096 characters is read (this one is 1.0), one more is
        # rejected; each straddles a chunk boundary
        schedule = tmp_path / "schedule.txt"
        argv = ["simulate", "--c", "0.4", "--strategy", "custom",
                "--schedule", str(schedule), "--trials", "10", "--seed", "1"]
        schedule.write_text("1.0 " + "0" * 4093 + "1.0 1.5\n")
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["strengths"] == [1.0, 1.0, 1.5]
        schedule.write_text("1.0 " + "0" * 4094 + "1.0 1.5\n")
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"qcpd: error: schedule file {str(schedule)!r} holds a token over 4096 characters\n"
        )

    @pytest.mark.parametrize(
        "token, reason",
        [("1.0 ", f"more than {MAX_POSITIONS} strengths"), ("1", "a token over 4096 characters")],
        ids=["over-cap", "overlong"],
    )
    def test_endless_schedule_source_is_rejected(self, token, reason, tmp_path):
        # a FIFO whose writer never stops: the reader stops at the first
        # token past the cap, or once one token grows past its bound
        fifo = tmp_path / "schedule"
        os.mkfifo(fifo)
        source = f"with open({str(fifo)!r}, 'w') as f:\n    while True: f.write({token!r} * 4096)"
        writer = subprocess.Popen([sys.executable, "-c", source], stderr=subprocess.DEVNULL)
        try:
            result = run_cli(
                "simulate", "--c", "0.4", "--strategy", "custom", "--schedule", str(fifo),
                "--trials", "1", "--seed", "1", timeout=60,
            )
        finally:
            writer.kill()
            writer.wait()
        assert result.returncode == 1 and result.stdout == ""
        assert reason in result.stderr

    def test_endless_device_is_rejected(self):
        result = run_cli(
            "simulate", "--c", "0.4", "--strategy", "custom", "--schedule", "/dev/zero",
            "--trials", "1", "--seed", "1", timeout=60,
        )
        assert result.returncode == 1
        assert result.stderr == (
            "qcpd: error: schedule file '/dev/zero' holds a token over 4096 characters\n"
        )

    def test_over_cap_schedule_file_peak_rss(self, tmp_path):
        # 40 MB of strengths, 10 million against the cap of 3 million: the
        # reader holds at most the cap's float64 vector, not the file's text
        # and a string per token (301 MB when the file was read whole)
        schedule = tmp_path / "schedule.txt"
        schedule.write_bytes(b"1.0 " * 10_000_000)
        # a child's ru_maxrss starts from the size of the process it was
        # forked from, so a small interpreter starts the run and reports it
        measure = (
            "import os, subprocess, sys\n"
            "child = subprocess.Popen(\n"
            "    sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE\n"
            ")\n"
            "err = child.stderr.read().decode()\n"
            "_, status, usage = os.wait4(child.pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, err, sep='\\n', end='')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", measure, sys.executable, "-W", "error", "-m", "qcpd.cli",
             "simulate", "--c", "0.4", "--strategy", "custom", "--schedule", str(schedule),
             "--trials", "1", "--seed", "1"],
            capture_output=True, text=True, timeout=120,
        )
        code, maxrss_kb, err = result.stdout.split("\n", 2)
        assert code == "1"
        message = f"schedule file {str(schedule)!r} holds more than {MAX_POSITIONS} strengths"
        assert err == f"qcpd: error: {message}\n"
        assert int(maxrss_kb) / 1024 < 64, f"{int(maxrss_kb) / 1024:.1f} MB"

    def test_trial_steps_are_checked_before_the_schedule(self, monkeypatch, capsys):
        # 3e6 particles are within the position cap, but 1e4 trials of them
        # exceed the step cap; no schedule may be built for the run
        def unreachable(*args):
            raise AssertionError("a schedule was built")

        monkeypatch.setattr(cli, "best_online", unreachable)
        argv = ["simulate", "--n", "3000000", "--c", "0.4", "--trials", "10000", "--seed", "1"]
        assert main(argv) == 1
        assert str(MAX_TRIAL_STEPS) in capsys.readouterr().err

    def test_full_size_grid_at_the_longest_chain_fits(self, monkeypatch):
        # the largest grid the row cap allows (1e5 rows) fits at the longest
        # chain the position cap allows, and one particle more does not
        monkeypatch.setattr(cli, "_exact_table", lambda n, grid: np.empty((5, 0)))
        build_curve(MAX_POSITIONS + 1, 0.0, 0.999999, 1e-5)
        with pytest.raises(ValueError, match="strength positions"):
            build_curve(MAX_POSITIONS + 2, 0.0, 0.999999, 1e-5)

    @pytest.mark.parametrize(
        "argv",
        [
            ("curve", "--n", "1000000"),
            ("curve", "--n", "3000000", "--c-min", "0.5", "--c-max", "0.9", "--step", "0.1"),
        ],
    )
    def test_exact_curve_of_a_long_chain_is_accepted(self, argv, capsys):
        # no row walks a schedule, so the rows times the chain may pass
        # the position cap: 1e8 and 1.5e7 positions here
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        rows = [tuple(map(float, line.split(","))) for line in out.splitlines()[1:]]
        assert len(rows) == (100 if argv[2] == "1000000" else 5)
        for c, bound, online, fl, sl in rows:
            assert 0.0 <= sl <= online <= bound <= 1.0 and fl <= online, c


class TestTopLevel:
    def test_no_subcommand_loads_numpy_random(self):
        # on numpy >= 2, numpy.random loads on first access, and its
        # extension modules cost some 6 MB of RSS; every random number qcpd
        # draws comes from kernels' own generator instead
        script = """
import contextlib, io, json, sys
import numpy
loaded = {"import numpy": "numpy.random" in sys.modules}
from qcpd.cli import main
for argv in (
    ["curve"],
    ["strengths", "--n", "10", "--c", "0.3"],
    ["simulate", "--n", "6", "--c", "0.4", "--trials", "100", "--seed", "1"],
    ["verify"],
    ["verify", "--self-test"],
):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    loaded[" ".join(argv)] = "numpy.random" in sys.modules
print(json.dumps(loaded))
"""
        result = subprocess.run([sys.executable, "-W", "error", "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        loaded = json.loads(result.stdout)
        if loaded.pop("import numpy"):
            pytest.skip("this numpy imports numpy.random with numpy itself")
        assert not any(loaded.values()), loaded

    @pytest.mark.parametrize(
        "argv",
        [("curve", "--n", "31", "--step", "0.0001"), ("strengths", "--n", "100000", "--c", "0.3")],
        ids=["curve", "strengths-text"],
    )
    def test_a_closed_pipe_ends_the_run_quietly(self, argv):
        # each output (0.6 and 2.8 MB) is far longer than a pipe's buffer,
        # so the run writes into the pipe after its reader has closed it
        process = subprocess.Popen(
            [sys.executable, "-W", "error", "-m", "qcpd.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        first = process.stdout.readline()
        process.stdout.close()
        stderr = process.stderr.read()
        process.stderr.close()
        assert process.wait(timeout=120) == 141, stderr
        assert stderr == b""
        assert first.startswith((b"c,p_global", b"n=100000 c=0.3 "))

    def test_unknown_subcommand_is_exit_one(self):
        assert run_cli("frobnicate").returncode == 1

    def test_help_is_available(self):
        result = run_cli("--help")
        assert result.returncode == 0
        for name in ("curve", "strengths", "verify", "simulate"):
            assert name in result.stdout


# ---------------------------------------------------------------------------
# bulk formatters against the per-value formatting they replace
# ---------------------------------------------------------------------------

_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.1e-308]),
)
# strings with what the encoder escapes or keeps apart: quotes, backslashes,
# control characters, U+2028, non-ASCII and astral characters
_STRINGS = st.one_of(
    st.text(max_size=8),
    st.text(alphabet=st.sampled_from('"\\\n\t\x00\x1f\x7fé€\u2028\U0001d11e'), max_size=8),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**200), 2**200),
    _FLOATS,
    _FLOATS.map(np.float64),
    _STRINGS,
)
_FLAT_DICTS = st.dictionaries(st.text(max_size=6), _SCALARS, max_size=5)
_VALUES = st.one_of(
    _SCALARS,
    st.lists(st.one_of(st.integers(), _FLOATS), max_size=12),
    st.lists(st.booleans(), max_size=6),
    st.lists(_SCALARS, max_size=6),
    st.lists(_FLAT_DICTS, max_size=4),
    # like verify's ``worst_case``: scalars and one nested level
    st.dictionaries(st.text(max_size=6), st.one_of(_SCALARS, _FLAT_DICTS), max_size=5),
)


_SIMULATE_KEYS = ("position", "count", "empirical", "exact", "z")
# ints and finite floats, with the values a report holds at its edges: zero
# counts, z = 0.0 where the variance vanishes, and exact in {0, 1}
_CELLS = st.one_of(
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, 0.0, -0.0, 1.0, 5e-324, 1e16, 1e-7]),
)
# keys with the characters a template or the encoder treats apart
_KEYS = st.text(alphabet=st.sampled_from('%"\\\nké€𝄞ab'), max_size=6)


def _as_list(column) -> list:
    return column.tolist() if type(column) is np.ndarray else list(column)


def _row_dicts(value):
    """``json.dumps``'s ``default`` hook: a :class:`_Rows` as its dicts, a
    numpy vector as its list."""
    if type(value) is _Rows:
        return [dict(zip(value.keys, row)) for row in zip(*map(_as_list, value.columns))]
    if type(value) is np.ndarray:
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _columns(length: int):
    """One table column of ``length`` cells: a list of ints and finite
    floats, a range, or an int64 or float64 vector."""
    return st.one_of(
        st.lists(_CELLS, min_size=length, max_size=length),
        st.integers(-5, 5).map(lambda start: range(start, start + length)),
        arrays(np.int64, length),
        arrays(np.float64, length, elements=_FINITE),
    )


@st.composite
def _row_reports(draw):
    """Reports whose last value is a table of ints and finite floats held
    as columns, sometimes empty."""
    keys = draw(
        st.one_of(
            st.just(_SIMULATE_KEYS),
            st.lists(_KEYS, min_size=1, max_size=5, unique=True).map(tuple),
        )
    )
    length = draw(st.integers(0, 8))
    table = _Rows(keys, [draw(_columns(length)) for _ in keys])
    return {"strategy": "online", "z_success": 0.0, "per_position": table}


def _z_score(empirical: float, exact: float, trials: int) -> float:
    """The per-value z-score that ``_z_scores`` computes in bulk, with the
    correctly rounded square root."""
    variance = exact * (1.0 - exact) / trials
    if variance <= 0.0:
        return 0.0
    return (empirical - exact) / math.sqrt(variance)


#: strengths at c = 1e-6 whose cells differ in width: 1, twelve-digit
#: values, seventeen-character exponent forms and the saturated 1/c
_WIDE_C = 1e-6
_WIDTH_POOL = [1.0, 123.456789012, 0.123456789012, 1.23456789012e-06, 9.87654321098e-05, 1.0 / _WIDE_C]

#: bit patterns that repeat in a drawn vector: both zeros, two NaN
#: payloads, both infinities, a subnormal and two ordinary strengths
_POOL_BITS = [
    0x0000000000000000,
    0x8000000000000000,
    0x7FF8000000000000,
    0xFFF8000000000001,
    0x7FF0000000000000,
    0xFFF0000000000000,
    0x0000000000000001,
    0x3FF4CCCCCCCCCCCD,  # 1.3
    0x3FF4CCCCCCCCCCCC,  # 1.3 less one ulp
]


#: where neighbouring floats print apart: 12-digit rounding midpoints, two
#: of them where the text rounds up to a power of ten and loses digits,
#: just above 1 (a few thousand ulps below print ``0.999999999999``), and
#: the ``%g`` switch from the exponent form to ``0.0001``
_TEXT_MIDPOINTS = [
    1.0000000000005,
    1.000000000005,
    2.000000000005,
    9.999999999995,
    99.99999999995,
    9.9999999999995e-05,
]


def _ulps(base: float, offsets) -> np.ndarray:
    """The floats ``offsets`` ulps from ``base``, a positive float."""
    return (np.float64(base).view(np.int64) + np.array(offsets)).view(np.float64)


def _ceiling_at(x: float) -> float:
    """An overlap whose saturation flag holds from about ``x`` upward, for
    ``x >= 2``: the ceiling ``1/c`` lies ``1e-9 x`` above ``x``, and its
    slack is ``1e-9`` of the ceiling (c < 1/2, so not the quarter of
    ``[c, 1/c]``)."""
    return 1.0 / (x * (1 + 1e-9))


@st.composite
def _ulp_chains(draw):
    """Sorted strengths a few thousand ulps around a base, so that many
    print alike and some cross a rounding boundary, and an overlap whose
    saturation ceiling either sits far above them or starts the flag at
    one of them."""
    base = draw(st.one_of(st.sampled_from(_TEXT_MIDPOINTS), st.floats(1e-5, 1e3)))
    offsets = sorted(draw(st.lists(st.integers(-(2**13), 2**13), min_size=1, max_size=40)))
    xs = _ulps(base, offsets)
    if xs[0] >= 2 and draw(st.booleans()):
        return _ceiling_at(xs[draw(st.integers(0, len(xs) - 1))]), xs
    return _WIDE_C, xs


class TestBulkFormatters:
    @settings(deadline=None, max_examples=300)
    @given(payload=_row_reports())
    def test_dump_json_renders_dict_rows_like_the_encoder(self, payload):
        expected = json.dumps(payload, indent=2, default=_row_dicts) + "\n"
        # a table renders the same twice: its rows are iterated afresh
        assert "".join(_dump_json(payload)) == "".join(_dump_json(payload)) == expected

    @pytest.mark.parametrize(
        "golden, key",
        [
            ("simulate_online_n31.json", "per_position"),
            ("simulate_fl_n31.json", "per_position"),
            ("simulate_sl_n31.json", "per_position"),
            ("simulate_online_n200.json", "per_position"),
            ("curve_n301_exact.json", "rows"),
        ],
    )
    def test_dump_json_on_golden_reports(self, golden, key):
        text = (GOLDEN_DIR / golden).read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2) + "\n"
        # the table as the subcommands hand it over: columns of Python
        # numbers, or numpy vectors
        keys = tuple(payload[key][0])
        columns = list(zip(*[item.values() for item in payload[key]]))
        vectors = [np.array(column) for column in columns]
        assert {vector.dtype for vector in vectors} <= {np.dtype(np.int64), np.dtype(np.float64)}
        for table in (_Rows(keys, columns), _Rows(keys, vectors)):
            assert "".join(_dump_json({**payload, key: table})) == text

    def test_simulate_report_with_vanishing_variance(self, capsys):
        # at overlap 1 no outcome is conclusive: every count is 0, every
        # exact value 0.0 and every z-score the 0.0 of a vanishing variance
        argv = ["simulate", "--n", "5", "--c", "1", "--strategy", "fl", "--trials", "50", "--seed", "2"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        payload = json.loads(text)
        assert {(row["count"], row["exact"], row["z"]) for row in payload["per_position"]} == {(0, 0.0, 0.0)}
        assert text == json.dumps(payload, indent=2) + "\n"

    @settings(deadline=None, max_examples=300)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 10**6), st.floats(0.0, 1.0)), min_size=1, max_size=20
        ),
        trials=st.integers(1, 10**6),
    )
    def test_z_scores_match_the_per_value_formula(self, pairs, trials):
        counts = [min(count, trials) for count, _ in pairs]
        empirical = np.array(counts) / trials
        exact = np.array([p for _, p in pairs] + [0.0, 1.0])
        empirical = np.append(empirical, [0.0, 1.0])
        expected = [_z_score(e, x, trials) for e, x in zip(empirical.tolist(), exact.tolist())]
        got = _z_scores(empirical, exact, trials)
        assert list(map(float.hex, got)) == list(map(float.hex, expected))
        assert expected[-2:] == [0.0, 0.0]

    @staticmethod
    def _seeded_variances():
        rng = np.random.default_rng(11)
        trials = 70_001
        exact = rng.random(20_000)
        return rng.binomial(trials, exact) / trials, exact, trials

    def test_z_scores_take_the_square_root_the_per_value_formula_takes(self):
        # ``** 0.5`` differs from the correctly rounded root in the last bit
        # on about 1 in 1 300 of these variances, so 20 000 of them tell a
        # power-based root apart
        empirical, exact, trials = self._seeded_variances()
        expected = [_z_score(e, x, trials) for e, x in zip(empirical.tolist(), exact.tolist())]
        got = _z_scores(empirical, exact, trials)
        assert list(map(float.hex, got)) == list(map(float.hex, expected))

    def test_z_scores_are_within_three_ulps_of_the_reference(self):
        # against 60-digit decimal arithmetic (worst measured: 1.83 ulps)
        empirical, exact, trials = self._seeded_variances()
        got = _z_scores(empirical, exact, trials)
        for z, e, x in zip(got.tolist(), empirical.tolist(), exact.tolist()):
            error = abs(Decimal(z) - z_score_reference(e, x, trials))
            assert error <= 3 * Decimal(math.ulp(z)), (e, x)

    @settings(deadline=None, max_examples=300)
    @given(payload=st.dictionaries(st.text(max_size=8), _VALUES, min_size=1, max_size=8))
    # one-line values take the C encoder: each kind, and its edges
    @example(payload={"s": 'a"\\\n\t\x00é\u2028\U0001d11e', "e": "", "t": True, "f": False, "z": None})
    @example(payload={"i": 0, "big": 2**100, "neg": -(10**40)})
    @example(payload={"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-0": -0.0, "tiny": 5e-324})
    @example(payload={"x": np.float64(0.1), "nan": np.float64(math.nan), "-0": np.float64(-0.0)})
    def test_dump_json_matches_the_indenting_encoder(self, payload):
        assert "".join(_dump_json(payload)) == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("block", [1, 7, 2048])
    @pytest.mark.parametrize("length", [0, 1, 7, 8, 15, 4097])
    def test_dump_json_renders_integer_vectors_block_by_block(self, length, block, monkeypatch):
        monkeypatch.setattr(cli, "_RENDER_BLOCK", block)
        vector = np.random.default_rng(length).integers(-(2**62), 2**62, size=length)
        payload = {"positions": vector, "nested": {"counts": vector[::-1]}}
        plain = {"positions": vector.tolist(), "nested": {"counts": vector[::-1].tolist()}}
        got = "".join(_dump_json(payload)).split("\n")
        expected = (json.dumps(plain, indent=2) + "\n").split("\n")
        # the first differing line, not a diff of 8 000 lines
        same = got == expected
        diffs = ((i, a, b) for i, (a, b) in enumerate(zip(got, expected)) if a != b)
        assert same, next(diffs, ("line counts", len(got), len(expected)))

    @settings(deadline=None, max_examples=300)
    @given(
        vector=st.one_of(
            arrays(np.int64, st.integers(0, 12)),
            arrays(np.float64, st.integers(0, 12)),
            arrays(np.bool_, st.integers(0, 4)),
        )
    )
    def test_dump_json_renders_a_vector_as_its_list(self, vector):
        # a schedule's strengths and simulate's counts reach the renderer
        # as numpy vectors, nested at two depths
        payload = {"strengths": vector, "report": {"n": 1, "counts": vector}}
        listed = {"strengths": vector.tolist(), "report": {"n": 1, "counts": vector.tolist()}}
        assert "".join(_dump_json(payload)) == json.dumps(listed, indent=2) + "\n"

    @settings(deadline=None, max_examples=300)
    @given(picks=st.lists(st.integers(0, len(_POOL_BITS) - 1), max_size=40))
    def test_dump_json_renders_repeated_floats_like_the_encoder(self, picks):
        # each distinct value is rendered once and gathered by index, so
        # draw from a small pool whose values repeat, with the bit patterns
        # a value comparison would merge
        vector = np.array(_POOL_BITS, dtype=np.uint64).view(np.float64)[picks]
        payload = {"strengths": vector, "report": {"n": 1, "strengths": vector}}
        listed = {"strengths": vector.tolist(), "report": {"n": 1, "strengths": vector.tolist()}}
        assert "".join(_dump_json(payload)) == json.dumps(listed, indent=2) + "\n"

    @settings(deadline=None, max_examples=300)
    @given(picks=st.lists(st.integers(0, len(_POOL_BITS) - 1), max_size=40))
    @example(picks=[0, 1, 0, 1])  # half distinct: 0.0 and -0.0, once each
    @example(picks=[0, 1, 0])  # two patterns in three entries: per block
    @example(picks=[2, 3, 2, 3, 2, 3])  # two NaN payloads, once each
    def test_json_vector_encodes_each_bit_pattern_once(self, picks):
        # the items of a float vector with at most one distinct bit pattern
        # in two entries are gathered from one encoding of those patterns:
        # 0.0 and -0.0, and NaNs with different payloads, are each encoded,
        # and no pattern twice.  A vector of mostly distinct values is
        # encoded entry by entry, one encoder call per block
        vector = np.array(_POOL_BITS, dtype=np.uint64).view(np.float64)[picks]
        encoded = []

        def dumps(value, **kwargs):
            if type(value) is list:
                encoded.extend(value)
            return json.dumps(value, **kwargs)

        with mock.patch.object(cli, "json", SimpleNamespace(dumps=dumps)):
            text = "".join(_dump_json({"strengths": vector}))
        assert text == json.dumps({"strengths": vector.tolist()}, indent=2) + "\n"
        bits = np.array(encoded, dtype=np.float64).view(np.int64).tolist()
        patterns = vector.view(np.int64).tolist()
        if 2 * len(set(patterns)) <= len(patterns):
            assert sorted(bits) == sorted(set(patterns))
        else:
            assert bits == patterns

    @settings(deadline=None, max_examples=300)
    @given(
        runs=st.lists(
            st.tuples(st.integers(0, len(_POOL_BITS) - 1), st.integers(1, 5)), max_size=12
        )
    )
    @example(runs=[])
    @example(runs=[(7, 1)])
    @example(runs=[(7, 1), (8, 1)] * 4)  # alternating
    @example(runs=[(0, 2), (1, 1), (0, 1)])  # 0.0 next to -0.0
    @example(runs=[(2, 1), (3, 3), (2, 2)])  # two NaN payloads
    def test_distinct_is_unique_over_the_bits(self, runs):
        picks = [pick for pick, length in runs for _ in range(length)]
        vector = np.array(_POOL_BITS, dtype=np.uint64).view(np.float64)[picks]
        bits, index = np.unique(vector.view(np.int64), return_inverse=True)
        distinct, got = _distinct(vector)
        assert distinct.dtype == np.float64 and got.dtype == index.dtype
        assert distinct.tobytes() == bits.tobytes()
        assert got.tolist() == index.tolist()

    @pytest.mark.parametrize(
        "solution",
        [
            closed_form_strengths(50_001, 0.3),
            closed_form_strengths(50_001, 0.02),
            # a 2-cycle: 100 000 runs of one strength each, 72 distinct
            optimize_strengths(100_001, 0.61),
            # 49 996 distinct strengths, as the recursion drifts
            recursive_strengths(50_001, 0.02),
        ],
        ids=["closed-settled", "closed-small-c", "numeric-2-cycle", "recursive-drifting"],
    )
    def test_distinct_on_each_schedule_shape(self, solution):
        strengths = solution.schedule.strengths
        bits, index = np.unique(strengths.view(np.int64), return_inverse=True)
        distinct, got = _distinct(strengths)
        assert distinct.tobytes() == bits.tobytes()
        assert got.dtype == index.dtype and np.array_equal(got, index)

    @pytest.mark.parametrize(
        "argv",
        [
            ("curve", "--n", "9", "--c-max", "0.7", "--step", "0.1", "--format", "json"),
            ("strengths", "--n", "40", "--c", "0.6", "--method", "numeric", "--format", "json"),
            ("strengths", "--n", "2", "--c", "0.0", "--format", "json"),
            ("verify", "--n-max", "5"),
            ("verify", "--n-max", "5", "--self-test"),
            ("simulate", "--n", "12", "--c", "0.4", "--trials", "100", "--seed", "3"),
        ],
    )
    def test_dump_json_on_each_subcommand_payload(self, argv, monkeypatch, capsys):
        payloads = []
        monkeypatch.setattr(cli, "_dump_json", lambda p: payloads.append(p) or iter(()))
        main(list(argv))
        assert len(payloads) == 1
        expected = json.dumps(payloads[0], indent=2, default=_row_dicts) + "\n"
        assert "".join(_dump_json(payloads[0])) == "".join(_dump_json(payloads[0])) == expected

    @settings(deadline=None, max_examples=300)
    @given(j=st.integers(1, 10**7), x=_FLOATS, flag=st.sampled_from(["yes", "no"]))
    def test_strength_line_template(self, j, x, flag):
        table, cells = _strength_cells(np.array([x]), np.array([flag == "yes"]))
        line = _strength_lines(j, table, cells)
        assert line == f"{j:>3}  {_fmt(x):<16}  {flag}\n"

    @pytest.mark.parametrize("block", [1, 7, 2048])
    @settings(deadline=None, max_examples=30)
    @given(
        n=st.sampled_from([2, 99, 100, 101, 102, 999, 1000, 1001, 1002]),
        picks=st.lists(st.integers(0, len(_WIDTH_POOL) - 1), min_size=1, max_size=30),
    )
    def test_strengths_text_cells_of_different_widths(self, block, n, picks):
        # the drawn pattern repeats along the chain, so a block's distinct
        # cells differ in width and positions cross from two digits to
        # three and from three to four
        xs = np.resize(np.array(_WIDTH_POOL)[picks], n - 1)
        solution = online_opt._solution(n, _WIDE_C, xs, "custom")
        saturated = set(solution.saturated_positions.tolist())
        lines = [
            f"{j:>3}  {_fmt(x):<16}  {'yes' if j in saturated else 'no'}"
            for j, x in enumerate(xs.tolist(), start=1)
        ]
        with mock.patch.object(cli, "_RENDER_BLOCK", block):
            assert "".join(_strengths_text(solution)).split("\n")[2:] == lines + [""]

    @pytest.mark.parametrize("block", [1, 7, 2048])
    @settings(deadline=None, max_examples=100)
    @given(chain=_ulp_chains())
    # one text, flagged from its sixth value on
    @example(chain=(_ceiling_at(5.0), _ulps(5.0, range(-4, 5))))
    # "9.99999999999", flagged from its third value, then "10"
    @example(chain=(_ceiling_at(_ulps(9.999999999995, [-1])[0]), _ulps(9.999999999995, range(-3, 4))))
    def test_strengths_text_runs_of_equal_text(self, block, chain):
        # a block's distinct strengths print in runs of equal text, found
        # by bisection, and a run can hold saturated and unsaturated ones
        c, xs = chain
        solution = online_opt._solution(len(xs) + 1, c, xs, "custom")
        saturated = set(solution.saturated_positions.tolist())
        lines = [
            f"{j:>3}  {_fmt(x):<16}  {'yes' if j in saturated else 'no'}"
            for j, x in enumerate(xs.tolist(), start=1)
        ]
        with mock.patch.object(cli, "_RENDER_BLOCK", block):
            assert "".join(_strengths_text(solution)).split("\n")[2:] == lines + [""]

    @settings(deadline=None, max_examples=300)
    @given(row=st.tuples(*[st.one_of(_FLOATS, st.integers())] * 5))
    def test_csv_row_template(self, row):
        assert _CSV_ROW % row == ",".join(_fmt(v) for v in row) + "\n"

    @pytest.mark.parametrize("block", [1, 4, 2048])
    @pytest.mark.parametrize(
        "solution",
        [
            best_online(7, 0.3),
            optimize_strengths(30, 0.8),
            sl_solution(5, 0.6),
            closed_form_strengths(5001, 0.3),
            recursive_strengths(5001, 0.02),
            # the orbit alternates: no two neighbouring strengths are equal
            optimize_strengths(2001, 0.55),
            # every position but the last saturated
            optimize_strengths(5001, 0.8),
        ],
        ids=[
            "closed",
            "numeric-saturated",
            "sl",
            "closed-long",
            "recursive-long",
            "numeric-orbit",
            "numeric-saturated-long",
        ],
    )
    def test_strengths_text_line_by_line(self, solution, block, monkeypatch):
        monkeypatch.setattr(cli, "_RENDER_BLOCK", block)
        saturated = set(solution.saturated_positions.tolist())
        lines = [
            f"{j:>3}  {_fmt(x):<16}  {'yes' if j in saturated else 'no'}"
            for j, x in enumerate(solution.schedule.strengths.tolist(), start=1)
        ]
        assert "".join(_strengths_text(solution)).split("\n")[2:] == lines + [""]

    @pytest.mark.parametrize("block", [1, 7, 2048])
    @pytest.mark.parametrize(
        "solution",
        [closed_form_strengths(5001, 0.3), recursive_strengths(5001, 0.02)],
        ids=["closed", "recursive-drifting"],
    )
    def test_strengths_text_renders_its_cells_once(self, solution, block, monkeypatch):
        # the cells are a property of the schedule, not of a block: one
        # bisection into runs of equal text and one bulk render per call,
        # whatever the block size
        calls = {"_render_lines": 0, "_text_runs": 0}

        def counted(name):
            inner = getattr(cli, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(cli, name, counted(name))
        monkeypatch.setattr(cli, "_RENDER_BLOCK", block)
        assert len("".join(_strengths_text(solution)).split("\n")) == 5000 + 3
        assert calls == {"_render_lines": 1, "_text_runs": 1}

    @pytest.mark.parametrize("block", [7, 999, 1000, 2048])
    @pytest.mark.parametrize(
        "solution",
        [
            closed_form_strengths(10_050, 0.3),
            closed_form_strengths(34_216, 0.139696),
            # 34 211 distinct strengths, printed as 18 texts
            recursive_strengths(34_216, 0.139696),
            closed_form_strengths(100_050, 0.48),
            recursive_strengths(100_050, 0.02),
        ],
        ids=["closed-10050", "closed-34216", "recursive-34216", "closed-100050", "recursive-100050"],
    )
    def test_strengths_text_positions_widen_inside_a_block(self, solution, block, monkeypatch):
        # positions cross 9 999 -> 10 000 (and 99 999 -> 100 000 on the
        # longest chains) inside one block, at block sizes that do and do
        # not divide 1000
        monkeypatch.setattr(cli, "_RENDER_BLOCK", block)
        saturated = set(solution.saturated_positions.tolist())
        lines = [
            f"{j:>3}  {_fmt(x):<16}  {'yes' if j in saturated else 'no'}"
            for j, x in enumerate(solution.schedule.strengths.tolist(), start=1)
        ]
        got = "".join(_strengths_text(solution)).split("\n")[2:]
        # the first differing line, not a diff of 1e5 lines
        diffs = ((j, a, b) for j, (a, b) in enumerate(zip(got, lines), start=1) if a != b)
        assert got == lines + [""], next(diffs, ("line counts", len(got), len(lines)))

    @pytest.mark.parametrize("c", [0.02, 0.3, 0.48])
    @pytest.mark.parametrize("method", ["closed", "recursive"])
    def test_long_schedule_per_position(self, method, c, capsys):
        # 50 000 strengths against one line and one encoder item per
        # position: closed forms that settle to 1 + c, and recursions that
        # settle (59 distinct strengths at c = 0.3) or drift (49 996 at
        # c = 0.02)
        n = 50_001
        solution = {"closed": closed_form_strengths, "recursive": recursive_strengths}[method](n, c)
        strengths = solution.schedule.strengths.tolist()
        saturated = set(solution.saturated_positions.tolist())
        argv = ["strengths", "--n", str(n), "--c", str(c), "--method", method]
        assert main(argv) == 0
        lines = capsys.readouterr().out.split("\n")
        assert lines[2:] == [
            f"{j:>3}  {_fmt(x):<16}  {'yes' if j in saturated else 'no'}"
            for j, x in enumerate(strengths, start=1)
        ] + [""]
        assert main([*argv, "--format", "json"]) == 0
        payload = {
            "n": n,
            "c": c,
            "method": solution.method,
            "success": solution.success,
            "strengths": strengths,
            "saturated_positions": sorted(saturated),
        }
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("block", [1, 7, 2048])
    def test_to_csv_line_by_line(self, block, monkeypatch):
        monkeypatch.setattr(cli, "_RENDER_BLOCK", block)
        table = build_curve(31, 0.0, 0.99, 0.01, include_endpoint=True)
        lines = [CSV_HEADER] + [",".join(_fmt(v) for v in row) for row in rows_of(table.columns)]
        assert "".join(table.to_csv()) == "\n".join(lines) + "\n"


class TestMemory:
    """Peak memory per strength position (per grid row for ``curve``) of one
    in-process request, traced by ``tracemalloc`` with output writing
    stubbed out: the stub consumes the rendered blocks inside the traced
    region and keeps only their lengths.  Each budget is the peak measured
    with Python 3.11 and numpy 2.4, in the comment beside it, plus some
    8%."""

    @pytest.mark.parametrize(
        "argv, positions, budget",
        [
            # 134.5 B: the float vectors and one block of the rendered
            # report; the whole report (170 B a position, held twice while
            # it was joined) peaked at 395.6 B
            (("simulate", "--n", "20001", "--c", "0.4", "--trials", "1", "--seed", "1"), 20_000, 146),
            # 36.5 B: the strength and profile vectors, the index of each
            # position's distinct strength and one block of text; walking
            # the runs of equal bits instead of that index peaked at
            # 35.1 B, the joined text (28 B a position) at 71.8 B
            (("strengths", "--n", "20001", "--c", "0.3"), 20_000, 38),
            # 88.6 B: the recursion's vectors, at their peak before any text
            # is rendered; no string per position, though the 19 996
            # strengths never settle
            (("strengths", "--n", "20001", "--c", "0.02", "--method", "recursive"), 20_000, 96),
            # 35.1 B: the strength and profile vectors, the repeated index
            # and one block of items; only the heads of the strengths' runs
            # of equal bits are sorted, and the 31 distinct strengths are
            # rendered once each.  A list of every item peaked at 40.6 B
            (("strengths", "--n", "20001", "--c", "0.3", "--format", "json"), 20_000, 38),
            # 35.1 B: 59 distinct strengths, as the recursion drifts; a
            # list of every item peaked at 40.7 B, the joined report at
            # 64.5 B
            (
                ("strengths", "--n", "20001", "--c", "0.3", "--method", "recursive", "--format", "json"),
                20_000,
                38,
            ),
            # 36.7 B: the orbit written into its vector, one block of items
            # and of text; the 19 999 saturated positions become Python
            # ints one block at a time.  With the orbit as a list of floats
            # and a list of every item it peaked at 48.3 B, joining the
            # report at 93.1 B
            (
                ("strengths", "--n", "20001", "--c", "0.7", "--method", "numeric", "--format", "json"),
                20_000,
                40,
            ),
            # 34.0 B: as above at 15 times the length; 48.0 B with the
            # lists, 95.3 B joined, and with one encoder call over all
            # 299 999 positions 122.9 B
            (
                ("strengths", "--n", "300001", "--c", "0.7", "--method", "numeric", "--format", "json"),
                300_000,
                37,
            ),
            # 1054.8 B a row, nearly all of it the table's blocks of
            # strengths and profiles and the kernel's change factors
            (("curve", "--step", "0.001", "--format", "json"), 990, 1140),
        ],
        ids=[
            "simulate",
            "strengths-text",
            "strengths-recursive-text",
            "strengths-json",
            "strengths-recursive-json",
            "strengths-numeric-json",
            "strengths-numeric-json-long",
            "curve-json",
        ],
    )
    def test_peak_per_position(self, argv, positions, budget, monkeypatch):
        sizes = []

        def write(blocks, out):
            lengths = [len(block) for block in blocks]
            sizes.append((sum(lengths), max(lengths)))  # the text and its largest block

        monkeypatch.setattr(cli, "_write", write)
        main(list(argv))  # the parser and other one-time caches
        tracemalloc.start()
        try:
            assert main(list(argv)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes[0] == sizes[1]
        assert peak / positions <= budget, f"{peak / positions:.1f} B per position"

    def test_peak_per_entry_of_a_vector_of_distinct_floats(self):
        # 17.0 B: the run heads and a sorted copy of their bits, which count
        # the distinct values, then one block of items at a time.  Building
        # every entry's index and the text of each distinct value peaked at
        # 110.7 B (a custom schedule of 3e6 random strengths, 332 MB)
        strengths = np.random.default_rng(7).uniform(0.41, 2.4, 200_000)
        payload = {"strengths": strengths}
        expected = sum(map(len, _dump_json(payload)))
        tracemalloc.start()
        try:
            assert sum(map(len, _dump_json(payload))) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(strengths) <= 18.4, f"{peak / len(strengths):.1f} B per entry"


class TestStreaming:
    """Each renderer yields its report in blocks, and ``_write`` writes each
    block as it comes, to stdout or to the ``--out`` file."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--n", "20001", "--c", "0.4", "--trials", "1", "--seed", "1"),
            ("strengths", "--n", "20001", "--c", "0.3"),
            ("strengths", "--n", "20001", "--c", "0.7", "--method", "numeric", "--format", "json"),
        ],
        ids=["simulate", "strengths-text", "strengths-numeric-json"],
    )
    def test_no_block_holds_the_whole_report(self, argv, monkeypatch):
        # the reports hold 3.39 M, 0.55 M and 0.69 M characters
        blocks = []

        def write(parts, out):
            assert type(parts) is not str, "the whole report as one string"
            blocks.extend(parts)

        monkeypatch.setattr(cli, "_write", write)
        assert main(list(argv)) == 0
        assert max(map(len, blocks)) <= 2**19
        expected = subprocess.run(
            [sys.executable, "-W", "error", "-m", "qcpd.cli", *argv], capture_output=True
        )
        assert "".join(blocks).encode() == expected.stdout

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("curve", "--n", "9", "--c-max", "0.7", "--step", "0.1"), 0),
            (("curve", "--n", "9", "--c-max", "0.7", "--step", "0.1", "--format", "json"), 0),
            (("strengths", "--n", "5000", "--c", "0.6", "--method", "numeric"), 0),
            (("strengths", "--n", "5000", "--c", "0.3", "--format", "json"), 0),
            (("verify", "--n-max", "5", "--self-test"), 2),
            (("simulate", "--n", "3000", "--c", "0.4", "--trials", "100", "--seed", "3"), 0),
        ],
        ids=["curve-csv", "curve-json", "strengths-text", "strengths-json", "verify-self-test", "simulate"],
    )
    def test_out_holds_the_stdout_bytes(self, argv, code, tmp_path, capsys):
        target = tmp_path / "report"
        assert main([*argv, "--out", str(target)]) == code
        assert capsys.readouterr().out == ""
        expected = subprocess.run(
            [sys.executable, "-W", "error", "-m", "qcpd.cli", *argv], capture_output=True
        )
        assert expected.returncode == code
        assert target.read_bytes() == expected.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ("strengths", "--n", "1", "--c", "0.3"),
            ("curve", "--step", "0"),
            ("simulate", "--n", str(MAX_POSITIONS + 2), "--c", "0.4", "--trials", "1", "--seed", "1"),
        ],
        ids=["strengths-short-chain", "curve-zero-step", "simulate-over-cap"],
    )
    def test_a_rejected_request_creates_no_file(self, argv, tmp_path, capsys):
        target = tmp_path / "report"
        assert main([*argv, "--out", str(target)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("qcpd: error: ")
        assert not target.exists()


class TestInProcess:
    def test_one_parser_serves_a_mixed_sequence(self, monkeypatch, capsys):
        # help text wraps to the terminal width; pin it for both sides
        monkeypatch.setenv("COLUMNS", "80")
        curve = ("curve", "--n", "9", "--c-max", "0.7", "--step", "0.1")
        sequence = [
            curve,
            ("strengths", "--n", "12", "--c", "0.7", "--method", "numeric"),
            ("strengths", "--n", "12", "--c", "0.3", "--format", "json"),
            ("simulate", "--n", "12", "--c", "0.4", "--trials", "100", "--seed", "3"),
            ("verify", "--n-max", "5"),
            ("strengths", "--n", "12"),  # missing --c: usage error
            ("--help",),
            curve,
        ]
        build_parser.cache_clear()
        codes = []
        for argv in sequence:
            try:
                rc = main(list(argv))
            except SystemExit as exc:
                rc = exc.code
            codes.append(rc)
            out, err = capsys.readouterr()
            expected = run_cli(*argv)
            assert (rc, out, err) == (
                expected.returncode, expected.stdout, expected.stderr
            ), argv
        assert codes == [0, 0, 0, 0, 0, 1, 0, 0]
        assert build_parser.cache_info().misses == 1
