"""Command-line surface: output formats, golden files, and exit codes."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from qcpd.cli import CSV_HEADER, MAX_CURVE_ROWS, build_curve, parse_curve_csv

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "qcpd.cli", *args],
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
        for c, p_global, p_online, _, _ in table.rows:
            assert abs(p_online - p_global) <= 1e-10

    def test_csv_round_trip_is_stable(self):
        table = build_curve(n=9, c_min=0.0, c_max=0.8, step=0.2)
        text = table.to_csv()
        assert parse_curve_csv(text, n=9).to_csv() == text

    def test_json_format_carries_the_same_values(self):
        result = run_cli(
            "curve", "--n", "7", "--c-max", "0.4", "--step", "0.2", "--format", "json"
        )
        payload = json.loads(result.stdout)
        assert payload["n"] == 7 and payload["mode"] == "exact"
        assert [row["c"] for row in payload["rows"]] == [0.0, 0.2, 0.4]
        table = build_curve(n=7, c_min=0.0, c_max=0.4, step=0.2)
        for row, expected in zip(payload["rows"], table.rows):
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

    def test_oversized_grid_is_rejected_at_once(self):
        # 1e12 rows would never finish; the cap applies before any row
        result = run_cli("curve", "--step", "1e-12", timeout=30)
        assert result.returncode == 1
        assert result.stdout == ""
        assert "rows" in result.stderr and str(MAX_CURVE_ROWS) in result.stderr

    def test_out_writes_the_file(self, tmp_path):
        target = tmp_path / "table.csv"
        result = run_cli(
            "curve", "--n", "5", "--c-max", "0.2", "--step", "0.1",
            "--out", str(target),
        )
        assert result.returncode == 0 and result.stdout == ""
        assert target.read_text().startswith(CSV_HEADER)


class TestStrengths:
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

    def test_domain_errors_are_exit_one(self):
        assert run_cli("strengths", "--n", "4", "--c", "1.0").returncode == 1
        assert run_cli("strengths", "--n", "1", "--c", "0.3").returncode == 1
        assert run_cli("strengths", "--n", "4", "--c", "0.3", "--method", "x").returncode == 1


class TestVerify:
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

    @pytest.mark.parametrize("n_max", ["1", "40"])
    def test_n_max_outside_the_oracle_range_is_exit_one(self, n_max):
        result = run_cli("verify", "--n-max", n_max)
        assert result.returncode == 1
        assert result.stdout == ""
        assert "2..12" in result.stderr

    def test_n_max_at_the_cap_passes(self):
        result = run_cli("verify", "--n-max", "12")
        assert result.returncode == 0, result.stderr
        oracle = json.loads(result.stdout)["suites"][0]
        assert oracle["name"] == "oracle_equivalence"
        assert oracle["cases"] == 11 * 25


class TestSimulate:
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


class TestTopLevel:
    def test_unknown_subcommand_is_exit_one(self):
        assert run_cli("frobnicate").returncode == 1

    def test_help_is_available(self):
        result = run_cli("--help")
        assert result.returncode == 0
        for name in ("curve", "strengths", "verify", "simulate"):
            assert name in result.stdout
