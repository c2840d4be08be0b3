"""Command-line interface.

Four subcommands: ``curve`` sweeps the overlap and tabulates the success
probabilities of the global bound and the online strategy families;
``strengths`` prints a schedule with saturation flags; ``verify`` runs the
cross-module consistency suites; ``simulate`` runs seeded Monte Carlo
trials and compares them against the exact profile.

Output is CSV (fixed header ``c,p_global,p_online,p_fl,p_sl``, 12
significant digits, ``\\n`` newlines) or JSON (flat snake_case keys), both
deterministic so golden-file comparisons are byte-exact.

Exit codes: 0 success, 1 usage or domain error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Sequence

from .errors import QcpdError, SingularityError
from .core import Overlap, StrengthSchedule, evaluate_strategy
from .global_bound import optimal_global
from .kernels import active_backend
from .montecarlo import run_experiment
from .online_opt import (
    OnlineSolution,
    best_online,
    closed_form_strengths,
    fl_solution,
    fl_success_asymptotic,
    optimize_strengths,
    recursive_strengths,
    sl_solution,
    sl_success_asymptotic,
)
from .verification import run_all

_TOL = 1e-12
CSV_HEADER = "c,p_global,p_online,p_fl,p_sl"

#: largest overlap grid ``curve`` evaluates; finer grids are rejected up front
MAX_CURVE_ROWS = 100_000


def _fmt(value: float) -> str:
    """12 significant digits; round-trips through ``float`` bit-stably."""
    return f"{value:.12g}"


# ---------------------------------------------------------------------------
# curve table
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CurveTable:
    """Success probabilities per overlap, one row per grid point."""

    n: int
    mode: str  # "exact" or "asymptotic"
    rows: tuple[tuple[float, float, float, float, float], ...]

    def __post_init__(self) -> None:
        previous = None
        for c, p_global, p_online, _, _ in self.rows:
            if previous is not None and c <= previous:
                raise ValueError("grid overlaps must be strictly increasing")
            previous = c
            if p_online > p_global + _TOL:
                raise ValueError(
                    f"online column exceeds the global bound at c={c!r}"
                )

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        lines.extend(",".join(_fmt(v) for v in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "rows": [
                {
                    "c": row[0],
                    "p_global": row[1],
                    "p_online": row[2],
                    "p_fl": row[3],
                    "p_sl": row[4],
                }
                for row in self.rows
            ],
        }


def parse_curve_csv(text: str, n: int = 0, mode: str = "exact") -> CurveTable:
    """Inverse of :meth:`CurveTable.to_csv` (used for round-trip checks)."""
    lines = [line for line in text.split("\n") if line]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or unexpected CSV header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"expected 5 columns, got {len(parts)}")
        rows.append(tuple(float(p) for p in parts))
    return CurveTable(n=n, mode=mode, rows=tuple(rows))


def _exact_row(n: int, c: float) -> tuple[float, float, float, float, float]:
    if c == 0.0:
        # Zero overlap makes every unambiguous measurement perfectly
        # conclusive, so each strategy succeeds with certainty (the
        # saturated family's 1/c prescription is vacuous here).
        return (0.0, 1.0, 1.0, 1.0, 1.0)
    try:
        p_global = optimal_global(n, c)[1]
    except SingularityError:
        # Only at c=1 with even n; identical states admit no conclusive
        # outcome, so the bound degenerates to zero.
        p_global = 0.0
    p_online = best_online(n, c).success
    p_fl = fl_solution(n, c, x=min(1.0 + c, 1.0 / c)).success
    p_sl = sl_solution(n, c).success
    return (c, p_global, p_online, p_fl, p_sl)


def _asymptotic_row(c: float) -> tuple[float, float, float, float, float]:
    if c == 0.0:
        return (0.0, 1.0, 1.0, 1.0, 1.0)
    p_global = (1.0 - c) / (1.0 + c)
    p_fl = fl_success_asymptotic(c, x=min(1.0 + c, 1.0 / c))
    # The optimal bulk strength converges to the same clipped constant, so
    # the best online strategy shares the constant-strength limit.
    return (c, p_global, p_fl, p_fl, sl_success_asymptotic(c))


def build_curve(
    n: int,
    c_min: float,
    c_max: float,
    step: float,
    asymptotic: bool = False,
    include_endpoint: bool = False,
) -> CurveTable:
    """Evaluate the success columns on the overlap grid."""
    if step <= 0.0:
        raise ValueError("--step must be positive")
    if c_min >= c_max:
        raise ValueError("--c-min must be below --c-max")
    if c_min < 0.0 or c_max > 1.0:
        raise ValueError("the overlap grid must stay inside [0, 1]")
    span = (c_max - c_min) / step + 1e-9
    if span >= MAX_CURVE_ROWS:
        raise ValueError(f"{span + 1:.4g} grid rows exceed the cap of {MAX_CURVE_ROWS}")
    rows = []
    for i in range(int(span) + 1):
        c = round(c_min + i * step, 12)
        if c > c_max + 1e-12:
            break
        if abs(c - 1.0) <= 1e-12:
            if not include_endpoint:
                continue
            c = 1.0
        rows.append(_asymptotic_row(c) if asymptotic else _exact_row(n, c))
    return CurveTable(
        n=n, mode="asymptotic" if asymptotic else "exact", rows=tuple(rows)
    )


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def cmd_curve(args: argparse.Namespace) -> int:
    table = build_curve(
        n=args.n,
        c_min=args.c_min,
        c_max=args.c_max,
        step=args.step,
        asymptotic=args.asymptotic,
        include_endpoint=args.include_endpoint,
    )
    if args.format == "csv":
        _write(table.to_csv(), args.out)
    else:
        _write(_dump_json(table.to_dict()), args.out)
    return 0


_METHODS = {
    "closed": closed_form_strengths,
    "recursive": recursive_strengths,
    "numeric": optimize_strengths,
}


def _strengths_text(solution: OnlineSolution) -> str:
    schedule = solution.schedule
    lines = [
        f"n={schedule.n} c={_fmt(schedule.overlap.c)} "
        f"method={solution.method.value} success={_fmt(solution.success)}",
        "  j  strength          saturated",
    ]
    for j, x in enumerate(schedule.strengths, start=1):
        flag = "yes" if j in solution.saturated_positions else "no"
        lines.append(f"{j:>3}  {_fmt(x):<16}  {flag}")
    return "\n".join(lines) + "\n"


def cmd_strengths(args: argparse.Namespace) -> int:
    if not 0.0 <= args.c < 1.0:
        raise ValueError(
            f"schedule construction needs overlap in [0, 1), got {args.c}"
        )
    solution = _METHODS[args.method](args.n, args.c)
    if args.format == "json":
        schedule = solution.schedule
        payload = {
            "n": schedule.n,
            "c": schedule.overlap.c,
            "method": solution.method.value,
            "success": solution.success,
            "strengths": list(schedule.strengths),
            "saturated_positions": sorted(solution.saturated_positions),
        }
        _write(_dump_json(payload), args.out)
    else:
        _write(_strengths_text(solution), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_all(n_max=args.n_max, seed=args.seed, inject_fault=args.self_test)
    payload = {
        "passed": all(r.passed for r in results),
        "self_test": args.self_test,
        "suites": [r.to_dict() for r in results],
    }
    _write(_dump_json(payload), args.out)
    if payload["passed"]:
        return 0
    for result in results:
        if not result.passed:
            case = result.worst_case or {}
            sys.stderr.write(
                f"verification failed: {result.name} "
                f"max residual {result.max_residual:.3e} > {result.threshold:.0e}"
                f" at n={case.get('n')} c={case.get('c')}"
                f" position={case.get('position')}\n"
            )
    return 2


def _load_custom_schedule(path: str, n: int | None, c: float) -> StrengthSchedule:
    with open(path, "r", encoding="utf-8") as handle:
        values = [float(token) for token in handle.read().split()]
    if len(values) < 1:
        raise ValueError(f"schedule file {path!r} holds no strengths")
    if n is not None and n != len(values) + 1:
        raise ValueError(
            f"--n {n} disagrees with the {len(values)} strengths in {path!r}"
            f" (which imply n={len(values) + 1})"
        )
    return StrengthSchedule(
        n=len(values) + 1, strengths=tuple(values), overlap=Overlap(c)
    )


def _select_strategy(args: argparse.Namespace) -> StrengthSchedule:
    if args.strategy == "custom":
        if args.schedule is None:
            raise ValueError("--strategy custom needs --schedule FILE")
        return _load_custom_schedule(args.schedule, args.n, args.c)
    if args.n is None:
        raise ValueError("--n is required unless a schedule file is given")
    if args.strategy == "online":
        return best_online(args.n, args.c).schedule
    if args.strategy == "fl":
        return fl_solution(args.n, args.c, x=min(1.0 + args.c, 1.0 / args.c) if args.c > 0 else None).schedule
    return sl_solution(args.n, args.c).schedule  # "sl"


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    schedule = _select_strategy(args)
    report = run_experiment(schedule, args.trials, args.seed)
    profile = evaluate_strategy(schedule)

    def z_score(empirical: float, exact: float, trials: int) -> float:
        variance = exact * (1.0 - exact) / trials
        if variance <= 0.0:
            return 0.0
        return (empirical - exact) / variance ** 0.5

    per_position = []
    for k in range(1, schedule.n + 1):
        exact = profile.per_position[k - 1] / schedule.n
        empirical = report.detections_per_position[k - 1] / report.trials
        per_position.append(
            {
                "position": k,
                "count": report.detections_per_position[k - 1],
                "empirical": empirical,
                "exact": exact,
                "z": z_score(empirical, exact, report.trials),
            }
        )
    payload = {
        "strategy": args.strategy,
        "backend": active_backend(),
        "strengths": list(schedule.strengths),
        "report": report.to_dict(),
        "exact_success": profile.average,
        "z_success": z_score(report.empirical_success, profile.average, report.trials),
        "per_position": per_position,
    }
    _write(_dump_json(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract here is 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qcpd",
        description=(
            "Exact values, optimal schedules, consistency suites, and seeded "
            "simulation for sequential change-point detection with "
            "unambiguous local measurements."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser(
        "curve", help="sweep the overlap and tabulate success probabilities"
    )
    curve.add_argument("--n", type=int, default=31, help="chain length (default 31)")
    curve.add_argument("--c-min", type=float, default=0.0)
    curve.add_argument("--c-max", type=float, default=0.99)
    curve.add_argument("--step", type=float, default=0.01)
    curve.add_argument(
        "--asymptotic",
        action="store_true",
        help="large-n closed forms instead of exact finite-n values",
    )
    curve.add_argument(
        "--include-endpoint",
        action="store_true",
        help="keep the degenerate c=1 grid point (all limits are zero)",
    )
    curve.add_argument("--format", choices=("csv", "json"), default="csv")
    curve.add_argument("--out", default=None, help="output path (default stdout)")
    curve.set_defaults(func=cmd_curve)

    strengths = sub.add_parser(
        "strengths", help="print a measurement schedule with saturation flags"
    )
    strengths.add_argument("--n", type=int, required=True)
    strengths.add_argument("--c", type=float, required=True)
    strengths.add_argument(
        "--method",
        choices=tuple(_METHODS),
        default="closed",
        help="constructor: closed/recursive need c <= 1/2 (default closed)",
    )
    strengths.add_argument("--format", choices=("text", "json"), default="text")
    strengths.add_argument("--out", default=None)
    strengths.set_defaults(func=cmd_strengths)

    verify = sub.add_parser(
        "verify", help="run the cross-module consistency suites"
    )
    verify.add_argument(
        "--n-max",
        type=int,
        default=8,
        help="largest chain length for the brute-force oracle suite (default 8)",
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--self-test",
        action="store_true",
        help="negative control: perturb one strength; the run must fail",
    )
    verify.add_argument("--out", default=None)
    verify.set_defaults(func=cmd_verify)

    simulate = sub.add_parser(
        "simulate", help="seeded Monte Carlo trials vs. the exact profile"
    )
    simulate.add_argument("--n", type=int, default=None)
    simulate.add_argument("--c", type=float, required=True)
    simulate.add_argument(
        "--strategy", choices=("online", "fl", "sl", "custom"), default="online"
    )
    simulate.add_argument(
        "--schedule",
        default=None,
        help="whitespace-separated strengths file (with --strategy custom)",
    )
    simulate.add_argument("--trials", type=int, default=100_000)
    simulate.add_argument("--seed", type=int, required=True)
    simulate.add_argument("--out", default=None)
    simulate.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QcpdError as exc:
        sys.stderr.write(f"qcpd: error: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"qcpd: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
