"""Output gate: every request's output is checked against a second route.

* curve rows: ``p_online <= p_global``, equal within 1e-11 for c <= 1/2,
  the requested grid (row count and end points), and the golden request
  byte for byte against ``tests/golden/curve_n31_exact.csv``;
* strengths: n-1 entries in ``[c, 1/c]`` and a success equal to the
  closed-form ``global_success(n, c)`` within 1e-10;
* simulate: no mismatched detections, consistent counts, the exact column
  against ``global_success`` (online) or ``fl_success_exact`` (fl), and for
  a subset a re-run of the printed schedule whose kernel counts must equal
  the pooled scalar ``simulate_trial`` walk bit for bit;
* verify: ``passed``.

``kernel_oracles`` checks the numpy detection-profile kernel against the
brute-force ``enumerate_strategy`` oracle on short chains.

A check returns ``None`` when the output is right and a reason otherwise.
The checks are slow next to some requests; callers run them outside the
timed region.
"""
from __future__ import annotations

import json
import random
from collections import Counter

import numpy as np

from qcpd import kernels
from qcpd.core import ENUMERATION_CAP, Overlap, StrengthSchedule, enumerate_strategy
from qcpd.global_bound import global_success
from qcpd.montecarlo import simulate_trial
from qcpd.online_opt import fl_success_exact

from . import GOLDEN_CURVE
from .workloads import Request

CURVE_HEADER = "c,p_global,p_online,p_fl,p_sl"
#: 12 significant digits are printed, so printed equals differ by < 1e-11
CURVE_TOL = 1e-11
SUCCESS_TOL = 1e-10
ORACLE_TOL = 1e-12
#: trials re-run through the scalar walk for the bit-exact kernel check
EXACT_TRIALS = 2_000
ORACLE_CASES = 20


class GateError(Exception):
    """An output failed its check."""


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise GateError(reason)


def _rounded(value: float) -> float:
    return float(f"{value:.12g}")


def check(request: Request, rc, out: str) -> str | None:
    """``None`` if ``out`` (exit code ``rc``) is right for ``request``."""
    try:
        _require(rc == 0, f"exit code {rc!r}")
        _CHECKS[request.kind](request.params, out)
    except (GateError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{' '.join(request.argv)}: {type(exc).__name__}: {exc}"
    return None


def _curve_rows(params: dict, out: str) -> list[tuple[float, ...]]:
    if params["format"] == "json":
        rows = json.loads(out)["rows"]
        return [(r["c"], r["p_global"], r["p_online"], r["p_fl"], r["p_sl"]) for r in rows]
    lines = out.split("\n")
    _require(lines[0] == CURVE_HEADER, f"header {lines[0]!r}")
    _require(lines[-1] == "", "output does not end with a newline")
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:-1]]


def check_curve(params: dict, out: str) -> None:
    if params.get("golden"):
        _require(out == GOLDEN_CURVE.read_text(encoding="utf-8"), "differs from the golden table")
        return
    rows = _curve_rows(params, out)
    _require(len(rows) == params["rows"], f"{len(rows)} rows, expected {params['rows']}")
    _require(abs(rows[0][0] - params["c_min"]) <= 1e-12, f"first overlap {rows[0][0]!r}")
    _require(abs(rows[-1][0] - params["c_max"]) <= 1e-12, f"last overlap {rows[-1][0]!r}")
    for c, p_global, p_online, p_fl, p_sl in rows:
        _require(all(0.0 <= p <= 1.0 for p in (p_global, p_online, p_fl, p_sl)), f"probability out of range at c={c}")
        _require(p_online <= p_global + CURVE_TOL, f"p_online {p_online!r} > p_global {p_global!r} at c={c}")
        if c <= 0.5:
            _require(abs(p_online - p_global) <= CURVE_TOL, f"p_online != p_global at c={c}")


def _strengths_output(params: dict, out: str) -> tuple[int, float, str, float, list[float]]:
    if params["format"] == "json":
        d = json.loads(out)
        return d["n"], d["c"], d["method"], d["success"], d["strengths"]
    lines = out.split("\n")
    head = dict(token.split("=", 1) for token in lines[0].split())
    _require(lines[-1] == "", "output does not end with a newline")
    xs = []
    for j, line in enumerate(lines[2:-1], start=1):
        position, value, flag = line.split()
        _require(int(position) == j and flag in ("yes", "no"), f"malformed line {line!r}")
        xs.append(float(value))
    return int(head["n"]), float(head["c"]), head["method"], float(head["success"]), xs


def check_strengths(params: dict, out: str) -> None:
    n, c, method, success, xs = _strengths_output(params, out)
    expected = params["c"] if params["format"] == "json" else _rounded(params["c"])
    _require(n == params["n"] and c == expected, f"echoed n={n} c={c}")
    _require(method == {"closed": "closed-form", "recursive": "recursive"}[params["method"]], f"method {method!r}")
    _require(len(xs) == n - 1, f"{len(xs)} strengths for n={n}")
    lo, hi = params["c"], 1.0 / params["c"]
    if params["format"] == "text":
        lo, hi = _rounded(lo), _rounded(hi)
    _require(all(lo <= x <= hi for x in xs), "a strength lies outside [c, 1/c]")
    reference = global_success(n, params["c"])
    _require(abs(success - reference) <= SUCCESS_TOL, f"success {success!r} vs global {reference!r}")


def check_simulate(params: dict, out: str) -> None:
    d = json.loads(out)
    report = d["report"]
    n, c = params["n"], params["c"]
    _require(report["mismatched_detections"] == 0, f"{report['mismatched_detections']} mismatched detections")
    _require((report["n"], report["c"], report["trials"], report["seed"])
             == (n, c, params["trials"], params["seed"]), "report does not echo the request")
    counts = report["detections_per_position"]
    _require(len(counts) == n and min(counts) >= 0, "malformed counts")
    _require(sum(counts) <= params["trials"], "more detections than trials")
    _require(report["empirical_success"] == sum(counts) / params["trials"], "empirical success mismatch")
    xs = d["strengths"]
    _require(len(xs) == n - 1, f"{len(xs)} strengths for n={n}")
    if params["strategy"] == "online":
        reference = global_success(n, c)
    elif params["strategy"] == "fl":
        reference = fl_success_exact(n, c, x=min(1.0 + c, 1.0 / c))
    else:  # sl: no closed form to compare with
        reference = d["exact_success"]
    _require(abs(d["exact_success"] - reference) <= SUCCESS_TOL, f"exact success vs {reference!r}")
    if params["exact"]:
        _check_kernel_against_walk(c, xs, params["seed"])


def _check_kernel_against_walk(c: float, xs: list[float], seed: int) -> None:
    schedule = StrengthSchedule(n=len(xs) + 1, strengths=tuple(xs), overlap=Overlap(c))
    counts, wrong = kernels.simulate_counts(c, np.asarray(xs), EXACT_TRIALS, seed)
    walk = Counter(simulate_trial(schedule, seed, t).detected_position for t in range(EXACT_TRIALS))
    pooled = [walk.get(k, 0) for k in range(1, schedule.n + 1)]
    _require(wrong == 0 and counts.tolist() == pooled, "kernel counts differ from the scalar walk")


def check_verify(params: dict, out: str) -> None:
    _require(json.loads(out)["passed"] is True, "verify did not pass")


_CHECKS = {
    "curve": check_curve,
    "strengths": check_strengths,
    "simulate": check_simulate,
    "verify": check_verify,
}


def kernel_oracles(seed: int, cases: int = ORACLE_CASES) -> str | None:
    """numpy detection-profile kernel vs. brute-force path enumeration."""
    rng = random.Random(seed)
    for _ in range(cases):
        n = rng.randint(2, ENUMERATION_CAP)
        c = rng.uniform(0.0, 0.95)
        lo, hi = max(c, 0.05), min(1.0 / c, 3.0) if c > 0.0 else 3.0
        xs = tuple(rng.uniform(lo, hi) for _ in range(n - 1))
        fast = kernels.detection_profile(c, np.asarray(xs))
        slow = enumerate_strategy(StrengthSchedule(n=n, strengths=xs, overlap=Overlap(c))).per_position
        gap = float(np.max(np.abs(fast - np.asarray(slow))))
        if gap > ORACLE_TOL:
            return f"detection_profile vs enumerate_strategy: gap {gap:.3e} at n={n} c={c!r}"
    return None
