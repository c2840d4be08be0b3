"""Seeded request lists for the three workloads.

Each workload is a list of ``qcpd`` command lines.  The seed decides every
value; qcpd only ever sees the generated argument vectors.

Values are drawn by stratified sampling so that the total work of a list
barely moves from seed to seed: each parameter takes exactly one value
from each of ``count`` equal-probability strata, the position inside the
stratum comes from the seed, and the stratum a request gets is a fixed
permutation per parameter (the same for every seed).  The mix of small and
large requests is therefore fixed, while the concrete n, overlaps, grids,
seeds and the order of the list change with the seed.

Every input stays valid once the open hardening items land: ``verify
--n-max`` never exceeds 12, grid steps are at least 0.002 with at most 20
rows, and ``--method numeric`` is never requested.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("curve_sweep", "long_chain", "mc_batch")

#: requests per list (in ``curve_sweep`` counting its four fixed extras), so
#: that the 90th percentile has at least ten requests beyond it
DEFAULT_COUNT = 100

CURVE_N = (15, 301)
CURVE_ROWS = (10, 20)
#: above c = 1/2 each curve row runs the O(n^2) optimizer, so the share of
#: rows above 1/2 is scaled by min(1, (CURVE_HIGH_N / n)^2); every grid
#: still has at least one row on each side of 1/2
CURVE_HIGH_N = 25
#: overlaps and steps are whole multiples of 1e-4 so the grid is exact
_GRID_UNIT = 10_000
_MIN_STEP_UNITS = 20
VERIFY_N_MAX = (6, 9, 12)
GOLDEN_ARGV = ("curve", "--n", "31", "--c-max", "0.9", "--step", "0.05")

CHAIN_N = (1_000, 50_000)
CHAIN_C = (0.02, 0.48)

MC_N = (16, 256)
MC_TRIALS = (10_000, 100_000)
MC_ONLINE_C = (0.01, 0.5)
MC_REFERENCE_C = (0.02, 0.95)
#: one simulate request in this many is re-run against the scalar walk
MC_EXACT_EVERY = 10


@dataclass(frozen=True)
class Request:
    """One command line plus what the output gate needs to know about it."""

    kind: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict, compare=False)


def _strata(rng: random.Random, workload: str, name: str, count: int) -> list[float]:
    order = list(range(count))
    random.Random(f"{workload}:{name}").shuffle(order)
    return [(order[i] + rng.random()) / count for i in range(count)]


def _assignment(workload: str, name: str, count: int, choices: int) -> list[int]:
    """Balanced fixed assignment of ``count`` requests to ``choices`` kinds."""
    kinds = [i % choices for i in range(count)]
    random.Random(f"{workload}:{name}").shuffle(kinds)
    return kinds


def _log_between(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _grid_value(units: int) -> str:
    return f"{units / _GRID_UNIT:.4f}"


def curve_request(n: int, rows: int, high: int, u_step: float, u_offset: float, fmt: str) -> Request:
    """A ``curve`` request with ``rows - high`` rows at c <= 1/2 and ``high``
    rows above it, on a uniform grid whose step is drawn from ``u_step``."""
    low = rows - high
    s_max = min(5_000 // low, 4_900 // high, 500)
    step = max(_MIN_STEP_UNITS, round(s_max * (0.25 + 0.75 * u_step)))
    # row low-1 sits at or below 1/2, row low above it
    start = 5_000 - (low - 1) * step - int(u_offset * step)
    stop = start + (rows - 1) * step
    argv = (
        "curve", "--n", str(n),
        "--c-min", _grid_value(start), "--c-max", _grid_value(stop),
        "--step", _grid_value(step), "--format", fmt,
    )
    params = {
        "n": n, "rows": rows, "high": high, "format": fmt,
        "c_min": start / _GRID_UNIT, "c_max": stop / _GRID_UNIT,
    }
    return Request("curve", argv, params)


def curve_sweep(seed: int, count: int = DEFAULT_COUNT) -> list[Request]:
    """Many small exact evaluations: curve grids, the golden table, verify."""
    rng = random.Random(seed)
    count = max(1, count - 1 - len(VERIFY_N_MAX))
    u = {k: _strata(rng, "curve_sweep", k, count) for k in ("n", "rows", "share", "step", "offset")}
    fmt = _assignment("curve_sweep", "format", count, 4)
    requests = []
    for i in range(count):
        n = round(_log_between(*CURVE_N, u["n"][i]))
        rows = round(_log_between(*CURVE_ROWS, u["rows"][i]))
        share = u["share"][i] * min(1.0, (CURVE_HIGH_N / n) ** 2)
        high = min(rows - 1, max(1, round(share * rows)))
        requests.append(
            curve_request(n, rows, high, u["step"][i], u["offset"][i], "json" if fmt[i] == 0 else "csv")
        )
    requests.append(Request("curve", GOLDEN_ARGV, {"golden": True}))
    for n_max in VERIFY_N_MAX:
        argv = ("verify", "--n-max", str(n_max), "--seed", str(rng.randrange(1 << 16)))
        requests.append(Request("verify", argv, {"n_max": n_max}))
    rng.shuffle(requests)
    return requests


def long_chain(seed: int, count: int = DEFAULT_COUNT) -> list[Request]:
    """A few large schedules: ``strengths`` with c <= 1/2, n up to 1e5."""
    rng = random.Random(seed)
    u_n = _strata(rng, "long_chain", "n", count)
    u_c = _strata(rng, "long_chain", "c", count)
    combo = _assignment("long_chain", "combo", count, 4)
    requests = []
    for i in range(count):
        n = round(_log_between(*CHAIN_N, u_n[i]))
        c = f"{CHAIN_C[0] + (CHAIN_C[1] - CHAIN_C[0]) * u_c[i]:.6f}"
        method = ("closed", "recursive")[combo[i] % 2]
        fmt = ("text", "json")[combo[i] // 2]
        argv = ("strengths", "--n", str(n), "--c", c, "--method", method, "--format", fmt)
        requests.append(Request("strengths", argv, {"n": n, "c": float(c), "method": method, "format": fmt}))
    rng.shuffle(requests)
    return requests


def simulate_request(strategy: str, n: int, c: str, trials: int, seed: int, exact: bool) -> Request:
    argv = (
        "simulate", "--n", str(n), "--c", c, "--strategy", strategy,
        "--trials", str(trials), "--seed", str(seed),
    )
    params = {"strategy": strategy, "n": n, "c": float(c), "trials": trials, "seed": seed, "exact": exact}
    return Request("simulate", argv, params)


def mc_batch(seed: int, count: int = DEFAULT_COUNT) -> list[Request]:
    """Seeded Monte Carlo: ``simulate`` for the online, fl and sl strategies."""
    rng = random.Random(seed)
    u = {k: _strata(rng, "mc_batch", k, count) for k in ("n", "trials", "c")}
    strategy = _assignment("mc_batch", "strategy", count, 3)
    exact = _assignment("mc_batch", "exact", count, MC_EXACT_EVERY)
    requests = []
    for i in range(count):
        name = ("online", "fl", "sl")[strategy[i]]
        lo, hi = MC_ONLINE_C if name == "online" else MC_REFERENCE_C
        requests.append(
            simulate_request(
                name,
                n=round(_log_between(*MC_N, u["n"][i])),
                c=f"{lo + (hi - lo) * u['c'][i]:.6f}",
                trials=round(_log_between(*MC_TRIALS, u["trials"][i])),
                seed=rng.randrange(1 << 31),
                exact=exact[i] == 0,
            )
        )
    rng.shuffle(requests)
    return requests


_BUILDERS = {"curve_sweep": curve_sweep, "long_chain": long_chain, "mc_batch": mc_batch}


def build(workload: str, seed: int, count: int = DEFAULT_COUNT) -> list[Request]:
    return _BUILDERS[workload](seed, count)


def warmup(workload: str) -> list[tuple[str, ...]]:
    """Tiny command lines that touch every code path of a workload once."""
    if workload == "curve_sweep":
        return [("curve", "--n", "5", "--c-min", "0.45", "--c-max", "0.55", "--step", "0.05")]
    if workload == "long_chain":
        return [
            ("strengths", "--n", "10", "--c", "0.3", "--method", method, "--format", fmt)
            for method in ("closed", "recursive")
            for fmt in ("text", "json")
        ]
    return [
        ("simulate", "--n", "5", "--c", "0.3", "--strategy", s, "--trials", "100", "--seed", "1")
        for s in ("online", "fl", "sl")
    ]


def cli_probe(workload: str, seed: int) -> Request:
    """The representative subcommand timed as a real subprocess."""
    if workload == "curve_sweep":
        return Request("curve", GOLDEN_ARGV, {"golden": True})
    if workload == "long_chain":
        argv = ("strengths", "--n", "100000", "--c", "0.3", "--method", "closed", "--format", "json")
        return Request("strengths", argv, {"n": 100_000, "c": 0.3, "method": "closed", "format": "json"})
    return simulate_request("online", 31, "0.4", 1_000_000, seed, exact=False)
