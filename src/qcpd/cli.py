"""Command-line interface.

Four subcommands: ``curve`` sweeps the overlap and tabulates the success
probabilities of the global bound and the online strategy families;
``strengths`` prints a schedule with saturation flags; ``verify`` runs the
cross-module consistency suites; ``simulate`` runs seeded Monte Carlo
trials and compares them against the exact profile.

Output is CSV (fixed header ``c,p_global,p_online,p_fl,p_sl``, 12
significant digits, ``\\n`` newlines) or JSON (snake_case keys, two-space
indent; ``report``, ``per_position``, ``rows`` and ``suites`` nest objects
and lists), both deterministic so golden-file comparisons are byte-exact.

Exit codes: 0 success, 1 usage or domain error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import EPSILON, _check_n
from .kernels import seed_root
from .montecarlo import run_experiment
from .online_opt import (
    OnlineSolution,
    _at_ceiling,
    _exact_table,
    _solution,
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

CSV_HEADER = "c,p_global,p_online,p_fl,p_sl"
_CSV_ROW = ",".join(["%.12g"] * 5) + "\n"
#: a ``strengths`` text cell: the strength and its saturation flag, which
#: follow the position's ``%3d`` and two spaces on each line
_STRENGTH_CELL = "%-16.12g  %s"
#: lines per ``%`` call in :func:`_render_lines`, and per written block of
#: :func:`_strengths_text` and of a vector in :func:`_json_value`
_RENDER_BLOCK = 2048

#: largest overlap grid ``curve`` evaluates; finer grids are rejected up front
MAX_CURVE_ROWS = 100_000

#: largest ``(n-1) * trials`` and largest ``trials`` ``simulate`` runs; more
#: is rejected.  Measured on a 2-core host, the Monte Carlo kernel costs per
#: nominal step 0.09 ns for online at n = 1001, c = 0.4 and 5.0 ns for sl at
#: n = 1001, c = 0.02, whose walks run back to position 1 (at 1e8 steps; about
#: 1 s and 50 s at the step cap).  A trial costs 38-41 ns at n = 2 and 500 ns
#: at n = 101 (sl, c = 0.02; at 1e7 trials), so the trial cap also keeps a
#: run under about 50 s; above n = 101 the step cap binds first.
MAX_TRIAL_STEPS = 10**10
MAX_TRIALS = 10**8

#: most strength positions one request may hold: ``n - 1`` for ``strengths``
#: and ``simulate``, ``rows * (n - 1)`` for an exact ``curve``; a grid of
#: ``MAX_CURVE_ROWS`` rows at the default ``n = 31`` just fits.  Larger
#: requests are rejected before any schedule is built.
MAX_POSITIONS = MAX_CURVE_ROWS * 30


def _check_positions(positions: int) -> None:
    if positions > MAX_POSITIONS:
        raise ValueError(
            f"{positions} strength positions exceed the cap of {MAX_POSITIONS}"
        )


def _fmt(value: float) -> str:
    """12 significant digits; round-trips through ``float`` bit-stably."""
    return f"{value:.12g}"


def _render_lines(line: str, columns: Sequence[Sequence]) -> Iterator[str]:
    """``line``, a one-line ``%`` template with one field per column,
    filled in from each row of the equal-length ``columns`` in turn,
    yielded one block of ``_RENDER_BLOCK`` rows at a time.

    One ``%`` call renders a block of rows from a repeated template: the
    cost stays in C, and the cell tuple and template of a block stay small
    even for 1e5 lines.  A numpy column becomes Python numbers one block
    at a time, so ``%r`` writes them as the JSON encoder would.
    """
    for start in range(0, len(columns[0]) if len(columns) else 0, _RENDER_BLOCK):
        block = [column[start : start + _RENDER_BLOCK] for column in columns]
        block = [c.tolist() if type(c) is np.ndarray else c for c in block]
        yield (line * len(block[0])) % tuple(chain.from_iterable(zip(*block)))


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct bit patterns of a 1-D float64 vector, as float64, and
    the inverse index that gathers ``values`` back from them: exactly
    ``np.unique(values.view(np.int64), return_inverse=True)``.

    The patterns are told apart as int64, so ``0.0`` and ``-0.0``, and
    NaNs with different payloads, stay apart and each keep their own text.
    One pass marks where the bits change along the vector; only the head
    of each run of equal bits is sorted, and its index is repeated over
    the run.  A schedule settles into a few long runs, so 5e4 strengths
    cost that pass and a sort of a few dozen heads.
    """
    bits = values.view(np.int64)
    change = np.empty(len(bits), dtype=bool)
    change[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=change[1:])
    heads = np.flatnonzero(change)
    distinct, index = np.unique(bits[heads], return_inverse=True)
    return distinct.view(np.float64), np.repeat(index, np.diff(np.append(heads, len(bits))))


def _json_items(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The JSON text of each distinct bit pattern (:func:`_distinct`) of a
    1-D float64 vector, ``NaN`` and ``Infinity`` included, as an object
    vector ``cells``, and the inverse ``index``: ``cells.take(index)`` holds
    ``[json.dumps(x) for x in values.tolist()]``.

    A schedule settles along the chain, so 5e4 strengths mostly hold a few
    dozen distinct floats in a few long runs.  The distinct values take
    one C-encoder call, split at its item separator (no float's text holds
    ``", "``), so a schedule that never settles (some recursive ones)
    costs one bulk render and a sort of every run head.
    """
    distinct, index = _distinct(values)
    return np.array(json.dumps(distinct.tolist())[1:-1].split(", "), dtype=object), index


def _text_runs(values: np.ndarray) -> list[int]:
    """The first index of each run of equal ``%.12g`` text in ``values``,
    positive finite floats in increasing order.

    Correctly rounded formatting is monotone, so when both ends of a range
    print alike every value between them does too.  A range whose ends
    differ is halved until its ends are neighbours, so a block that drifts
    by ulps formats a few values per run, not one per value.  At worst,
    when no two values print alike, it formats every value once and pays
    a Python step for each: 1.75 ms for 2048 values, against 0.7 ms for
    formatting them all in one call.  No schedule construction makes such
    a block.
    """
    last = len(values) - 1
    texts = {0: "%.12g" % values[0], last: "%.12g" % values[last]}
    starts = [0]
    ranges = [(0, last)]
    while ranges:
        lo, hi = ranges.pop()
        if texts[lo] == texts[hi]:
            continue
        if hi - lo == 1:
            starts.append(hi)
            continue
        mid = (lo + hi) // 2
        texts[mid] = "%.12g" % values[mid]
        ranges += ((mid, hi), (lo, mid))
    return starts


def _strength_lines(first: int, distinct: np.ndarray, flags: np.ndarray, index: np.ndarray) -> str:
    """The ``strengths`` text lines of positions ``first, first + 1, ...``,
    one per entry ``i`` of ``index``: ``f"{j:>3}  {_fmt(x):<16}  {flag}"``
    for ``x = distinct[i]``, with ``flag`` ``yes`` where ``flags[i]``.

    ``distinct`` is sorted by bit pattern (:func:`_distinct`).  When it
    holds only positive finite values that is float order, and it splits
    into runs of equal ``%.12g`` text (:func:`_text_runs`); otherwise each
    value is its own run.  Each text-and-flag pair of a run gets one cell
    (``_STRENGTH_CELL``, its two leading spaces and the line break),
    rendered in bulk into a row of a NUL-padded byte table.  The rows are
    gathered by ``index`` beside the positions' ``%3d`` as a byte matrix:
    ASCII digits, spaces up to three columns and NUL left of them.
    Dropping every NUL leaves the lines, decoded at once; a block whose
    cells share one width and whose positions share one digit count holds
    no NUL and is decoded as it stands.
    """
    run = np.zeros(len(distinct), dtype=np.intp)
    run[_text_runs(distinct) if 0.0 < distinct[0] and distinct[-1] < math.inf else slice(None)] = 1
    run = np.cumsum(run)  # numbered from 1
    key = 2 * run + flags
    used = np.zeros(2 * run[-1] + 2, dtype=bool)
    used[key] = True
    values = np.empty(len(used))
    values[key] = distinct  # any value of a run prints its text
    keys = np.flatnonzero(used)
    cells = _render_lines(
        "  " + _STRENGTH_CELL + "\n", (values[keys], np.where(keys % 2, "yes", "no"))
    )
    chars = np.frombuffer("".join(cells).encode(), np.uint8)
    ends = np.flatnonzero(chars == ord("\n")) + 1
    lengths = ends - np.concatenate(([0], ends[:-1]))  # np.diff's overhead is the cost here
    table = np.zeros((len(lengths), lengths.max()), np.uint8)
    table[np.arange(table.shape[1]) < lengths[:, None]] = chars
    width = max(3, len(str(first + len(index) - 1)))
    lines = np.empty((len(index), width + table.shape[1]), np.uint8)
    # the narrowest integer type that holds the positions divides fastest
    js = np.arange(first, first + len(index), dtype=np.min_scalar_type(first + len(index)))
    for col in range(width - 1, -1, -1):
        tens = js // 10
        digits = js - 10 * tens + ord("0")  # js % 10, without numpy's slower %
        if js[0] > 0:
            lines[:, col] = digits
        else:
            lines[:, col] = np.where(js > 0, digits, ord(" ") if col >= width - 3 else 0)
        js = tens
    cell = (np.cumsum(used) - 1)[key]
    lines[:, width:] = np.take(table, cell[index], axis=0)
    if lengths.min() == lengths.max() and (width == 3 or first >= 10 ** (width - 1)):
        return lines.tobytes().decode("ascii")
    lines = lines.ravel()
    return lines[lines != 0].tobytes().decode("ascii")


# ---------------------------------------------------------------------------
# curve table
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, eq=False)
class CurveTable:
    """Success probabilities per overlap: ``columns`` is a read-only
    ``(5, rows)`` float64 array whose rows are the ``c``, ``p_global``,
    ``p_online``, ``p_fl`` and ``p_sl`` columns, one entry per grid point."""

    n: int
    mode: str  # "exact" or "asymptotic"
    columns: np.ndarray

    def __post_init__(self) -> None:
        columns = np.array(self.columns, dtype=np.float64)
        columns.setflags(write=False)
        object.__setattr__(self, "columns", columns)
        c, p_global, p_online = columns[:3]
        above = np.flatnonzero(p_online > p_global + EPSILON)
        if len(above):
            raise ValueError(
                f"online column exceeds the global bound at c={c[above[0]].item()!r}"
            )

    def to_csv(self) -> Iterator[str]:
        """The header and one ``%.12g`` line per row, byte-identical to
        joining :func:`_fmt` of each value with commas, yielded in blocks
        by :func:`_render_lines`."""
        yield f"{CSV_HEADER}\n"
        yield from _render_lines(_CSV_ROW, self.columns)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "rows": _Rows(tuple(CSV_HEADER.split(",")), self.columns),
        }


def _asymptotic_row(c: float) -> tuple[float, float, float, float, float]:
    if c == 0.0:
        return (0.0, 1.0, 1.0, 1.0, 1.0)
    p_global = (1.0 - c) / (1.0 + c)
    p_fl = fl_success_asymptotic(c)
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
    """Evaluate the success columns on the overlap grid.

    In exact mode the columns are :func:`qcpd.online_opt._exact_table`'s.
    """
    _check_n(n)
    for flag, value in (("--c-min", c_min), ("--c-max", c_max), ("--step", step)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if step <= 0.0:
        raise ValueError("--step must be positive")
    if c_min >= c_max:
        raise ValueError("--c-min must be below --c-max")
    if c_min < 0.0 or c_max > 1.0:
        raise ValueError("the overlap grid must stay inside [0, 1]")
    span = (c_max - c_min) / step + 1e-9
    if span >= MAX_CURVE_ROWS:
        raise ValueError(f"{span + 1:.4g} grid rows exceed the cap of {MAX_CURVE_ROWS}")
    if not asymptotic:
        _check_positions((int(span) + 1) * (n - 1))
    grid = []
    for i in range(int(span) + 1):
        c = round(c_min + i * step, 12)
        if c > c_max + 1e-12:
            break
        if abs(c - 1.0) <= 1e-12:
            if not include_endpoint:
                continue
            c = 1.0
        if grid and c <= grid[-1]:
            raise ValueError(
                f"--step {step!r} is below the grid's 12-digit rounding: "
                "grid overlaps must be strictly increasing"
            )
        grid.append(c)
    if not grid:
        raise ValueError("the overlap grid holds only c = 1, which needs --include-endpoint")
    if asymptotic:
        return CurveTable(n, "asymptotic", np.array(list(map(_asymptotic_row, grid))).T)
    return CurveTable(n, "exact", _exact_table(n, grid))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _write(blocks: Iterable[str], out: str | None) -> None:
    """Write each of ``blocks`` as it comes to the file ``out``, or to
    stdout when ``out`` is ``None`` or ``-``."""
    if out is None or out == "-":
        sys.stdout.writelines(blocks)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(blocks)


@dataclass(frozen=True, slots=True)
class _Rows:
    """A table for :func:`_json_value`, rendered as a list with one dict
    per row mapping ``keys`` to that row's cells.

    The cells are held as ``columns``, one equal-length sequence or 1-D
    numpy vector per key (or one row of a 2-D array per key), so the table
    can be rendered twice and no dict or row tuple is kept.  Every cell
    must be an int or a finite float.
    """

    keys: tuple[str, ...]
    columns: Sequence[Sequence]


def _json_value(value, pad: str) -> Iterator[str]:
    """``json.dumps(value, indent=2)``, with each :class:`_Rows` expanded
    to its list of dicts, and every line after the first indented by
    ``pad``: the value as it appears nested at that depth, in blocks.

    ``indent`` forces the pure-Python encoder, so three kinds of value are
    rendered in bulk instead:

    * a non-empty 1-D numpy vector is yielded ``_RENDER_BLOCK`` entries at
      a time, its items joined by the indented line break.  A float64 one
      (a schedule of 1e5 strengths) renders each distinct value once, by
      :func:`_json_items` over the whole vector, whose runs of equal bits
      spare a settled schedule any sort but of the runs' heads, gathered
      block by block; any other (counts, saturated positions) takes one
      C-encoder call per block, so no Python int or item is held for more
      than a block;
    * a non-empty dict with string keys is rendered key by key;
    * a :class:`_Rows` table (simulate's ``per_position``, curve's
      ``rows``) is filled into one ``%r`` template per row by
      :func:`_render_lines`, column by column: ``repr`` is how the encoder
      writes ints and finite floats, and a ``%`` in a key is escaped in
      the template, which starts with the row separator the first drops.

    Any other value goes through ``json.dumps(value, indent=2)``,
    re-indented; JSON escapes newlines inside strings, so every newline
    there is indentation.
    """
    inner = pad + "  "
    if type(value) is np.ndarray and value.ndim == 1:
        if len(value):
            sep = ",\n" + inner
            cells, index = _json_items(value) if value.dtype == np.float64 else (None, None)
            for start in range(0, len(value), _RENDER_BLOCK):
                yield sep if start else "[\n" + inner
                if cells is None:
                    block = value[start : start + _RENDER_BLOCK].tolist()
                    yield json.dumps(block, separators=(sep, ": "))[1:-1]
                else:
                    yield sep.join(cells.take(index[start : start + _RENDER_BLOCK]).tolist())
            yield f"\n{pad}]"
            return
        value = value.tolist()
    if type(value) is dict and value and all(type(key) is str for key in value):
        for i, (key, item) in enumerate(value.items()):
            yield f"{',' if i else '{'}\n{inner}{json.dumps(key)}: "
            yield from _json_value(item, inner)
        yield f"\n{pad}}}"
    elif type(value) is _Rows:
        fields = ",\n".join(
            f"{inner}  {json.dumps(key).replace('%', '%%')}: %r" for key in value.keys
        )
        blocks = _render_lines(f",\n{inner}{{\n{fields}\n{inner}}}", value.columns)
        first = next(blocks, None)
        if first is None:
            yield "[]"
        else:
            yield "[\n" + first[2:]  # the first row drops its separator
            yield from blocks
            yield f"\n{pad}]"
    else:
        yield json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _dump_json(payload: dict) -> Iterator[str]:
    """``json.dumps(payload, indent=2) + "\\n"``, byte for byte, with each
    :class:`_Rows` expanded to its dicts, for a non-empty dict with string
    keys, in the blocks of :func:`_json_value`."""
    return chain(_json_value(payload, ""), ["\n"])


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


def _strengths_text(solution: OnlineSolution) -> Iterator[str]:
    """A header and one line per position, ``f"{j:>3}  {_fmt(x):<16}  {flag}"``
    byte for byte, with ``flag`` ``yes`` at each of the solution's
    ``saturated_positions``.  Each block of ``_RENDER_BLOCK`` positions is
    yielded as :func:`_strength_lines` builds it from its distinct strengths
    (:func:`_distinct`), with one cell per printed text and flag, so a
    schedule that never settles holds no string per position, and one
    that drifts by ulps formats a few values per block."""
    schedule = solution.schedule
    strengths = schedule.strengths
    yield (
        f"n={schedule.n} c={_fmt(schedule.overlap.c)} "
        f"method={solution.method} success={_fmt(solution.success)}\n"
        "  j  strength          saturated\n"
    )
    for start in range(0, len(strengths), _RENDER_BLOCK):
        distinct, index = _distinct(strengths[start : start + _RENDER_BLOCK])
        flags = _at_ceiling(distinct, schedule.overlap.c)
        yield _strength_lines(start + 1, distinct, flags, index)


def cmd_strengths(args: argparse.Namespace) -> int:
    if not 0.0 <= args.c < 1.0:
        raise ValueError(
            f"schedule construction needs overlap in [0, 1), got {args.c}"
        )
    _check_positions(args.n - 1)
    solution = _METHODS[args.method](args.n, args.c)
    if args.format == "json":
        schedule = solution.schedule
        payload = {
            "n": schedule.n,
            "c": schedule.overlap.c,
            "method": solution.method,
            "success": solution.success,
            "strengths": schedule.strengths,
            "saturated_positions": solution.saturated_positions,
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
        "suites": [asdict(r) for r in results],
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


def _check_run(n: int, trials: int, seed: int) -> None:
    """Reject a ``simulate`` run over ``n`` particles before its schedule
    is built, its seed first (:func:`kernels.seed_root`)."""
    seed_root(seed)
    _check_positions(n - 1)
    if trials > MAX_TRIALS:
        raise ValueError(f"{trials} trials exceed the cap of {MAX_TRIALS}")
    steps = (n - 1) * trials
    if steps > MAX_TRIAL_STEPS:
        raise ValueError(f"{steps} trial steps exceed the cap of {MAX_TRIAL_STEPS}")


def _load_custom_schedule(path: str, n: int | None) -> list[float]:
    """The checked strengths of the schedule file ``path``, ``n - 1`` if ``n`` is given."""
    with open(path, "r", encoding="utf-8") as handle:
        tokens = handle.read().split(maxsplit=MAX_POSITIONS)  # none converted past the cap
    if len(tokens) > MAX_POSITIONS:
        raise ValueError(f"schedule file {path!r} holds more than {MAX_POSITIONS} strengths")
    values = [float(token) for token in tokens]
    if len(values) < 1:
        raise ValueError(f"schedule file {path!r} holds no strengths")
    if n is not None and n != len(values) + 1:
        raise ValueError(
            f"--n {n} disagrees with the {len(values)} strengths in {path!r}"
            f" (which imply n={len(values) + 1})"
        )
    return values


def _select_strategy(args: argparse.Namespace) -> OnlineSolution:
    """The schedule ``simulate`` runs, with its profile evaluated once."""
    if args.strategy == "custom":
        if args.schedule is None:
            raise ValueError("--strategy custom needs --schedule FILE")
        values = _load_custom_schedule(args.schedule, args.n)
        _check_run(len(values) + 1, args.trials, args.seed)
        return _solution(len(values) + 1, args.c, values, "custom")
    if args.schedule is not None:
        raise ValueError(f"--schedule FILE needs --strategy custom, not {args.strategy}")
    if args.n is None:
        raise ValueError("--n is required unless a schedule file is given")
    _check_run(args.n, args.trials, args.seed)
    family = {"online": best_online, "fl": fl_solution, "sl": sl_solution}
    return family[args.strategy](args.n, args.c)


def _z_scores(empirical: np.ndarray, exact: np.ndarray, trials: int) -> np.ndarray:
    """``(empirical - exact) / sqrt(exact*(1 - exact)/trials)`` entry by
    entry, 0.0 where that variance vanishes."""
    sd = np.sqrt(np.maximum(exact * (1.0 - exact) / trials, 0.0))
    return np.divide(empirical - exact, sd, out=np.zeros_like(sd), where=sd > 0.0)


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    solution = _select_strategy(args)
    schedule, profile = solution.schedule, solution.profile
    report = run_experiment(schedule, args.trials, args.seed)
    counts = report.detections_per_position
    exact = profile.per_position / schedule.n
    empirical = counts / report.trials
    z_success = _z_scores(
        np.array([report.empirical_success]), np.array([profile.average]), report.trials
    ).item()
    payload = {
        "strategy": args.strategy,
        "strengths": schedule.strengths,
        "report": asdict(report),
        "exact_success": profile.average,
        "z_success": z_success,
        "per_position": _Rows(
            ("position", "count", "empirical", "exact", "z"),
            (
                range(1, schedule.n + 1),
                counts,
                empirical,
                exact,
                _z_scores(empirical, exact, report.trials),
            ),
        ),
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qcpd`` parser, built once per process: parsing keeps no state
    in it, so every :func:`main` call reuses the same one."""
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
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"qcpd: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
