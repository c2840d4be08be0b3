"""Per-layer spans recorded from outside the package.

``Tracer.installed()`` replaces, in every loaded ``qcpd`` module, each name
bound to one of the ``TARGETS`` functions with a timing wrapper, and so
does it for each entry of a dict held in a module global; it puts the
originals back on exit.  The modules call each other through these names
(``from .core import StrengthSchedule``, ``kernels.detection_profile``, a
module's own globals, the CLI's method table), so every call across a layer
boundary is seen; nothing in ``src/`` changes.

A span is ``(request, id, parent, name, start, end, work)``.  Spans stay in
memory; ``summarize`` turns them into per-layer busy time, self time (the
span minus the part its child spans cover), call counts and work counts.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "qcpd"
#: (module, attribute) of every layer entry point that is timed
TARGETS = (
    ("online_opt", "closed_form_strengths"),
    ("online_opt", "recursive_strengths"),
    ("online_opt", "optimize_strengths"),
    ("online_opt", "fl_solution"),
    ("online_opt", "sl_solution"),
    ("global_bound", "optimal_global"),
    ("global_bound", "critical_overlap"),
    ("global_bound", "validate_unambiguous"),
    ("core", "StrengthSchedule"),
    ("core", "evaluate_strategy"),
    ("core", "enumerate_strategy"),
    ("kernels", "detection_profile"),
    ("kernels", "simulate_counts"),
    ("montecarlo", "run_experiment"),
    ("verification", "oracle_equivalence"),
    ("verification", "central_equality"),
    ("verification", "recursion_agreement"),
    ("verification", "gram_feasibility"),
)


def _schedule_entries(*args, **kwargs) -> int:
    return len(kwargs["strengths"] if "strengths" in kwargs else args[1])


#: work counted per call: its name and how to compute it from the arguments
WORK = {
    "core.StrengthSchedule": ("strengths_checked", _schedule_entries),
    "kernels.detection_profile": ("positions", lambda c, xs: len(xs) + 1),
    "kernels.simulate_counts": ("trial_steps", lambda c, xs, trials, seed: int(trials) * len(xs)),
}


class Tracer:
    """Collects the spans of one pass; ``request`` tags the spans that follow."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request = -1
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn):
        work = WORK[name][1] if name in WORK else None
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                count = work(*args, **kwargs) if work else 0
                spans.append((self.request, span_id, parent, name, start, end, count))

        return traced

    @contextmanager
    def installed(self):
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        # a module global, or a value of a dict held in one (dispatch tables
        # such as ``cli._METHODS``), that is bound to a target
        slots = [(vars(m), key) for m in modules for key in vars(m)]
        slots += [(table, key) for m in modules for name, table in list(vars(m).items())
                  if isinstance(table, dict) and not name.startswith("__") for key in table]
        patches = []
        try:
            for module_name, attr in TARGETS:
                original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
                wrapper = self.wrap(f"{module_name}.{attr}", original)
                for namespace, key in slots:
                    if namespace[key] is original:
                        patches.append((namespace, key, original))
                        namespace[key] = wrapper
            yield self
        finally:
            for namespace, key, original in reversed(patches):
                namespace[key] = original


def summarize(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``busy_s``, ``self_s``, ``work`` and, for
    the optimizer, ``profile_evals`` (kernel calls made inside it)."""
    parent_of = {s[1]: s[2] for s in spans}
    name_of = {s[1]: s[3] for s in spans}
    covered = defaultdict(float)
    for _, _, parent, _, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0, "profile_evals": 0}
    )
    for _, span_id, parent, name, start, end, work in spans:
        entry = stats[name]
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += end - start - covered[span_id]
        entry["work"] += work
        if name == "kernels.detection_profile":
            while parent >= 0 and name_of[parent] != "online_opt.optimize_strengths":
                parent = parent_of[parent]
            if parent >= 0:
                stats["online_opt.optimize_strengths"]["profile_evals"] += 1
    return dict(stats)
