"""End-to-end and per-layer benchmark for the ``qcpd`` command-line tool.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads and metrics.  Importing this
package loads nothing but the standard library.
"""
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_CURVE = ROOT / "tests" / "golden" / "curve_n31_exact.csv"
OUT_DIR = ROOT / "perfbench-out"


def nproc() -> int:
    """Processors this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
