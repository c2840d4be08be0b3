"""Output-identity corpus: every request of ``golden/corpus_requests.txt``
run in-process through ``qcpd.cli.main`` and hashed, exit code, stdout and
stderr together, against ``golden/corpus_digests.json``.

The digests carry numpy's and Python's float behaviour, so the file records
both versions and a replay under other versions is refused, naming both.
A moved digest is a change of some output.

    PYTHONPATH=src python tests/corpus.py            # list the requests that moved
    PYTHONPATH=src python tests/corpus.py --update   # and rewrite the digests
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import shlex
import sys
from pathlib import Path

import numpy as np

from qcpd.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
REQUESTS = GOLDEN_DIR / "corpus_requests.txt"
DIGESTS = GOLDEN_DIR / "corpus_digests.json"


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def requests() -> list[str]:
    """The request lines, without comments and blank lines."""
    lines = REQUESTS.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def digest(request: str) -> str:
    """SHA-256 of the request's exit code, stdout and stderr."""
    argv = shlex.split(request.replace("{golden}", str(GOLDEN_DIR)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()


def version_mismatch(recorded: dict) -> str | None:
    """Why the recorded digests cannot be replayed here, or ``None``."""
    here = versions()
    if all(recorded.get(key) == value for key, value in here.items()):
        return None
    return (
        "corpus digests were recorded with "
        + ", ".join(f"{key} {recorded.get(key)}" for key in here)
        + "; this is "
        + ", ".join(f"{key} {value}" for key, value in here.items())
        + "; re-record with tests/corpus.py --update and declare every moved digest"
    )


def replay() -> dict[str, str]:
    """Each request's digest, in the list's order."""
    return {request: digest(request) for request in requests()}


def moved(recorded: dict[str, str], replayed: dict[str, str]) -> list[str]:
    """The replayed requests whose digest differs from ``recorded``'s or that it lacks."""
    return [request for request, value in replayed.items() if recorded.get(request) != value]


def _cli(argv: list[str]) -> int:
    if argv not in ([], ["--update"]):
        sys.stderr.write(__doc__)
        return 1
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {"digests": {}}
    if not argv and (why := version_mismatch(recorded)):
        sys.stderr.write(why + "\n")
        return 1
    replayed = replay()
    changed = moved(recorded["digests"], replayed)
    for request in changed:
        print(f"moved: {request}")
    print(f"{len(changed)} of {len(replayed)} requests moved")
    if argv:
        DIGESTS.write_text(json.dumps({**versions(), "digests": replayed}, indent=2) + "\n")
        return 0
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(_cli(sys.argv[1:]))
