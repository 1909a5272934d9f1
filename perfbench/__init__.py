"""perfbench: the repository's one benchmark.

Five closed-loop workloads (``serve-small``, ``serve-large``,
``cold-scan``, ``ingest``, ``update-mix``) drive the program from
outside, through its public functions only; ``BENCHMARK.json`` at the
repository root names the command, the workloads, the end-to-end
metrics with their regression bounds, and the per-layer metrics.  See
``perfbench/README.md``.

The program under test is the ``repro`` package in ``src/`` of the same
checkout; it is put on ``sys.path`` here so that ``python3 -m perfbench``
needs no environment.  In a directory without ``src/`` the import of
``repro`` fails and the command exits non-zero, which is the contract.
"""

import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent
REPO_ROOT = PACKAGE_DIR.parent
#: Everything the benchmark writes (work stores, traces, results) goes here.
OUT_DIR = PACKAGE_DIR / "out"

_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
