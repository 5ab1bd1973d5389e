"""perfbench — the repository's single benchmark.

Times six fixed workloads end to end (a paper-scale cell, a range-scan cell,
an 8-channel cell run on a shared clock and sharded over worker processes, a
chaos cell with every optional subsystem on, and a cached sweep), and says
which layer of ``src/repro`` the host time went to.  See ``README.md`` in this
directory; the workloads and metrics are named in ``BENCHMARK.json`` at the
repository root.

The simulator is driven only through its public API and is found by putting
``<repo>/src`` on ``sys.path`` here, so ``python3 -m perfbench`` works from the
repository root with no environment set up.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))


def load_manifest() -> dict:
    """``BENCHMARK.json``: the one place workload and metric names are declared."""
    with (REPO_ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)
