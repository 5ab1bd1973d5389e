"""The examples run: ``quickstart.py`` in tier-1, all ten in a CI step.

Nothing else executes ``examples/``, so an API the examples read (here: the
failed transactions an analysis lists, and their conflict stamps) could change
under them unnoticed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_quickstart_example_runs_and_names_the_hottest_keys(tmp_path):
    environment = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    finished = subprocess.run(
        [sys.executable, str(REPO / "examples" / "quickstart.py")],
        cwd=tmp_path,
        env=environment,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert finished.returncode == 0, finished.stderr
    assert "Hottest conflicting keys" in finished.stdout
    assert "failed because key 'profile_" in finished.stdout
    assert list(tmp_path.iterdir()) == []  # it leaves nothing behind
