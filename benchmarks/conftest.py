"""pytest hooks and fixtures for the figure benchmark modules.

Every benchmark regenerates one table or figure of the paper by running its
entry of :data:`repro.bench.experiments.EXPERIMENTS` exactly once
(``benchmark.pedantic`` with a single round — the executor already averages
over repetitions internally) and printing the resulting rows, so the
output of ``pytest benchmarks/ --benchmark-only`` doubles as the reproduction
log recorded in EXPERIMENTS.md.

Every ``bench_*`` module is marked ``slow`` and therefore deselected by the
default test run (``addopts = -m "not slow"`` in ``pytest.ini``); regenerate
the figures explicitly with ``pytest benchmarks/ -m slow``.  Set the
environment variable ``REPRO_BENCH_SCALE`` to ``standard`` or ``paper`` to run
closer to the original experiments; any other name than those and ``quick``
is an error.  What a benchmark module imports lives in ``figure_runner.py``;
never import from this file.  The fast, always-on smoke coverage of the
benchmark layer lives in ``test_smoke_runner.py``.

All experiments execute through one session-wide
:class:`~repro.bench.runner.ExperimentRunner` with a worker process per
available core.  Its content-addressed cache holds each cell's analysis (a
few KB at any scale: a run keeps no transaction), so a cell that several figures share
simulates once per session.
"""

from __future__ import annotations

import pytest
from figure_runner import bench_scale

from repro.bench.experiments import Scale
from repro.bench.runner import ExperimentRunner, ResultCache


def pytest_collection_modifyitems(config, items):
    """Mark every figure benchmark (``bench_*`` module) as ``slow``."""
    for item in items:
        if item.fspath.basename.startswith("bench_"):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def scale() -> Scale:
    """Session-wide benchmark scale."""
    return bench_scale()


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    """The one runner every figure of the session runs on."""
    return ExperimentRunner(workers=None, cache=ResultCache())
