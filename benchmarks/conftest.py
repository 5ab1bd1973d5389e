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
closer to the original experiments.  What a benchmark module imports lives in
``figure_runner.py``; never import from this file.  The fast, always-on smoke
coverage of the benchmark layer lives in ``test_smoke_runner.py``.

All experiments execute through the shared default
:class:`~repro.bench.runner.ExperimentRunner`; set ``REPRO_BENCH_WORKERS`` to
fan the grid cells of each figure out across that many worker processes.  The
runner's content-addressed cache also means a figure regenerated twice in one
session (e.g. by a retrying benchmark round) only simulates once.
"""

from __future__ import annotations

import pytest
from figure_runner import bench_scale, bench_workers

from repro.bench.experiments import QUICK_SCALE, Scale
from repro.bench.runner import DEFAULT_CACHE_ENTRIES, ResultCache, configure_default_runner


def pytest_configure(config):
    """Point the shared default runner at the configured worker count.

    At standard/paper scale the in-memory result cache is disabled: a single
    paper-scale analysis retains a full multi-thousand-transaction ledger, and
    caching every cell of every figure would dominate the session's memory.
    """
    cache = ResultCache(max_entries=DEFAULT_CACHE_ENTRIES) if bench_scale() is QUICK_SCALE else None
    configure_default_runner(workers=bench_workers(), cache=cache)


def pytest_collection_modifyitems(config, items):
    """Mark every figure benchmark (``bench_*`` module) as ``slow``."""
    for item in items:
        if item.fspath.basename.startswith("bench_"):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def scale() -> Scale:
    """Session-wide benchmark scale."""
    return bench_scale()
