"""Shared helpers for the figure benchmark modules.

Every benchmark regenerates one table or figure of the paper by running its
entry of :data:`repro.bench.experiments.EXPERIMENTS` exactly once
(``benchmark.pedantic`` with a single round — the executor already averages
over repetitions internally) and printing the resulting rows, so the
output of ``pytest benchmarks/ --benchmark-only`` doubles as the reproduction
log recorded in EXPERIMENTS.md.

Every ``bench_*`` module is marked ``slow`` and therefore deselected by the
default test run (``addopts = -m "not slow"`` in ``pytest.ini``); regenerate
the figures explicitly with ``pytest benchmarks/ -m slow``.  The default scale
is a laptop-friendly reduction of the paper's setup (shorter simulated
durations and smaller key populations); set the environment variable
``REPRO_BENCH_SCALE`` to ``standard`` or ``paper`` to run closer to the
original experiments.  The fast, always-on smoke coverage of the benchmark
layer lives in ``test_smoke_runner.py``.

All experiments execute through the shared default
:class:`~repro.bench.runner.ExperimentRunner`; set ``REPRO_BENCH_WORKERS`` to
fan the grid cells of each figure out across that many worker processes.  The
runner's content-addressed cache also means a figure regenerated twice in one
session (e.g. by a retrying benchmark round) only simulates once.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.experiments import PAPER_SCALE, QUICK_SCALE, STANDARD_SCALE, Scale, regenerate
from repro.bench.reporting import format_table
from repro.bench.runner import DEFAULT_CACHE_ENTRIES, ResultCache, configure_default_runner

_SCALES = {"quick": QUICK_SCALE, "standard": STANDARD_SCALE, "paper": PAPER_SCALE}


def bench_scale() -> Scale:
    """The scale selected through the REPRO_BENCH_SCALE environment variable."""
    name = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    return _SCALES.get(name, QUICK_SCALE)


def bench_workers() -> int:
    """The worker count selected through REPRO_BENCH_WORKERS (default 1)."""
    try:
        return max(1, int(os.environ.get("REPRO_BENCH_WORKERS", "1")))
    except ValueError:
        return 1


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


def run_figure(benchmark, experiment_id, scale, **axes):
    """Regenerate one experiment under pytest-benchmark and print its table."""
    report = benchmark.pedantic(
        regenerate, args=(experiment_id, scale), kwargs=axes, rounds=1, iterations=1, warmup_rounds=0
    )
    print()
    print(format_table(report.headers, report.rows, title=report.title))
    return report
