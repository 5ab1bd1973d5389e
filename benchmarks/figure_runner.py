"""What the figure benchmark modules import: the scale and one figure run.

Kept out of ``conftest.py`` on purpose: a pytest call that collects both
``benchmarks/`` and ``tests/`` imports one of the two ``conftest`` modules
under that bare name, so ``from conftest import ...`` in a benchmark module
can resolve to ``tests/conftest.py``.  This module's name is unique.

The default scale is a laptop-friendly reduction of the paper's setup
(shorter simulated durations and smaller key populations).
"""

from __future__ import annotations

import os

from repro.bench.experiments import SCALES, Scale, regenerate
from repro.bench.reporting import format_table
from repro.errors import ConfigurationError


def bench_scale() -> Scale:
    """The scale named by the REPRO_BENCH_SCALE environment variable (default quick)."""
    name = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    if name not in SCALES:
        raise ConfigurationError(
            f"unknown REPRO_BENCH_SCALE {name!r}; valid scales: {', '.join(SCALES)}"
        )
    return SCALES[name]


def run_figure(benchmark, runner, experiment_id, scale, **axes):
    """Regenerate one experiment on ``runner`` under pytest-benchmark and print its table."""
    [report] = benchmark.pedantic(
        regenerate,
        args=([experiment_id], scale, runner, {experiment_id: axes}),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    print()
    print(format_table(report.headers, report.rows, title=report.title))
    return report
