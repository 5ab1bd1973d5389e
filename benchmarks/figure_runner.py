"""What the figure benchmark modules import: scale, workers, one figure run.

Kept out of ``conftest.py`` on purpose: a pytest call that collects both
``benchmarks/`` and ``tests/`` imports one of the two ``conftest`` modules
under that bare name, so ``from conftest import ...`` in a benchmark module
can resolve to ``tests/conftest.py``.  This module's name is unique.

The default scale is a laptop-friendly reduction of the paper's setup
(shorter simulated durations and smaller key populations).
"""

from __future__ import annotations

import os

from repro.bench.experiments import PAPER_SCALE, QUICK_SCALE, STANDARD_SCALE, Scale, regenerate
from repro.bench.reporting import format_table

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


def run_figure(benchmark, experiment_id, scale, **axes):
    """Regenerate one experiment under pytest-benchmark and print its table."""
    report = benchmark.pedantic(
        regenerate, args=(experiment_id, scale), kwargs=axes, rounds=1, iterations=1, warmup_rounds=0
    )
    print()
    print(format_table(report.headers, report.rows, title=report.title))
    return report
