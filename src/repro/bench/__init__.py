"""Benchmark harness (the HyperLedgerLab + Caliper analog of the paper).

* :mod:`repro.bench.harness` — experiment configuration, repetition and
  averaging.
* :mod:`repro.bench.sweeps` — parameter sweeps (block size, arrival rate, ...).
* :mod:`repro.bench.experiments` — one spec row per table/figure of the paper's
  evaluation and the executor that turns it into the corresponding rows/series.
* :mod:`repro.bench.reporting` — plain-text table rendering for benchmark
  output and EXPERIMENTS.md.
* :mod:`repro.bench.paper_data` — the numbers reported in the paper, for
  side-by-side comparison.
"""

from repro.bench.experiments import (
    EXPERIMENTS,
    PAPER_SCALE,
    QUICK_SCALE,
    STANDARD_SCALE,
    ExperimentReport,
    ExperimentSpec,
    Scale,
    regenerate,
)
from repro.bench.harness import ExperimentConfig, ExperimentResult, run_experiment
from repro.bench.sweeps import arrival_rate_sweep, block_size_sweep, find_best_block_size

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "arrival_rate_sweep",
    "block_size_sweep",
    "find_best_block_size",
    "EXPERIMENTS",
    "ExperimentReport",
    "ExperimentSpec",
    "regenerate",
    "Scale",
    "QUICK_SCALE",
    "STANDARD_SCALE",
    "PAPER_SCALE",
]
