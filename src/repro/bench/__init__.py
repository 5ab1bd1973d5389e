"""Benchmark harness (the HyperLedgerLab + Caliper analog of the paper).

* :mod:`repro.bench.harness` — experiment configuration, repetition and
  averaging.
* :mod:`repro.bench.runner` — parallel, cached execution of experiment batches
  and declarative sweep grids (:class:`~repro.bench.runner.SweepPlan`).
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

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "EXPERIMENTS",
    "ExperimentReport",
    "ExperimentSpec",
    "regenerate",
    "Scale",
    "QUICK_SCALE",
    "STANDARD_SCALE",
    "PAPER_SCALE",
]
