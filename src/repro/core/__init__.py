"""The failure study core: taxonomy, analysis, recommendations.

This package is the paper's primary contribution translated into a library:

* :mod:`repro.core.failures` — the failure taxonomy of Section 3: the classes,
  the one validation-code → class table and the intra-/inter-block split.
  The component that aborts a transaction stamps it; this module says what
  the stamp means (the ledger-replay oracle under ``tests/`` re-derives it
  from Equations 1-5).
* :mod:`repro.core.metrics` / :mod:`repro.core.analyzer` — parse the blockchain
  after an experiment (Section 4.5) and compute the metrics of the study.
* :mod:`repro.core.recommendations` — the practitioner recommendations of
  Section 6 as a rule engine over measured failure reports.
* :mod:`repro.core.adaptive` — the adaptive block size controller proposed as
  future work in Section 6.2.
"""

from repro.core.adaptive import AdaptiveBlockSizeController, BlockSizeTuner
from repro.core.analyzer import ExperimentAnalysis, LedgerAnalyzer
from repro.core.failures import FailureType
from repro.core.metrics import ExperimentMetrics, FailureReport, compute_metrics
from repro.core.recommendations import Recommendation, RecommendationEngine

__all__ = [
    "AdaptiveBlockSizeController",
    "BlockSizeTuner",
    "ExperimentAnalysis",
    "LedgerAnalyzer",
    "FailureType",
    "ExperimentMetrics",
    "FailureReport",
    "compute_metrics",
    "Recommendation",
    "RecommendationEngine",
]
