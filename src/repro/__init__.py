"""repro — a reproduction of "Why Do My Blockchain Transactions Fail?" (SIGMOD 2021).

The package provides a discrete-event simulation of Hyperledger Fabric's
Execute-Order-Validate pipeline, the four use-case chaincodes and the synthetic
chaincode/workload generator of the paper, the three studied optimizations
(Fabric++, Streamchain, FabricSharp), the paper's transaction-failure taxonomy
and the ledger analysis that reports it, and a benchmarking harness that
regenerates every table and figure of the evaluation.

Quickstart::

    from repro import ExperimentConfig, run_experiment

    result = run_experiment(ExperimentConfig(arrival_rate=100, duration=10))
    for column in ("failures_pct", "mvcc_pct", "endorsement_policy_pct"):
        print(column, result.value(column))
"""

from repro.bench.harness import (
    ExperimentConfig,
    ExperimentResult,
    repetition_seed,
    run_experiment,
    run_repetition,
)
from repro.bench.runner import (
    ExperimentRunner,
    ProgressEvent,
    ResultCache,
    RunnerStats,
    SweepOutcome,
    SweepPlan,
)
from repro.chaincode import CHAINCODE_REGISTRY, create_chaincode
from repro.channels import (
    ChannelTopology,
    CrossChannelCoordinator,
    MultiChannelNetwork,
)
from repro.core.adaptive import AdaptiveBlockSizeController, BlockSizeTuner
from repro.core.analyzer import ChannelAnalysis, ExperimentAnalysis, LedgerAnalyzer
from repro.core.failures import FailureType
from repro.core.metrics import ExperimentMetrics, FailureReport
from repro.core.recommendations import Recommendation, RecommendationEngine
from repro.errors import ReproError
from repro.fabric import available_variants, create_variant
from repro.faults import FaultConfig, FaultSchedule, parse_fault_spec
from repro.lifecycle import (
    LifecycleBus,
    LifecycleEventType,
    RetryConfig,
    RetryController,
    RetryPolicy,
    available_retry_policies,
    create_retry_policy,
)
from repro.lifecycle.pipeline import build_network
from repro.network.config import CLUSTER_PRESETS, DatabaseType, NetworkConfig, TimingProfile
from repro.network.network import ChannelRecord, RunRecord
from repro.workload.spec import TransactionMix, WorkloadSpec
from repro.workload.workloads import (
    delete_heavy,
    insert_heavy,
    range_heavy,
    read_heavy,
    read_update_uniform,
    synthetic_workload,
    uniform_workload,
    update_heavy,
)

#: Single source of the library version; the CLI's ``--version`` flag and any
#: packaging metadata must read it from here.
__version__ = "1.1.0"

__all__ = [
    "__version__",
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentRunner",
    "ProgressEvent",
    "ResultCache",
    "RunnerStats",
    "SweepOutcome",
    "SweepPlan",
    "repetition_seed",
    "run_experiment",
    "run_repetition",
    "CHAINCODE_REGISTRY",
    "create_chaincode",
    "ChannelAnalysis",
    "ChannelRecord",
    "ChannelTopology",
    "CrossChannelCoordinator",
    "MultiChannelNetwork",
    "AdaptiveBlockSizeController",
    "BlockSizeTuner",
    "ExperimentAnalysis",
    "LedgerAnalyzer",
    "FailureType",
    "ExperimentMetrics",
    "FailureReport",
    "Recommendation",
    "RecommendationEngine",
    "ReproError",
    "available_variants",
    "create_variant",
    "FaultConfig",
    "FaultSchedule",
    "parse_fault_spec",
    "LifecycleBus",
    "LifecycleEventType",
    "RetryConfig",
    "RetryController",
    "RetryPolicy",
    "available_retry_policies",
    "create_retry_policy",
    "build_network",
    "CLUSTER_PRESETS",
    "DatabaseType",
    "NetworkConfig",
    "TimingProfile",
    "RunRecord",
    "TransactionMix",
    "WorkloadSpec",
    "read_heavy",
    "insert_heavy",
    "update_heavy",
    "delete_heavy",
    "range_heavy",
    "read_update_uniform",
    "synthetic_workload",
    "uniform_workload",
]
