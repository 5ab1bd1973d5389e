"""Command-line interface: run experiments and regenerate paper artefacts.

The CLI exposes the three things a practitioner typically wants to do with the
library without writing Python:

``python -m repro run``
    Run one experiment (variant, chaincode, block size, arrival rate, ...) and
    print the failure breakdown plus the Section 6 recommendations.

``python -m repro compare``
    Run the same workload on several Fabric variants and print a comparison
    table (a miniature Figure 26).

``python -m repro figure <id>``
    Regenerate one of the paper's tables/figures (e.g. ``fig7``, ``table4``)
    at a chosen scale and print the rows.

``python -m repro sweep``
    Run a grid of experiments (block sizes × arrival rates × variants × skews)
    through the parallel :class:`~repro.bench.runner.ExperimentRunner`, with
    ``--workers`` processes and a content-addressed result cache
    (``--cache-dir`` persists it across invocations, ``--no-cache`` disables
    it), and print one table row per grid cell plus the runner's statistics.

``python -m repro trace summary <file>``
    Analyze a Chrome trace written by ``run``/``sweep --trace-out``: per-stage
    critical-path attribution of the committed transactions' latency.

``python -m repro check <file>``
    Re-check an exported committed history (``run --check-isolation
    --history-out FILE``) through the streaming isolation checker: per-channel
    serializability/snapshot-isolation verdicts with anomaly witnesses.  Exits
    0 when the history certifies at ``--level``, 1 when it is refuted.

``run`` and ``sweep`` additionally accept ``--trace-out FILE`` (Chrome
trace-event JSON, loadable in Perfetto or ``chrome://tracing``) and
``--metrics-out FILE`` (registry summary + sampled sim-time series + fault
markers); exporting never changes results — observability is excluded from
experiment cell identity (sweeps bypass the result cache when exporting, since
cached results carry no trace data).  ``run`` and ``sweep`` also accept
``--check-isolation`` (certify every channel's committed history online; see
:mod:`repro.checker`) and ``run`` accepts ``--history-out FILE`` (export the
committed history for ``repro check``; implies ``--check-isolation``) — like
observability, checking never changes results or cell identity.

Every experiment command accepts the multi-channel flags ``--channels``,
``--placement`` and ``--cross-channel-rate`` (see :mod:`repro.channels`), the
client-retry flags ``--retry-policy``, ``--max-retries``, ``--retry-backoff``
and ``--retry-rate-cap`` (see :mod:`repro.lifecycle.retry`), a ``--fault-spec``
chaos profile (JSON object or inline DSL such as
``peer-crash:rate=0.05,downtime=2;orderer-outage:start=5,duration=3`` — see
:mod:`repro.faults`) and a ``--json`` flag that replaces the text tables with
one machine-readable JSON document (configuration, failure breakdown,
per-channel records, runner statistics).  ``repro --version`` prints the
library version.  Unknown names — variant, chaincode, cluster, figure id,
retry policy, fault type — are rejected with the list of valid choices and
exit code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, List, Optional, Sequence

from repro import __version__
from repro.bench.experiments import (
    EXPERIMENTS,
    PAPER_SCALE,
    QUICK_SCALE,
    STANDARD_SCALE,
    regenerate,
)
from repro.bench.harness import ExperimentConfig, ExperimentResult, run_experiment
from repro.bench.reporting import format_table
from repro.bench.runner import SWEEP_HEADERS, ExperimentRunner, ResultCache, SweepPlan
from repro.chaincode import CHAINCODE_REGISTRY
from repro.checker.checker import (
    LEVEL_SERIALIZABLE,
    LEVEL_SNAPSHOT_ISOLATION,
    CheckerConfig,
    IsolationReport,
)
from repro.checker.history import check_history, write_history
from repro.core.analyzer import ExperimentAnalysis
from repro.core.failures import FailureType
from repro.core.recommendations import RecommendationEngine
from repro.errors import ConfigurationError, ReproError
from repro.fabric.variant import available_variants
from repro.faults import FaultConfig, fault_config_summary, parse_fault_spec
from repro.lifecycle.retry import RetryConfig, available_retry_policies
from repro.network.config import CLUSTER_PRESETS, PLACEMENT_POLICIES, NetworkConfig
from repro.sim.shard import ExecutionConfig
from repro.observability import (
    ObservabilityConfig,
    critical_path_from_trace,
    critical_path_report,
    format_report,
    load_trace,
    write_chrome_trace,
    write_metrics,
)

from repro.workload.workloads import uniform_workload

_SCALES = {"quick": QUICK_SCALE, "standard": STANDARD_SCALE, "paper": PAPER_SCALE}

#: The classes ``repro run`` prints a row for whatever ran: the four the
#: paper's Section 3 defines.  Every other class gets its row when it occurs.
_ALWAYS_REPORTED = (
    FailureType.ENDORSEMENT_POLICY,
    FailureType.MVCC_INTRA_BLOCK,
    FailureType.MVCC_INTER_BLOCK,
    FailureType.PHANTOM_READ,
)


def _choice(kind: str, choices: Sequence[str]) -> Callable[[str], str]:
    """An argparse ``type`` that rejects unknown values with the valid names.

    argparse turns the raised :class:`argparse.ArgumentTypeError` into an
    error message plus exit code 2, so ``repro run --variant besu`` prints the
    known variants instead of failing with a bare error.
    """

    valid = sorted(choices)

    def parse(value: str) -> str:
        if value not in valid:
            names = ", ".join(valid)
            raise argparse.ArgumentTypeError(f"unknown {kind} {value!r}; valid choices: {names}")
        return value

    parse.__name__ = kind  # nicer argparse usage strings
    return parse


def _finite_float(kind: str) -> Callable[[str], float]:
    """An argparse ``type`` for floats that must be finite.

    ``float()`` happily parses ``nan`` and ``inf``, and a NaN duration or
    rate used to slip all the way into the simulator (``delay < 0`` is False
    for NaN) before dying deep in the engine.  Reject it at the CLI boundary
    with exit code 2 and a message naming the option instead.
    """

    def parse(value: str) -> float:
        try:
            number = float(value)
        except ValueError as error:
            raise argparse.ArgumentTypeError(f"{kind} must be a number, got {value!r}") from error
        if not math.isfinite(number):
            raise argparse.ArgumentTypeError(f"{kind} must be a finite number, got {value!r}")
        return number

    parse.__name__ = kind
    return parse


def _shard_workers(value: str) -> int:
    """argparse ``type`` for ``--shard-workers``.

    Valid values: ``0`` (size the simulating processes, this one included,
    automatically from the process budget), ``1`` (the default shared-clock
    execution) or a positive cap on them.  Anything else — negatives, floats,
    non-numbers — exits with code 2 and a message listing the valid values,
    matching the other options.
    """
    valid = "valid values: 0 (auto), 1 (shared clock) or a positive worker cap"
    try:
        workers = int(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(
            f"shard workers must be an integer, got {value!r}; {valid}"
        ) from error
    if workers < 0:
        raise argparse.ArgumentTypeError(
            f"shard workers must be >= 0, got {workers}; {valid}"
        )
    return workers


def _fault_spec(value: str) -> FaultConfig:
    """argparse ``type`` for ``--fault-spec``: JSON or the inline fault DSL.

    Parse errors (malformed JSON, unknown fault types — the latter listing
    the valid kinds) surface as exit code 2, matching how unknown variant and
    chaincode names are rejected.
    """
    try:
        return parse_fault_spec(value)
    except ConfigurationError as error:
        raise argparse.ArgumentTypeError(str(error)) from error


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Why Do My Blockchain Transactions Fail?' (SIGMOD 2021)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one experiment and explain the failures")
    _add_experiment_arguments(run_parser)
    _add_observability_arguments(run_parser)
    _add_checker_arguments(run_parser, history_out=True)

    compare_parser = subparsers.add_parser(
        "compare", help="compare Fabric variants on the same workload"
    )
    _add_experiment_arguments(compare_parser)
    compare_parser.add_argument(
        "--variants",
        nargs="+",
        type=_choice("variant", available_variants()),
        default=["fabric-1.4", "fabric++", "streamchain", "fabricsharp"],
        help="variants to compare",
    )

    sweep_parser = subparsers.add_parser(
        "sweep", help="run a grid of experiments through the parallel runner"
    )
    _add_experiment_arguments(sweep_parser)
    _add_observability_arguments(sweep_parser)
    _add_checker_arguments(sweep_parser, history_out=False)
    sweep_parser.add_argument(
        "--variants",
        nargs="*",
        type=_choice("variant", available_variants()),
        default=None,
        help="sweep over these Fabric variants (default: just --variant)",
    )
    sweep_parser.add_argument(
        "--block-sizes",
        nargs="*",
        type=int,
        default=None,
        help="sweep over these block sizes (default: just --block-size)",
    )
    sweep_parser.add_argument(
        "--rates",
        nargs="*",
        type=_finite_float("rate"),
        default=None,
        help="sweep over these arrival rates in tps (default: just --rate)",
    )
    sweep_parser.add_argument(
        "--skews",
        nargs="*",
        type=_finite_float("skew"),
        default=None,
        help="sweep over these Zipfian skews (default: just --skew)",
    )
    sweep_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes for the grid (default 1)"
    )
    sweep_parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    sweep_parser.add_argument(
        "--cache-dir",
        default=None,
        help="persist cached results in this directory (reused by later sweeps)",
    )

    trace_parser = subparsers.add_parser("trace", help="inspect exported trace files")
    trace_subparsers = trace_parser.add_subparsers(dest="trace_command", required=True)
    summary_parser = trace_subparsers.add_parser(
        "summary", help="critical-path attribution of an exported Chrome trace"
    )
    summary_parser.add_argument("file", help="trace file written by run/sweep --trace-out")
    summary_parser.add_argument(
        "--json",
        action="store_true",
        help="print the report as a machine-readable JSON document",
    )

    check_parser = subparsers.add_parser(
        "check", help="re-check an exported committed history for isolation anomalies"
    )
    check_parser.add_argument(
        "file", help="history file written by run --check-isolation --history-out"
    )
    check_parser.add_argument(
        "--level",
        default=LEVEL_SERIALIZABLE,
        type=_choice("isolation level", (LEVEL_SERIALIZABLE, LEVEL_SNAPSHOT_ISOLATION)),
        help="isolation level the history must certify at (default: serializable)",
    )
    check_parser.add_argument(
        "--witness-limit",
        type=int,
        default=4,
        help="anomaly witnesses to retain per channel (default 4)",
    )
    check_parser.add_argument(
        "--json",
        action="store_true",
        help="print the report as a machine-readable JSON document",
    )

    figure_parser = subparsers.add_parser("figure", help="regenerate a paper table or figure")
    figure_parser.add_argument(
        "artefact",
        type=_choice("figure id", sorted(EXPERIMENTS)),
        help="artefact id, e.g. fig7 or table4",
    )
    figure_parser.add_argument(
        "--scale", choices=sorted(_SCALES), default="quick", help="experiment scale"
    )
    return parser


def _add_experiment_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--variant", default="fabric-1.4", type=_choice("variant", available_variants())
    )
    parser.add_argument(
        "--chaincode", default="EHR", type=_choice("chaincode", sorted(CHAINCODE_REGISTRY))
    )
    parser.add_argument(
        "--cluster", default="C1", type=_choice("cluster", sorted(CLUSTER_PRESETS))
    )
    parser.add_argument("--database", default="couchdb", choices=["couchdb", "leveldb"])
    parser.add_argument("--block-size", type=int, default=100)
    parser.add_argument("--policy", default="P0", choices=["P0", "P1", "P2", "P3"])
    parser.add_argument(
        "--rate", type=_finite_float("rate"), default=100.0, help="arrival rate in tps"
    )
    parser.add_argument(
        "--duration", type=_finite_float("duration"), default=15.0, help="simulated seconds"
    )
    parser.add_argument("--skew", type=_finite_float("skew"), default=1.0, help="Zipfian key skew")
    parser.add_argument("--repetitions", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--channels", type=int, default=1, help="shard the network into this many channels"
    )
    parser.add_argument(
        "--placement",
        default="hash",
        type=_choice("placement policy", PLACEMENT_POLICIES),
        help="key placement across channels: hash, range or hot",
    )
    parser.add_argument(
        "--cross-channel-rate",
        type=_finite_float("cross-channel rate"),
        default=0.0,
        help="fraction of transactions spanning a second channel (needs --channels >= 2)",
    )
    parser.add_argument(
        "--shard-workers",
        type=_shard_workers,
        default=1,
        help=(
            "processes that simulate independent channel shards, this one included: "
            "0 sizes the count automatically, 1 (default) keeps the shared simulation "
            "clock, N >= 2 caps it (needs --channels >= 2; bit-identical results either way)"
        ),
    )
    parser.add_argument(
        "--retry-policy",
        default="none",
        type=_choice("retry policy", available_retry_policies()),
        help="client reaction to failed transactions: none, immediate, fixed or jittered",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="resubmission attempts per failed transaction (with --retry-policy)",
    )
    parser.add_argument(
        "--retry-backoff",
        type=_finite_float("retry backoff"),
        default=0.05,
        help="base backoff delay in seconds for the fixed and jittered policies",
    )
    parser.add_argument(
        "--retry-max-backoff",
        type=_finite_float("retry max backoff"),
        default=2.0,
        help="upper bound in seconds on any single backoff delay",
    )
    parser.add_argument(
        "--retry-rate-cap",
        type=_finite_float("retry rate cap"),
        default=None,
        help="deployment-wide resubmission rate cap in 1/s (default: uncapped)",
    )
    parser.add_argument(
        "--fault-spec",
        type=_fault_spec,
        default=None,
        metavar="SPEC",
        help=(
            "chaos profile as JSON or inline DSL, e.g. "
            "'peer-crash:rate=0.05,downtime=2;orderer-outage:start=5,duration=3' "
            "(kinds: peer-crash, endorser-slowdown, orderer-outage, partition, "
            "endorsement-loss, endorsement-timeout)"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print one machine-readable JSON document instead of text tables",
    )


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write a Chrome trace-event JSON (Perfetto-loadable) of the run",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the metrics registry summary and sampled sim-time series as JSON",
    )
    parser.add_argument(
        "--sample-interval",
        type=_finite_float("sample interval"),
        default=0.25,
        help="sim-time sampling interval in seconds for --metrics-out (default 0.25)",
    )


def _add_checker_arguments(parser: argparse.ArgumentParser, history_out: bool) -> None:
    parser.add_argument(
        "--check-isolation",
        action="store_true",
        help=(
            "certify every channel's committed history online (serializability "
            "and snapshot isolation, with anomaly witnesses on refutation)"
        ),
    )
    if history_out:
        parser.add_argument(
            "--history-out",
            default=None,
            metavar="FILE",
            help=(
                "write the committed history as JSON for 'repro check' "
                "(implies --check-isolation)"
            ),
        )


def _ensure_writable(path: str, option: str) -> None:
    """Reject unwritable export targets before spending time on the run."""
    if os.path.isdir(path):
        raise ConfigurationError(f"{option} target {path!r} is a directory")
    if os.path.exists(path):
        if not os.access(path, os.W_OK):
            raise ConfigurationError(f"{option} target {path!r} is not writable")
        return
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigurationError(f"{option} target directory {parent!r} does not exist")
    if not os.access(parent, os.W_OK):
        raise ConfigurationError(f"{option} target directory {parent!r} is not writable")


def _observability_config(args: argparse.Namespace) -> ObservabilityConfig:
    """The observability config requested by --trace-out/--metrics-out."""
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if trace_out is not None:
        _ensure_writable(trace_out, "--trace-out")
    if metrics_out is not None:
        _ensure_writable(metrics_out, "--metrics-out")
    return ObservabilityConfig(
        trace=trace_out is not None,
        metrics=metrics_out is not None,
        sample_interval=getattr(args, "sample_interval", 0.25),
    )


def _checker_config(args: argparse.Namespace) -> CheckerConfig:
    """The checker config requested by --check-isolation/--history-out."""
    history_out = getattr(args, "history_out", None)
    if history_out is not None:
        _ensure_writable(history_out, "--history-out")
    return CheckerConfig(
        enabled=getattr(args, "check_isolation", False) or history_out is not None
    )


def _experiment_config(args: argparse.Namespace, variant: Optional[str] = None) -> ExperimentConfig:
    return ExperimentConfig(
        variant=variant or args.variant,
        workload=uniform_workload(args.chaincode),
        network=NetworkConfig(
            cluster=args.cluster,
            database=args.database,
            block_size=args.block_size,
            endorsement_policy=args.policy,
            channels=args.channels,
            placement=args.placement,
            cross_channel_rate=args.cross_channel_rate,
            execution=ExecutionConfig(shard_workers=getattr(args, "shard_workers", 1)),
            retry=RetryConfig(
                policy=args.retry_policy,
                max_retries=args.max_retries,
                backoff=args.retry_backoff,
                max_backoff=max(args.retry_max_backoff, args.retry_backoff),
                rate_cap=args.retry_rate_cap,
            ),
            faults=args.fault_spec if args.fault_spec is not None else FaultConfig(),
            observability=_observability_config(args),
            checker=_checker_config(args),
        ),
        arrival_rate=args.rate,
        duration=args.duration,
        zipf_skew=args.skew,
        repetitions=args.repetitions,
        seed=args.seed,
    )


# --------------------------------------------------------------------- JSON
def _config_summary(config: ExperimentConfig) -> dict:
    """The experiment configuration as JSON-serializable data."""
    network = config.network
    return {
        "variant": config.variant,
        "chaincode": config.workload.chaincode,
        "workload": config.workload.name,
        "cluster": network.cluster,
        "database": str(getattr(network.database, "value", network.database)),
        "block_size": network.block_size,
        "endorsement_policy": network.endorsement_policy,
        "channels": network.channels,
        "placement": network.placement,
        "cross_channel_rate": network.cross_channel_rate,
        "shard_workers": network.execution.shard_workers,
        "retry_policy": network.retry.policy,
        "max_retries": network.retry.max_retries,
        "retry_backoff": network.retry.backoff,
        "retry_max_backoff": network.retry.max_backoff,
        "retry_rate_cap": network.retry.rate_cap,
        "faults": fault_config_summary(network.faults) if network.faults.enabled else None,
        "arrival_rate": config.arrival_rate,
        "duration": config.duration,
        "zipf_skew": config.zipf_skew,
        "repetitions": config.repetitions,
        "seed": config.seed,
    }


def _analysis_summary(analysis: ExperimentAnalysis) -> dict:
    """One analysis (metrics + failure breakdown + per-channel records)."""
    metrics = analysis.metrics
    summary = {
        "submitted_transactions": metrics.submitted_transactions,
        "committed_transactions": metrics.committed_transactions,
        "average_latency_s": metrics.average_latency,
        "committed_throughput_tps": metrics.committed_throughput,
        "blocks": metrics.blocks,
        "orderer_utilization": metrics.orderer_utilization,
        "failures": analysis.failure_report.as_dict(),
        "client_effective_failure_pct": metrics.client_effective_failure_pct,
        "goodput_tps": metrics.goodput,
        "resubmissions": metrics.resubmissions,
        "retry_amplification": metrics.retry_amplification,
        "lifecycle_events": dict(analysis.record.lifecycle_counts),
        "execution": analysis.record.execution,
        "shard_count": analysis.record.shard_count,
        "fault_injections": dict(metrics.fault_injections),
        "latency_quantiles_s": dict(metrics.latency_quantiles),
        "stage_latency_s": {
            stage: dict(row) for stage, row in metrics.stage_latency.items()
        },
    }
    if analysis.record.isolation is not None:
        summary["isolation"] = analysis.record.isolation.summary()
    if analysis.channel_analyses:
        summary["channels"] = [
            {
                "channel": channel.name,
                "submitted_transactions": channel.metrics.submitted_transactions,
                "committed_throughput_tps": channel.metrics.committed_throughput,
                "cross_channel_submitted": channel.cross_channel_submitted,
                "cross_channel_aborted": channel.cross_channel_aborted,
                "failures": channel.failure_report.as_dict(),
            }
            for channel in analysis.channel_analyses
        ]
    return summary


def _print_json(document: dict) -> None:
    print(json.dumps(document, indent=2, sort_keys=True))


# ----------------------------------------------------------------- commands
def _export_observability(args: argparse.Namespace, analysis: ExperimentAnalysis) -> List[str]:
    """Write the run's requested trace/metrics exports; returns notices."""
    data = analysis.record.observability
    if data is None:
        return []
    notices: List[str] = []
    if args.trace_out is not None:
        write_chrome_trace(args.trace_out, [data])
        notices.append(f"trace written to {args.trace_out}")
    if args.metrics_out is not None:
        write_metrics(args.metrics_out, data)
        notices.append(f"metrics written to {args.metrics_out}")
    return notices


def _command_run(args: argparse.Namespace) -> int:
    config = _experiment_config(args)
    result = run_experiment(config)
    analysis = result.analyses[0]
    # With repetitions > 1 every repetition is traced identically configured;
    # the exports cover the first repetition (the others differ only by seed).
    export_notices = _export_observability(args, analysis)
    if getattr(args, "history_out", None) is not None:
        write_history(args.history_out, analysis.record)
        export_notices.append(f"committed history written to {args.history_out}")
    report = analysis.failure_report
    recommendations = RecommendationEngine().recommend(analysis)
    if args.json:
        document = {
            "command": "run",
            "config": _config_summary(config),
            "result": _analysis_summary(analysis),
            "recommendations": [
                {
                    "identifier": recommendation.identifier,
                    "title": recommendation.title,
                    "paper_section": recommendation.paper_section,
                }
                for recommendation in recommendations
            ],
        }
        data = analysis.record.observability
        if data is not None and data.spans:
            document["critical_path"] = critical_path_report(data.spans)
        if export_notices:
            document["exports"] = {
                key: value
                for key, value in (
                    ("trace", args.trace_out),
                    ("metrics", args.metrics_out),
                )
                if value is not None
            }
        _print_json(document)
        return 0
    rows = [
        ("submitted transactions", analysis.metrics.submitted_transactions),
        ("committed transactions", analysis.metrics.committed_transactions),
        ("average latency (s)", analysis.metrics.average_latency),
        ("committed throughput (tps)", analysis.metrics.committed_throughput),
        ("total failures (%)", report.total_failure_pct),
    ]
    rows.extend(
        (failure.label, report.percentage(failure))
        for failure in FailureType
        if failure in _ALWAYS_REPORTED or report.count(failure)
    )
    isolation = analysis.record.isolation
    if isolation is not None:
        rows.append(("isolation verdict", isolation.verdict))
        rows.append(("isolation anomalies", isolation.anomaly_count))
    if analysis.record.shard_count > 1:
        rows.append(
            ("execution", f"{analysis.record.execution} ({analysis.record.shard_count} shards)")
        )
    if config.network.faults.enabled:
        rows.append(
            (
                "fault injections",
                sum(
                    count
                    for kind, count in analysis.metrics.fault_injections.items()
                    if kind.endswith(("_crash", "_start"))
                ),
            )
        )
    if config.network.retry.enabled:
        rows.extend(
            [
                ("client-effective failures (%)", analysis.metrics.client_effective_failure_pct),
                ("goodput (requests/s)", analysis.metrics.goodput),
                ("resubmissions", analysis.metrics.resubmissions),
                ("retry amplification (x)", analysis.metrics.retry_amplification),
            ]
        )
    print(format_table(("metric", "value"), rows, title="Experiment result"))
    if analysis.channel_analyses:
        channel_rows = [
            (
                channel.name,
                channel.metrics.submitted_transactions,
                channel.metrics.committed_throughput,
                channel.failure_report.total_failure_pct,
                channel.cross_channel_submitted,
                channel.cross_channel_aborted,
            )
            for channel in analysis.channel_analyses
        ]
        print()
        print(
            format_table(
                ("channel", "submitted", "committed_tps", "failures_pct", "cross_sent", "cross_aborted"),
                channel_rows,
                title="Per-channel breakdown",
            )
        )
    if isolation is not None and not isolation.serializable:
        print("\nIsolation anomalies (first witnesses):")
        for channel in isolation.channels:
            for witness in channel.anomalies:
                print(f"  - [{witness.level}] {witness.description}")
    data = analysis.record.observability
    if data is not None and data.spans:
        print("\nCritical path (committed transactions):")
        print(format_report(critical_path_report(data.spans)))
    if recommendations:
        print("\nRecommendations (paper Section 6):")
        for recommendation in recommendations:
            print(f"  - {recommendation.title} [{recommendation.paper_section}]")
    for notice in export_notices:
        print(notice)
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    results: List[ExperimentResult] = []
    configs: List[ExperimentConfig] = []
    for variant in args.variants:
        config = _experiment_config(args, variant=variant)
        configs.append(config)
        results.append(run_experiment(config))
    if args.json:
        _print_json(
            {
                "command": "compare",
                "config": _config_summary(configs[0]),
                "variants": [
                    {
                        "variant": variant,
                        "average_latency_s": result.average_latency,
                        "endorsement_pct": result.endorsement_pct,
                        "mvcc_pct": result.mvcc_pct,
                        "failures_pct": result.failure_pct,
                        "committed_throughput_tps": result.committed_throughput,
                        "failures": result.analyses[0].failure_report.as_dict(),
                    }
                    for variant, result in zip(args.variants, results)
                ],
            }
        )
        return 0
    rows = [
        (
            variant,
            result.average_latency,
            result.endorsement_pct,
            result.mvcc_pct,
            result.failure_pct,
            result.committed_throughput,
        )
        for variant, result in zip(args.variants, results)
    ]
    print(
        format_table(
            (
                "variant",
                "latency_s",
                "endorsement_pct",
                "mvcc_pct",
                "failures_pct",
                "committed_tps",
            ),
            rows,
            title=f"Variant comparison ({args.chaincode}, {args.rate:.0f} tps, {args.cluster})",
        )
    )
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ConfigurationError(f"--workers must be >= 1, got {args.workers}")
    plan = SweepPlan(
        base=_experiment_config(args),
        variants=args.variants,
        block_sizes=args.block_sizes,
        arrival_rates=args.rates,
        zipf_skews=args.skews,
    )
    exporting = args.trace_out is not None or args.metrics_out is not None
    checking = getattr(args, "check_isolation", False)
    cache = None if args.no_cache or exporting or checking else ResultCache(args.cache_dir)
    if exporting and not args.no_cache:
        # Observability is excluded from cell identity, so cached results of
        # the same cells carry no trace data; run the cells fresh instead.
        print("note: result cache bypassed while exporting traces/metrics", file=sys.stderr)
    if checking and not args.no_cache and not exporting:
        # Same exclusion for the checker: cached results carry no verdicts.
        print("note: result cache bypassed while checking isolation", file=sys.stderr)
    runner = ExperimentRunner(workers=args.workers, cache=cache)
    outcome = runner.run_sweep(plan)
    if exporting:
        observed = [
            (
                f"{cell.variant}-bs{cell.block_size}-r{cell.arrival_rate:g}-z{cell.zipf_skew:g}",
                result.analyses[0].record.observability,
            )
            for cell, result in zip(outcome.cells, outcome.results)
        ]
        observed = [(name, data) for name, data in observed if data is not None]
        if args.trace_out is not None:
            write_chrome_trace(
                args.trace_out,
                [data for _, data in observed],
                names=[name for name, _ in observed],
            )
            print(f"trace written to {args.trace_out}", file=sys.stderr)
        if args.metrics_out is not None:
            _write_sweep_metrics(args.metrics_out, observed)
            print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    if args.json:
        # Every RunnerStats field, so a new counter cannot be forgotten here.
        runner_stats = dict(vars(outcome.stats))
        runner_stats["wall_clock_s"] = runner_stats.pop("wall_clock")
        _print_json(
            {
                "command": "sweep",
                "config": _config_summary(plan.base),
                "cells": [
                    {
                        "variant": cell.variant,
                        "block_size": cell.block_size,
                        "arrival_rate": cell.arrival_rate,
                        "zipf_skew": cell.zipf_skew,
                        "failures_pct": result.failure_pct,
                        "endorsement_pct": result.endorsement_pct,
                        "mvcc_pct": result.mvcc_pct,
                        "average_latency_s": result.average_latency,
                        "committed_throughput_tps": result.committed_throughput,
                        "failures": result.analyses[0].failure_report.as_dict(),
                        **(
                            {"isolation": result.analyses[0].record.isolation.summary()}
                            if result.analyses[0].record.isolation is not None
                            else {}
                        ),
                    }
                    for cell, result in zip(outcome.cells, outcome.results)
                ],
                "runner_stats": runner_stats,
            }
        )
        return 0
    title = (
        f"Sweep: {len(outcome.cells)} cell(s) x {args.repetitions} repetition(s) "
        f"({args.chaincode}, {args.cluster})"
    )
    print(format_table(SWEEP_HEADERS, outcome.rows(), title=title))
    if checking:
        verdict_rows = [
            (
                f"{cell.variant}-bs{cell.block_size}-r{cell.arrival_rate:g}-z{cell.zipf_skew:g}",
                result.analyses[0].record.isolation.verdict
                if result.analyses[0].record.isolation is not None
                else "n/a",
            )
            for cell, result in zip(outcome.cells, outcome.results)
        ]
        print()
        print(format_table(("cell", "isolation"), verdict_rows, title="Isolation verdicts"))
    print(f"\n{outcome.stats.describe()}")
    return 0


def _write_sweep_metrics(path: str, observed) -> None:
    """Write one metrics document per sweep cell, keyed by the cell label."""
    from repro.observability import dumps, metrics_document

    document = {"cells": [{"cell": name, **metrics_document(data)} for name, data in observed]}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(document))
        handle.write("\n")


def _command_trace(args: argparse.Namespace) -> int:
    try:
        document = load_trace(args.file)
    except FileNotFoundError as error:
        raise ConfigurationError(f"trace file {args.file!r} does not exist") from error
    except (ValueError, json.JSONDecodeError) as error:
        raise ConfigurationError(f"not a Chrome trace-event file: {error}") from error
    report = critical_path_from_trace(document)
    if args.json:
        _print_json({"command": "trace-summary", "file": args.file, **report})
        return 0
    print(format_report(report))
    return 0


def _command_check(args: argparse.Namespace) -> int:
    if args.witness_limit < 1:
        raise ConfigurationError(f"--witness-limit must be >= 1, got {args.witness_limit}")
    report: IsolationReport = check_history(args.file, witness_limit=args.witness_limit)
    certified = report.certifies(args.level)
    if args.json:
        _print_json(
            {
                "command": "check",
                "file": args.file,
                "level": args.level,
                "certified": certified,
                **report.summary(),
            }
        )
        return 0 if certified else 1
    rows = [
        (
            "aggregate" if channel.channel is None else f"channel-{channel.channel}",
            channel.verdict,
            channel.committed,
            channel.aborted,
            channel.serializable_violations,
            channel.si_violations,
            channel.dangling_reads,
        )
        for channel in report.channels
    ]
    print(
        format_table(
            ("channel", "verdict", "committed", "aborted", "ser_cycles", "si_cycles", "dangling"),
            rows,
            title=f"Isolation check: {args.file}",
        )
    )
    for channel in report.channels:
        for witness in channel.anomalies:
            print(f"  - [{witness.level}] {witness.description}")
    print(f"\n{report.verdict} (required: {args.level})")
    return 0 if certified else 1


def _command_figure(args: argparse.Namespace) -> int:
    report = regenerate(args.artefact, _SCALES[args.scale])
    print(format_table(report.headers, report.rows, title=report.title))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        if args.command == "run":
            return _command_run(args)
        if args.command == "compare":
            return _command_compare(args)
        if args.command == "sweep":
            return _command_sweep(args)
        if args.command == "trace":
            return _command_trace(args)
        if args.command == "check":
            return _command_check(args)
        if args.command == "figure":
            return _command_figure(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
