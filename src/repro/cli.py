"""Command-line interface: run experiments and regenerate paper artefacts.

The CLI exposes what a practitioner typically wants to do with the library
without writing Python.  ``repro <verb> --help`` lists each verb's flags.

``python -m repro run``
    Run one experiment and print the failure breakdown plus the Section 6
    recommendations.

``python -m repro compare``
    Run the same workload on several Fabric variants and print a comparison
    table (a miniature Figure 26).

``python -m repro figure <id>... | all``
    Regenerate the paper's tables/figures (e.g. ``fig7 table4``, or ``all``)
    at a chosen scale as one batch on every core, and print their rows.

``python -m repro sweep``
    Run a grid of experiments through the parallel
    :class:`~repro.bench.runner.ExperimentRunner` and its content-addressed
    result cache, and print one table row per grid cell plus the runner's
    statistics.

``python -m repro trace summary <file>``
    Analyze a Chrome trace written by ``run``/``sweep --trace-out``: per-stage
    critical-path attribution of the committed transactions' latency.

``python -m repro check <file>``
    Re-check an exported committed history (``run --check-isolation
    --history-out FILE``) through the streaming isolation checker.  Exits 0
    when the history certifies at ``--level``, 1 when it is refuted.

``run``, ``compare`` and ``sweep`` take the experiment flags of one table,
:data:`_EXPERIMENT_FLAGS`: each row names the option, the
:class:`~repro.bench.harness.ExperimentConfig` field it sets and the key
``--json`` echoes it under, and a flag not given leaves the field's dataclass
default in place.  Exporting a trace or metrics and checking isolation never
change results: observability and the checker are excluded from experiment
cell identity, so a sweep bypasses the result cache while doing either (cached
results carry no trace data and no verdicts).  Unknown names are rejected with
the list of valid choices, and every error exits with code 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import math
import operator
import os
import sys
from typing import Callable, List, Optional, Sequence

from repro import __version__
from repro.bench.experiments import EXPERIMENTS, SCALES, regenerate
from repro.bench.harness import ExperimentConfig, ExperimentResult, pct_column, run_experiment
from repro.bench.reporting import format_table
from repro.bench.runner import SWEEP_HEADERS, ExperimentRunner, ResultCache, SweepPlan
from repro.checker.checker import LEVEL_SERIALIZABLE, LEVEL_SNAPSHOT_ISOLATION, IsolationReport
from repro.checker.config import CheckerConfig
from repro.checker.history import check_history, write_history
from repro.core.analyzer import ChannelAnalysis, ExperimentAnalysis
from repro.core.failures import FailureType
from repro.core.recommendations import RecommendationEngine
from repro.errors import ConfigurationError, ReproError
from repro.fabric.variant import available_variants
from repro.faults import FaultConfig, fault_config_summary, parse_fault_spec
from repro.lifecycle.retry import RetryConfig, available_retry_policies
from repro.network.config import CLUSTER_PRESETS, PLACEMENT_POLICIES
from repro.observability import (
    critical_path_from_trace,
    critical_path_report,
    format_report,
    load_trace,
    write_chrome_trace,
    write_metrics,
)

from repro.workload.workloads import UNIFORM_CHAINCODES, uniform_workload

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

    Valid values: ``0`` (a pool of a worker per available core drains the
    shards), ``1`` (the default: this process drains every shard) or a
    positive cap on the pool.  Anything else — negatives, floats, non-numbers —
    exits with code 2 and a message listing the valid values, matching the
    other options.
    """
    valid = "valid values: 0 (auto), 1 (this process only) or a positive worker cap"
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


def _same(value):
    return value


class _Flag:
    """A flag that sets one :class:`ExperimentConfig` field, stated once.

    ``field`` is the dotted path of the field (``network.retry.backoff``),
    ``echo`` the key ``--json`` echoes it under (``None``: not echoed), and
    ``settings`` the ``add_argument`` keywords, with no ``default`` unless it
    differs from the field's.  ``build`` turns a parsed value into the field's
    value, ``show`` the field's value into the echoed one.
    """

    def __init__(
        self, option: str, field: str, echo: Optional[str], *, build=_same, show=_same, **settings
    ) -> None:
        self.option, self.field, self.echo, self.settings = option, field, echo, settings
        self.build, self.show = build, show
        self.dest = option[2:].replace("-", "_")

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        parser.add_argument(self.option, **{"default": argparse.SUPPRESS, **self.settings})


#: The experiment flags of ``run``, ``compare`` and ``sweep``, in ``--help`` order.
_EXPERIMENT_FLAGS = (
    _Flag("--variant", "variant", "variant", type=_choice("variant", available_variants())),
    _Flag(
        "--chaincode",
        "workload",
        "chaincode",
        build=uniform_workload,
        show=operator.attrgetter("chaincode"),
        type=_choice("chaincode", UNIFORM_CHAINCODES),
    ),
    _Flag(
        "--cluster", "network.cluster", "cluster", type=_choice("cluster", sorted(CLUSTER_PRESETS))
    ),
    _Flag(
        "--database",
        "network.database",
        "database",
        show=operator.attrgetter("value"),
        choices=["couchdb", "leveldb"],
    ),
    _Flag("--block-size", "network.block_size", "block_size", type=int),
    _Flag(
        "--policy",
        "network.endorsement_policy",
        "endorsement_policy",
        choices=["P0", "P1", "P2", "P3"],
    ),
    _Flag(
        "--rate",
        "arrival_rate",
        "arrival_rate",
        type=_finite_float("rate"),
        help="arrival rate in tps",
    ),
    # The one default of the CLI's own: a 15 s run where the library runs 20 s.
    _Flag(
        "--duration",
        "duration",
        "duration",
        type=_finite_float("duration"),
        default=15.0,
        help="simulated seconds",
    ),
    _Flag("--skew", "zipf_skew", "zipf_skew", type=_finite_float("skew"), help="Zipfian key skew"),
    _Flag("--repetitions", "repetitions", "repetitions", type=int),
    _Flag("--seed", "seed", "seed", type=int),
    _Flag(
        "--channels",
        "network.channels",
        "channels",
        type=int,
        help="shard the network into this many channels",
    ),
    _Flag(
        "--placement",
        "network.placement",
        "placement",
        type=_choice("placement policy", PLACEMENT_POLICIES),
        help="key placement across channels: hash, range or hot",
    ),
    _Flag(
        "--cross-channel-rate",
        "network.cross_channel_rate",
        "cross_channel_rate",
        type=_finite_float("cross-channel rate"),
        help="fraction of transactions spanning a second channel (needs --channels >= 2)",
    ),
    _Flag(
        "--shard-workers",
        "network.execution.shard_workers",
        "shard_workers",
        type=_shard_workers,
        help=(
            "processes that simulate independent channel shards: 1 (default) drains "
            "every shard in this process, N >= 2 a pool of at most N workers while this "
            "process waits, 0 every available core (needs --channels >= 2; "
            "bit-identical results either way)"
        ),
    ),
    _Flag(
        "--retry-policy",
        "network.retry.policy",
        "retry_policy",
        type=_choice("retry policy", available_retry_policies()),
        help="client reaction to failed transactions: none, immediate, fixed or jittered",
    ),
    _Flag(
        "--max-retries",
        "network.retry.max_retries",
        "max_retries",
        type=int,
        help="resubmission attempts per failed transaction (with --retry-policy)",
    ),
    _Flag(
        "--retry-backoff",
        "network.retry.backoff",
        "retry_backoff",
        type=_finite_float("retry backoff"),
        help="base backoff delay in seconds for the fixed and jittered policies",
    ),
    _Flag(
        "--retry-max-backoff",
        "network.retry.max_backoff",
        "retry_max_backoff",
        type=_finite_float("retry max backoff"),
        help="upper bound in seconds on any single backoff delay",
    ),
    _Flag(
        "--retry-rate-cap",
        "network.retry.rate_cap",
        "retry_rate_cap",
        type=_finite_float("retry rate cap"),
        help="deployment-wide resubmission rate cap in 1/s (default: uncapped)",
    ),
    _Flag(
        "--fault-spec",
        "network.faults",
        "faults",
        show=lambda faults: fault_config_summary(faults) if faults.enabled else None,
        type=_fault_spec,
        metavar="SPEC",
        help=(
            "chaos profile as JSON or inline DSL, e.g. "
            "'peer-crash:rate=0.05,downtime=2;orderer-outage:start=5,duration=3' "
            "(kinds: peer-crash, endorser-slowdown, orderer-outage, partition, "
            "endorsement-loss, endorsement-timeout)"
        ),
    ),
)

#: ``run``'s and ``sweep``'s sampler tick; not part of the ``--json`` echo.
_SAMPLE_INTERVAL = _Flag(
    "--sample-interval",
    "network.observability.sample_interval",
    None,
    type=_finite_float("sample interval"),
    help="sim-time sampling interval in seconds for --metrics-out (default 0.25)",
)


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
    run_parser.set_defaults(handler=_command_run)
    _add_experiment_arguments(run_parser)
    _add_observer_arguments(run_parser)
    run_parser.add_argument(
        "--history-out",
        metavar="FILE",
        help="write the committed history as JSON for 'repro check' (implies --check-isolation)",
    )

    compare_parser = subparsers.add_parser(
        "compare", help="compare Fabric variants on the same workload"
    )
    compare_parser.set_defaults(handler=_command_compare)
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
    sweep_parser.set_defaults(handler=_command_sweep)
    _add_experiment_arguments(sweep_parser)
    _add_observer_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--variants",
        nargs="*",
        type=_choice("variant", available_variants()),
        help="sweep over these Fabric variants (default: just --variant)",
    )
    sweep_parser.add_argument(
        "--block-sizes",
        nargs="*",
        type=int,
        help="sweep over these block sizes (default: just --block-size)",
    )
    sweep_parser.add_argument(
        "--rates",
        nargs="*",
        type=_finite_float("rate"),
        help="sweep over these arrival rates in tps (default: just --rate)",
    )
    sweep_parser.add_argument(
        "--skews",
        nargs="*",
        type=_finite_float("skew"),
        help="sweep over these Zipfian skews (default: just --skew)",
    )
    sweep_parser.add_argument(
        "--workers",
        type=int,
        default=inspect.signature(ExperimentRunner).parameters["workers"].default,
        help="worker processes for the grid (default %(default)s)",
    )
    sweep_parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    sweep_parser.add_argument(
        "--cache-dir", help="persist cached results in this directory (reused by later sweeps)"
    )

    trace_parser = subparsers.add_parser("trace", help="inspect exported trace files")
    trace_parser.set_defaults(handler=_command_trace)
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
    check_parser.set_defaults(handler=_command_check)
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
        default=CheckerConfig.witness_limit,
        help="anomaly witnesses to retain per channel (default %(default)s)",
    )
    check_parser.add_argument(
        "--json",
        action="store_true",
        help="print the report as a machine-readable JSON document",
    )

    figure_parser = subparsers.add_parser("figure", help="regenerate paper tables and figures")
    figure_parser.set_defaults(handler=_command_figure)
    figure_parser.add_argument(
        "artefacts",
        nargs="+",
        type=_choice("figure id", [*EXPERIMENTS, "all"]),
        help="artefact ids, e.g. fig7 table4, or 'all' for every one in catalog order",
    )
    figure_parser.add_argument(
        "--scale", choices=sorted(SCALES), default="quick", help="experiment scale"
    )
    return parser


def _add_experiment_arguments(parser: argparse.ArgumentParser) -> None:
    for flag in _EXPERIMENT_FLAGS:
        flag.add_to(parser)
    parser.add_argument(
        "--json",
        action="store_true",
        help="print one machine-readable JSON document instead of text tables",
    )


def _add_observer_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write a Chrome trace-event JSON (Perfetto-loadable) of the run",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write the metrics registry summary and sampled sim-time series as JSON",
    )
    _SAMPLE_INTERVAL.add_to(parser)
    parser.add_argument(
        "--check-isolation",
        action="store_true",
        help=(
            "certify every channel's committed history online (serializability "
            "and snapshot isolation, with anomaly witnesses on refutation)"
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


def _observers(args: argparse.Namespace, checking: bool) -> dict:
    """The observability and checker fields ``run`` and ``sweep`` set, by dotted path.

    Neither is part of a cell's identity, so neither moves a cell hash.
    """
    for path, option in ((args.trace_out, "--trace-out"), (args.metrics_out, "--metrics-out")):
        if path is not None:
            _ensure_writable(path, option)
    return {
        "network.observability.trace": args.trace_out is not None,
        "network.observability.metrics": args.metrics_out is not None,
        "network.checker.enabled": checking,
    }


def _experiment_config(
    args: argparse.Namespace, observers: Optional[dict] = None
) -> ExperimentConfig:
    """The configuration the flags given describe; every other field keeps its default."""
    given = vars(args)
    values = {
        flag.field: flag.build(given[flag.dest])
        for flag in (*_EXPERIMENT_FLAGS, _SAMPLE_INTERVAL)
        if flag.dest in given
    }
    if "network.retry.backoff" in values:
        # An unset cap follows the backoff up past its default; a given one is used as given.
        values.setdefault(
            "network.retry.max_backoff",
            max(values["network.retry.backoff"], RetryConfig.max_backoff),
        )
    values.update(observers or {})
    return _build(ExperimentConfig, values)


def _build(cls, values: dict):
    """``cls`` with the fields ``values`` names by dotted path set, the rest at their defaults.

    A nested config is built the same way, from the class its field's
    ``default_factory`` names.
    """
    fields, nested = {}, {}
    for path, value in values.items():
        name, _, rest = path.partition(".")
        if rest:
            nested.setdefault(name, {})[rest] = value
        else:
            fields[name] = value
    factories = {field.name: field.default_factory for field in dataclasses.fields(cls)}
    for name, inner in nested.items():
        fields[name] = _build(factories[name], inner)
    return cls(**fields)


# --------------------------------------------------------------------- JSON
def _config_summary(config: ExperimentConfig) -> dict:
    """The experiment configuration as JSON-serializable data."""
    summary = {"workload": config.workload.name}
    for flag in _EXPERIMENT_FLAGS:
        summary[flag.echo] = flag.show(functools.reduce(getattr, flag.field.split("."), config))
    return summary


def _analysis_summary(analysis: ExperimentAnalysis) -> dict:
    """One analysis (metrics + failure breakdown + per-channel records)."""
    metrics = analysis.metrics
    summary = {
        "submitted_transactions": metrics.submitted_transactions,
        "committed_transactions": metrics.committed_transactions,
        "latency_s": metrics.average_latency,
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
                **dict(zip(_CHANNEL_HEADERS, _channel_row(channel))),
                "failures": channel.failure_report.as_dict(),
            }
            for channel in analysis.channel_analyses
        ]
    return summary


#: The per-channel numbers of ``repro run``, one name each in its table and its JSON.
_CHANNEL_HEADERS = (
    "channel",
    "submitted_transactions",
    "committed_throughput_tps",
    "failures_pct",
    "cross_channel_submitted",
    "cross_channel_aborted",
)


def _channel_row(channel: ChannelAnalysis) -> tuple:
    """One channel's numbers, in :data:`_CHANNEL_HEADERS` order."""
    return (
        channel.name,
        channel.metrics.submitted_transactions,
        channel.metrics.committed_throughput,
        channel.failure_report.total_failure_pct,
        channel.cross_channel_submitted,
        channel.cross_channel_aborted,
    )


#: The columns of ``repro compare``, in its table and its ``--json`` variants.
_COMPARE_HEADERS = (
    "variant",
    "latency_s",
    "endorsement_policy_pct",
    "mvcc_pct",
    "failures_pct",
    "committed_throughput_tps",
)


def _cell_summary(result: ExperimentResult, headers: Sequence[str]) -> dict:
    """A compare or sweep cell for ``--json``: its columns, then the failure
    breakdown, averaged over the repetitions like the columns are."""
    breakdown = {failure.value: result.value(pct_column(failure)) for failure in FailureType}
    breakdown["total"] = result.value("failures_pct")
    return {**{header: result.value(header) for header in headers}, "failures": breakdown}


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
    observers = _observers(args, checking=args.check_isolation or args.history_out is not None)
    if args.history_out is not None:
        _ensure_writable(args.history_out, "--history-out")
    config = _experiment_config(args, observers)
    result = run_experiment(config, record_chain=args.history_out is not None)
    analysis = result.analyses[0]
    # With repetitions > 1 every repetition is traced identically configured;
    # the exports cover the first repetition (the others differ only by seed).
    export_notices = _export_observability(args, analysis)
    if args.history_out is not None:
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
                    ("history", args.history_out),
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
        (failure.label, report.pct(failure))
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
        channel_rows = [_channel_row(channel) for channel in analysis.channel_analyses]
        print()
        print(format_table(_CHANNEL_HEADERS, channel_rows, title="Per-channel breakdown"))
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
    base = _experiment_config(args)
    outcome = ExperimentRunner().run_sweep(SweepPlan(base, variants=args.variants))
    if args.json:
        _print_json(
            {
                "command": "compare",
                # The cells differ only in their variant; the echo names the first.
                "config": _config_summary(outcome.cells[0].config),
                "variants": [_cell_summary(result, _COMPARE_HEADERS) for result in outcome.results],
            }
        )
        return 0
    rows = [
        tuple(result.value(header) for header in _COMPARE_HEADERS) for result in outcome.results
    ]
    title = (
        f"Variant comparison ({base.workload.chaincode}, {base.arrival_rate:.0f} tps, "
        f"{base.network.cluster})"
    )
    print(format_table(_COMPARE_HEADERS, rows, title=title))
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ConfigurationError(f"--workers must be >= 1, got {args.workers}")
    exporting = args.trace_out is not None or args.metrics_out is not None
    checking = args.check_isolation
    plan = SweepPlan(
        base=_experiment_config(args, _observers(args, checking)),
        variants=args.variants,
        block_sizes=args.block_sizes,
        arrival_rates=args.rates,
        zipf_skews=args.skews,
    )
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
            (cell.label, result.analyses[0].record.observability)
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
                        **_cell_summary(result, SWEEP_HEADERS),
                        **(
                            {"isolation": result.analyses[0].record.isolation.summary()}
                            if result.analyses[0].record.isolation is not None
                            else {}
                        ),
                    }
                    for result in outcome.results
                ],
                "runner_stats": runner_stats,
            }
        )
        return 0
    title = (
        f"Sweep: {len(outcome.cells)} cell(s) x {plan.base.repetitions} repetition(s) "
        f"({plan.base.workload.chaincode}, {plan.base.network.cluster})"
    )
    print(format_table(SWEEP_HEADERS, outcome.rows(), title=title))
    if checking:
        verdict_rows = [
            (
                cell.label,
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
    # One batch over every core: a cell that several grids share runs once,
    # and the tables print in the order asked for.
    ids = [
        name
        for artefact in args.artefacts
        for name in (EXPERIMENTS if artefact == "all" else (artefact,))
    ]
    for report in regenerate(ids, SCALES[args.scale], ExperimentRunner(workers=None)):
        print(format_table(report.headers, report.rows, title=report.title))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
