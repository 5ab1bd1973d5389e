"""Experiment harness: configure, run, repeat and average experiments.

An :class:`ExperimentConfig` bundles the control variables of Table 3 — the
Fabric variant, the workload (chaincode + transaction mix), the network
configuration, the arrival rate, the Zipfian skew — together with the simulated
duration, the number of repetitions and the seed.  ``run_experiment`` executes
the repetitions and returns an :class:`ExperimentResult`, whose reported
numbers (:data:`RESULT_COLUMNS`) average the metrics the same way the paper
averages its three repetitions.

Seeding: repetition ``k`` of a configuration draws from a RNG stream family
seeded with ``repetition_seed(config, k)`` — a hash of the configuration's
content hash and the repetition index.  Two different configurations therefore
never share a stream (a plain ``config.seed + k`` scheme collides for adjacent
seeds), and a repetition's result depends only on ``(config, k)``, not on the
order or process in which it runs.  That is the invariant that lets
:mod:`repro.bench.runner` fan repetitions out across worker processes and still
produce results bit-identical to serial execution.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import inspect
import json
import math
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Callable, Dict, List, Optional

from repro.sim.collector import quiet_collector
from repro.sim.rng import derive_seed
from repro.sim.stats import mean

from repro.chaincode import CHAINCODE_REGISTRY
from repro.chaincode.generator import GeneratedChaincode
from repro.core.analyzer import ExperimentAnalysis, LedgerAnalyzer
from repro.core.failures import MVCC, FailureType
from repro.core.metrics import ExperimentMetrics
from repro.errors import ConfigurationError
from repro.fabric.variant import variant_key
from repro.lifecycle.pipeline import build_network
from repro.network.config import DatabaseType, NetworkConfig
from repro.workload.distributions import make_distribution
from repro.workload.spec import WorkloadSpec
from repro.workload.workloads import uniform_workload


def default_workload() -> WorkloadSpec:
    """The Table 3 default workload: a uniform mix over the EHR chaincode."""
    return uniform_workload("EHR")


@dataclass
class ExperimentConfig:
    """One experiment: variant + workload + network + load (paper Table 3).

    Every field is data, the chaincode a registry name plus ``chaincode_kwargs``.
    """

    variant: str = "fabric-1.4"
    workload: WorkloadSpec = field(default_factory=default_workload)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    arrival_rate: float = 100.0
    duration: float = 20.0
    zipf_skew: float = 1.0
    repetitions: int = 1
    seed: int = 7

    def validate(self) -> None:
        """Reject configurations the harness cannot run.

        Every bound is written so that NaN fails it (``nan <= 0`` is false):
        a NaN rate schedules nothing and reports a row of zeros, an infinite
        one schedules arrivals forever.
        """
        if not 0 < self.arrival_rate < math.inf:
            raise ConfigurationError(
                f"arrival rate must be positive and finite, got {self.arrival_rate}"
            )
        if not 0 < self.duration < math.inf:
            raise ConfigurationError(f"duration must be positive and finite, got {self.duration}")
        if type(self.repetitions) is not int or self.repetitions < 1:  # rejects 1.5 and True too
            raise ConfigurationError(
                f"repetitions must be a whole number >= 1, got {self.repetitions!r}"
            )
        if not 0 <= self.zipf_skew < math.inf:
            raise ConfigurationError(
                f"the Zipfian skew must be >= 0 and finite, got {self.zipf_skew}"
            )
        variant_key(self.variant)
        _check_chaincode(self.workload)
        _check_rich_queries(self.workload, self.network)

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """A copy of the configuration with the given fields replaced."""
        return replace(self, **overrides)

    def cell_hash(self) -> str:
        """Stable content hash of this configuration, excluding ``repetitions``.

        Two configurations hash equally exactly when they describe the same
        experiment *cell* — same variant, workload, network, load and seed.
        The repetition count is excluded so that raising ``repetitions`` keeps
        the identity (and cached results) of the repetitions already run.  The
        hash keys the runner's result cache and seeds the per-repetition RNG
        streams (see :func:`repetition_seed`).
        """
        payload = {
            name: _canonical(getattr(self, name))
            for name in sorted(field.name for field in dataclasses.fields(self))
            if name != "repetitions"
        }
        # Seeds derive from this hash, so its payload is frozen: the retired
        # field that once held a chaincode callable stays, always null.
        payload["chaincode_factory"] = None
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_chaincode(workload: WorkloadSpec) -> None:
    """The chaincode is registered, its constructor takes ``chaincode_kwargs``,
    and each of them is data the cell hash can write — checked here, not at
    build time in a pool worker."""
    if workload.chaincode not in CHAINCODE_REGISTRY:
        known = ", ".join(sorted(CHAINCODE_REGISTRY))
        raise ConfigurationError(
            f"workload chaincode {workload.chaincode!r} is not registered ({known})"
        )
    for key, value in workload.chaincode_kwargs.items():
        try:
            json.dumps(_canonical(value))
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"workload.chaincode_kwargs[{key!r}] must be data (numbers, strings, lists, "
                f"dicts, dataclasses), got {value!r}"
            ) from None
    try:
        inspect.signature(CHAINCODE_REGISTRY[workload.chaincode]).bind(**workload.chaincode_kwargs)
    except TypeError as exc:
        raise ConfigurationError(
            f"workload.chaincode_kwargs do not fit chaincode {workload.chaincode!r}: {exc}"
        ) from None


def _check_rich_queries(workload: WorkloadSpec, network: NetworkConfig) -> None:
    """A generated chaincode whose drawn functions run rich queries needs a
    CouchDB network: on any other database the first such call fails the run
    in the middle of the simulation."""
    if not issubclass(CHAINCODE_REGISTRY[workload.chaincode], GeneratedChaincode):
        return
    rich = [
        spec.name
        for spec in workload.chaincode_kwargs.get("functions", ())
        if getattr(spec, "rich_queries", 0) and workload.mix.probability(spec.name) > 0
    ]
    database = DatabaseType.parse(network.database)
    if rich and database is not DatabaseType.COUCHDB:
        generated_for = workload.chaincode_kwargs.get("database", "leveldb")
        raise ConfigurationError(
            f"functions {', '.join(rich)} of workload.chaincode_kwargs['database'] = "
            f"{generated_for!r} run rich queries, which need network.database = 'couchdb', "
            f"got {database.value!r}"
        )


def _canonical(value):
    """Reduce ``value`` to JSON-serializable data with a stable ordering.

    A config that declares its own identity — an ``identity()`` method, as
    the retry, fault, observability, checker and execution configs have —
    contributes that payload in place of its fields, and is omitted from the
    enclosing payload altogether when it answers ``None``: a subsystem that
    is off, or one that never influences the simulation, must not move the
    cell hash (and with it the per-repetition seeds and every cached result).
    Why each config answers what it does is documented on its ``identity``.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        payload = {}
        for field in dataclasses.fields(value):
            item = getattr(value, field.name)
            identity = getattr(item, "identity", None)
            if identity is not None:
                item = identity()
                if item is None:
                    continue
            payload[field.name] = _canonical(item)
        return payload
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in sorted(value.items(), key=lambda pair: str(pair[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def repetition_seed(config: ExperimentConfig, repetition: int, cell_hash: Optional[str] = None) -> int:
    """The RNG seed of repetition ``repetition`` of ``config``.

    Derived by hashing ``(cell_hash, repetition)`` so the seed is the same
    whether the repetition runs serially, in a worker process, or out of
    order — and never collides with any repetition of a different
    configuration.  ``cell_hash`` may be passed in to avoid recomputing it.
    """
    return derive_seed("repetition", cell_hash or config.cell_hash(), repetition)


@dataclass
class ExperimentResult:
    """The repetitions of one experiment; its numbers are :data:`RESULT_COLUMNS`."""

    config: ExperimentConfig
    analyses: List[ExperimentAnalysis] = field(default_factory=list)

    @property
    def metrics(self) -> List[ExperimentMetrics]:
        """Metrics of every repetition."""
        return [analysis.metrics for analysis in self.analyses]

    def value(self, column: str) -> object:
        """The number this cell reports under the header ``column``."""
        return RESULT_COLUMNS[column](self)


def _mean(read: Callable[[ExperimentMetrics], float]) -> Callable[[ExperimentResult], float]:
    """A column averaged over the repetitions, as the paper averages its three runs."""
    return lambda result: mean(read(metric) for metric in result.metrics)


def _total(read: Callable[[ExperimentMetrics], int]) -> Callable[[ExperimentResult], int]:
    """A count column, summed over the repetitions."""
    return lambda result: sum(read(metric) for metric in result.metrics)


def _call_latency_ms(operation: str) -> Callable[[ExperimentResult], float]:
    """Mean latency of one state-database call type (Table 4), averaged over
    the repetitions that made such a call."""
    return lambda result: mean(
        metric.function_call_latency_ms[operation]
        for metric in result.metrics
        if operation in metric.function_call_latency_ms
    )


def pct_column(failure: FailureType) -> str:
    """The header of a failure class's percentage: ``<class name>_pct``."""
    return f"{failure.name.lower()}_pct"


def _class_pct(failure: FailureType) -> Callable[[ExperimentMetrics], float]:
    """The percentage of one failure class in a repetition's failure report."""
    return lambda metric: metric.failure_report.pct(failure)


#: Report column header -> how its value is read off an :class:`ExperimentResult`.
#: The one mapping behind every experiment table (:mod:`repro.bench.experiments`),
#: the ``repro sweep`` and ``repro compare`` tables and their ``--json`` cells.
#: Each reported number has exactly one header; the failure classes' headers
#: are generated from :class:`~repro.core.failures.FailureType` (:func:`pct_column`).
RESULT_COLUMNS: Dict[str, Callable[[ExperimentResult], object]] = {
    "variant": attrgetter("config.variant"),
    "block_size": attrgetter("config.network.block_size"),
    "arrival_rate": attrgetter("config.arrival_rate"),
    "zipf_skew": attrgetter("config.zipf_skew"),
    "placement": attrgetter("config.network.placement"),
    "submitted_transactions": _total(attrgetter("submitted_transactions")),
    "failures_pct": _mean(lambda metric: metric.failure_report.total_failure_pct),
    **{pct_column(failure): _mean(_class_pct(failure)) for failure in FailureType},
    "mvcc_pct": _mean(lambda metric: metric.failure_report.pct(*MVCC)),
    "latency_s": _mean(attrgetter("average_latency")),
    "committed_throughput_tps": _mean(attrgetter("committed_throughput")),
    "client_effective_failure_pct": _mean(attrgetter("client_effective_failure_pct")),
    "goodput_tps": _mean(attrgetter("goodput")),
    "retry_amplification": _mean(attrgetter("retry_amplification")),
    "resubmissions": _total(attrgetter("resubmissions")),
    "rate_denied": _total(attrgetter("retry_rate_denied")),
    "logical_requests": _mean(attrgetter("logical_requests")),
    "committed_requests": _mean(attrgetter("committed_requests")),
    **{
        f"{operation}_ms": _call_latency_ms(operation)
        for operation in ("GetState", "PutState", "GetRange", "DeleteState")
    },
}


@quiet_collector()
def run_repetition(
    config: ExperimentConfig,
    repetition: int,
    cell_hash: Optional[str] = None,
    record_chain: bool = False,
) -> ExperimentAnalysis:
    """Run one repetition of ``config`` and analyze it.

    The repetition is self-contained: it builds a fresh chaincode, variant and
    network seeded with :func:`repetition_seed`, so it produces the same
    analysis no matter where or in which order it executes.  This is the unit
    of work the parallel runner ships to worker processes.

    The deployment comes from the shared build path
    (:func:`repro.lifecycle.pipeline.build_network`): always a
    :class:`~repro.channels.network.MultiChannelNetwork` — one Fabric slice
    per channel, executed by the plan ``network`` selects; a single-channel
    configuration is its one-channel shared-clock plan.

    The run keeps no transaction it is done with: its metrics come from each
    channel's tally.  ``record_chain`` keeps the chain as well — every block
    and attempt, on ``analysis.record`` — for a consumer that reads it (the
    committed-history export, the fingerprint, the test oracles); a recorded
    run is one group on the shared clock.
    """
    seed = repetition_seed(config, repetition, cell_hash=cell_hash)
    network = build_network(
        config.network,
        config.workload.chaincode,
        config.variant,
        chaincode_kwargs=config.workload.chaincode_kwargs,
        seed=seed,
        record_chain=record_chain,
    )
    record = network.run(
        mix=config.workload.mix,
        arrival_rate=config.arrival_rate,
        duration=config.duration,
        key_distribution=make_distribution(config.zipf_skew),
        workload_name=config.workload.name,
    )
    return LedgerAnalyzer().analyze(record)


def run_experiment(config: ExperimentConfig, record_chain: bool = False) -> ExperimentResult:
    """Run all repetitions of an experiment and analyze each run.

    ``record_chain`` keeps every repetition's chain (see :func:`run_repetition`).
    """
    config.validate()
    cell_hash = config.cell_hash()
    analyses: List[ExperimentAnalysis] = [
        run_repetition(config, repetition, cell_hash=cell_hash, record_chain=record_chain)
        for repetition in range(config.repetitions)
    ]
    return ExperimentResult(config=config, analyses=analyses)
