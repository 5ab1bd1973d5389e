"""Experiment harness: configure, run, repeat and average experiments.

An :class:`ExperimentConfig` bundles the control variables of Table 3 — the
Fabric variant, the workload (chaincode + transaction mix), the network
configuration, the arrival rate, the Zipfian skew — together with the simulated
duration, the number of repetitions and the seed.  ``run_experiment`` executes
the repetitions and returns an :class:`ExperimentResult` whose properties
average the metrics the same way the paper averages its three repetitions.

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
import functools
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from operator import attrgetter, methodcaller
from typing import Callable, Dict, List, Optional

from repro.sim.collector import quiet_collector
from repro.sim.rng import derive_seed

from repro.chaincode import CHAINCODE_REGISTRY, create_chaincode
from repro.chaincode.base import Chaincode
from repro.core.analyzer import ExperimentAnalysis, LedgerAnalyzer
from repro.core.metrics import ExperimentMetrics
from repro.errors import ConfigurationError
from repro.lifecycle.pipeline import build_network
from repro.network.config import NetworkConfig
from repro.workload.distributions import make_distribution
from repro.workload.spec import WorkloadSpec
from repro.workload.workloads import uniform_workload


def default_workload() -> WorkloadSpec:
    """The Table 3 default workload: a uniform mix over the EHR chaincode."""
    return uniform_workload("EHR")


@dataclass
class ExperimentConfig:
    """One experiment: variant + workload + network + load (paper Table 3)."""

    variant: str = "fabric-1.4"
    workload: WorkloadSpec = field(default_factory=default_workload)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    arrival_rate: float = 100.0
    duration: float = 20.0
    zipf_skew: float = 1.0
    repetitions: int = 1
    seed: int = 7
    chaincode_factory: Optional[Callable[[], Chaincode]] = None

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
        if self.repetitions < 1:
            raise ConfigurationError(f"need at least one repetition, got {self.repetitions}")
        if not 0 <= self.zipf_skew < math.inf:
            raise ConfigurationError(
                f"the Zipfian skew must be >= 0 and finite, got {self.zipf_skew}"
            )
        if self.chaincode_factory is None and self.workload.chaincode not in CHAINCODE_REGISTRY:
            known = ", ".join(sorted(CHAINCODE_REGISTRY))
            raise ConfigurationError(
                f"workload chaincode {self.workload.chaincode!r} is not registered "
                f"({known}); pass chaincode_factory for custom chaincodes"
            )

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """A copy of the configuration with the given fields replaced."""
        return replace(self, **overrides)

    def build_chaincode(self) -> Chaincode:
        """Instantiate a fresh chaincode for one repetition."""
        if self.chaincode_factory is not None:
            return self.chaincode_factory()
        return create_chaincode(self.workload.chaincode, **self.workload.chaincode_kwargs)

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
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


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
    if callable(value):
        return _canonical_callable(value)
    return value


def _canonical_callable(value):
    """Canonicalize a callable (``chaincode_factory``) for hashing.

    A module-level function reduces to its import path, which is stable across
    processes — the form to prefer for factories that should hit the disk
    cache across runs.  Lambdas and closures additionally hash their bytecode,
    constants, defaults and captured cell values, so two closures created by
    the same code over different data do not collide.  Callables without
    code objects (e.g. callable instances) fall back to ``repr`` and may hash
    differently in every process, which disables cross-run caching for them
    but never causes a false cache hit within a run.  A bound method hashes
    what it is bound to as well — as data when that is a dataclass or declares
    an ``identity()``, by ``repr`` otherwise.
    """
    if isinstance(value, functools.partial):
        return [
            "partial",
            _canonical_callable(value.func),
            [_canonical(argument) for argument in value.args],
            {key: _canonical(item) for key, item in sorted(value.keywords.items())},
        ]
    qualname = getattr(value, "__qualname__", None)
    if qualname is None:
        return repr(value)
    parts = [getattr(value, "__module__", "?"), qualname]
    code = getattr(value, "__code__", None)
    if code is not None:
        parts.append(hashlib.sha256(code.co_code).hexdigest())
        parts.append(_constant_repr(code.co_consts))
        defaults = getattr(value, "__defaults__", None)
        if defaults:
            parts.append([repr(item) for item in defaults])
        closure = getattr(value, "__closure__", None)
        if closure:
            parts.append([repr(cell.cell_contents) for cell in closure])
    owner = getattr(value, "__self__", None)
    if owner is not None and not isinstance(owner, type) and hasattr(owner, "identity"):
        parts.append(_canonical(owner.identity()))
    elif owner is not None:
        parts.append(_canonical(owner) if dataclasses.is_dataclass(owner) else repr(owner))
    return parts


def _constant_repr(constant) -> str:
    """``repr`` of a code constant, but the same in every process: a frozenset
    prints in hash-seed order and a nested code object prints its address."""
    if isinstance(constant, tuple):
        items = ", ".join(_constant_repr(item) for item in constant)
        return f"({items},)" if len(constant) == 1 else f"({items})"
    if isinstance(constant, frozenset):
        return "frozenset({" + ", ".join(sorted(_constant_repr(item) for item in constant)) + "})"
    if hasattr(constant, "co_code"):
        digest = hashlib.sha256(constant.co_code).hexdigest()
        return _constant_repr((constant.co_name, digest, constant.co_consts))
    return repr(constant)


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
    """The repetitions of one experiment plus averaged convenience accessors."""

    config: ExperimentConfig
    analyses: List[ExperimentAnalysis] = field(default_factory=list)

    @property
    def metrics(self) -> List[ExperimentMetrics]:
        """Metrics of every repetition."""
        return [analysis.metrics for analysis in self.analyses]

    def _mean(self, getter: Callable[[ExperimentMetrics], float]) -> float:
        values = [getter(metric) for metric in self.metrics]
        if not values:
            return 0.0
        return sum(values) / len(values)

    @property
    def failure_pct(self) -> float:
        """Average total transaction failure percentage."""
        return self._mean(lambda metric: metric.failure_pct)

    @property
    def endorsement_pct(self) -> float:
        """Average endorsement policy failure percentage."""
        return self._mean(lambda metric: metric.failure_report.endorsement_pct)

    @property
    def mvcc_pct(self) -> float:
        """Average MVCC read conflict percentage (intra + inter)."""
        return self._mean(lambda metric: metric.failure_report.mvcc_pct)

    @property
    def intra_block_mvcc_pct(self) -> float:
        """Average intra-block MVCC read conflict percentage."""
        return self._mean(lambda metric: metric.failure_report.intra_block_mvcc_pct)

    @property
    def inter_block_mvcc_pct(self) -> float:
        """Average inter-block MVCC read conflict percentage."""
        return self._mean(lambda metric: metric.failure_report.inter_block_mvcc_pct)

    @property
    def phantom_pct(self) -> float:
        """Average phantom read conflict percentage."""
        return self._mean(lambda metric: metric.failure_report.phantom_pct)

    @property
    def early_abort_pct(self) -> float:
        """Average percentage of transactions aborted before/during ordering."""
        return self._mean(lambda metric: metric.failure_report.early_abort_pct)

    @property
    def cross_channel_abort_pct(self) -> float:
        """Average percentage of cross-channel transactions aborted in 2PC prepare."""
        return self._mean(lambda metric: metric.failure_report.cross_channel_abort_pct)

    @property
    def endorsement_timeout_pct(self) -> float:
        """Average percentage of endorsement-collection timeouts (fault injection)."""
        return self._mean(lambda metric: metric.failure_report.endorsement_timeout_pct)

    @property
    def orderer_unavailable_pct(self) -> float:
        """Average percentage of submissions refused during orderer outages."""
        return self._mean(lambda metric: metric.failure_report.orderer_unavailable_pct)

    @property
    def peer_unavailable_pct(self) -> float:
        """Average percentage of proposals that failed fast on down peers."""
        return self._mean(lambda metric: metric.failure_report.peer_unavailable_pct)

    @property
    def infrastructure_pct(self) -> float:
        """Average percentage of all fault-induced failures."""
        return self._mean(lambda metric: metric.failure_report.infrastructure_pct)

    @property
    def average_latency(self) -> float:
        """Average total transaction latency in seconds."""
        return self._mean(lambda metric: metric.average_latency)

    @property
    def committed_throughput(self) -> float:
        """Average committed transaction throughput in tps."""
        return self._mean(lambda metric: metric.committed_throughput)

    @property
    def submitted_transactions(self) -> int:
        """Total transactions submitted across repetitions."""
        return sum(metric.submitted_transactions for metric in self.metrics)

    @property
    def client_effective_failure_pct(self) -> float:
        """Average percentage of logical requests that never committed."""
        return self._mean(lambda metric: metric.client_effective_failure_pct)

    @property
    def goodput(self) -> float:
        """Average committed logical requests per second."""
        return self._mean(lambda metric: metric.goodput)

    @property
    def retry_amplification(self) -> float:
        """Average submitted attempts per logical request (1.0 = no retries)."""
        return self._mean(lambda metric: metric.retry_amplification)

    @property
    def resubmissions(self) -> int:
        """Total client resubmissions across repetitions."""
        return sum(metric.resubmissions for metric in self.metrics)

    @property
    def retry_rate_denied(self) -> int:
        """Total resubmissions the global rate cap refused across repetitions."""
        return sum(metric.retry_rate_denied for metric in self.metrics)

    @property
    def logical_requests(self) -> float:
        """Average number of logical client requests (retries not counted)."""
        return self._mean(lambda metric: metric.logical_requests)

    @property
    def committed_requests(self) -> float:
        """Average number of logical client requests that ended up committing."""
        return self._mean(lambda metric: metric.committed_requests)

    def mean_function_latency_ms(self, operation: str) -> float:
        """Average per-call latency of a state-database operation (Table 4)."""
        values = [
            metric.function_call_latency_ms[operation]
            for metric in self.metrics
            if operation in metric.function_call_latency_ms
        ]
        if not values:
            return 0.0
        return sum(values) / len(values)


#: Report column header -> how its value is read off an :class:`ExperimentResult`.
#: The one mapping behind every experiment table (:mod:`repro.bench.experiments`)
#: and the ``repro sweep`` table (:meth:`repro.bench.runner.SweepOutcome.rows`);
#: several headers read the same value because the figures label it differently.
RESULT_COLUMNS: Dict[str, Callable[[ExperimentResult], object]] = {
    "variant": attrgetter("config.variant"),
    "block_size": attrgetter("config.network.block_size"),
    "arrival_rate": attrgetter("config.arrival_rate"),
    "zipf_skew": attrgetter("config.zipf_skew"),
    "placement": attrgetter("config.network.placement"),
    "failures_pct": attrgetter("failure_pct"),
    "raw_failure_pct": attrgetter("failure_pct"),
    "endorsement_pct": attrgetter("endorsement_pct"),
    "endorsement_failures_pct": attrgetter("endorsement_pct"),
    "mvcc_pct": attrgetter("mvcc_pct"),
    "total_mvcc_pct": attrgetter("mvcc_pct"),
    "inter_block_pct": attrgetter("inter_block_mvcc_pct"),
    "intra_block_pct": attrgetter("intra_block_mvcc_pct"),
    "phantom_read_pct": attrgetter("phantom_pct"),
    "cross_channel_abort_pct": attrgetter("cross_channel_abort_pct"),
    "peer_unavailable_pct": attrgetter("peer_unavailable_pct"),
    "endorsement_timeout_pct": attrgetter("endorsement_timeout_pct"),
    "latency_s": attrgetter("average_latency"),
    "committed_throughput_tps": attrgetter("committed_throughput"),
    "committed_tps": attrgetter("committed_throughput"),
    "client_effective_failure_pct": attrgetter("client_effective_failure_pct"),
    "goodput_tps": attrgetter("goodput"),
    "retry_amplification": attrgetter("retry_amplification"),
    "resubmissions": attrgetter("resubmissions"),
    "rate_denied": attrgetter("retry_rate_denied"),
    "logical_requests": attrgetter("logical_requests"),
    "committed_requests": attrgetter("committed_requests"),
    "GetState_ms": methodcaller("mean_function_latency_ms", "GetState"),
    "PutState_ms": methodcaller("mean_function_latency_ms", "PutState"),
    "GetRange_ms": methodcaller("mean_function_latency_ms", "GetRange"),
    "DeleteState_ms": methodcaller("mean_function_latency_ms", "DeleteState"),
}


@quiet_collector()
def run_repetition(
    config: ExperimentConfig, repetition: int, cell_hash: Optional[str] = None
) -> ExperimentAnalysis:
    """Run one repetition of ``config`` and analyze its ledger.

    The repetition is self-contained: it builds a fresh chaincode, variant and
    network seeded with :func:`repetition_seed`, so it produces the same
    analysis no matter where or in which order it executes.  This is the unit
    of work the parallel runner ships to worker processes.

    The deployment comes from the shared build path
    (:func:`repro.lifecycle.pipeline.build_network`): always a
    :class:`~repro.channels.network.MultiChannelNetwork` — one Fabric slice
    per channel, executed by the plan ``network`` selects; a single-channel
    configuration is its one-channel shared-clock plan.

    Build, run and ledger analysis share one collector scope
    (:func:`repro.sim.collector.quiet_collector`): the analysis walks the same
    retained, acyclic records the run produced.
    """
    seed = repetition_seed(config, repetition, cell_hash=cell_hash)
    network = build_network(
        config=config.network,
        chaincode_factory=config.build_chaincode,
        variant_factory=config.variant,
        seed=seed,
    )
    record = network.run(
        mix=config.workload.mix,
        arrival_rate=config.arrival_rate,
        duration=config.duration,
        key_distribution=make_distribution(config.zipf_skew),
        workload_name=config.workload.name,
    )
    return LedgerAnalyzer().analyze(record)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all repetitions of an experiment and analyze each run's ledger."""
    config.validate()
    cell_hash = config.cell_hash()
    analyses: List[ExperimentAnalysis] = [
        run_repetition(config, repetition, cell_hash=cell_hash)
        for repetition in range(config.repetitions)
    ]
    return ExperimentResult(config=config, analyses=analyses)
