"""The per-run observer: span tracer + metrics registry + sampler + markers.

One :class:`RunObserver` observes a whole run on one simulator clock: an
observed deployment is one :class:`~repro.channels.group.ChannelGroup`, the
observer's only constructor (:func:`~repro.channels.network.plan_groups`
never shards it), so nothing it reports is merged.  It is only constructed
when :class:`~repro.observability.config.ObservabilityConfig` is enabled;
without it no bus handler, sampler event or profiler exists and the run is
bit-identical to a build without this package.

Everything the observer does is read-only with respect to the simulation: bus
callbacks record, sampler ticks read, the fault hook appends a marker.  No
RNG stream is ever drawn and no transaction is mutated, which is what lets
the golden-record determinism test pass *with tracing enabled*.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.failures import failure_type_of
from repro.ledger.block import Transaction
from repro.lifecycle.events import LifecycleBus, LifecycleEventType
from repro.observability.config import ObservabilityConfig
from repro.observability.registry import MetricsRegistry, TimeSeriesSampler
from repro.observability.spans import CutTime, SpanNode, SpanTracer
from repro.sim.engine import Simulator
from repro.sim.profile import EngineProfiler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.controller import FaultController
    from repro.faults.schedule import FaultInjection


@dataclass
class ObservabilityData:
    """Everything one observed run exports — plain, picklable data.

    ``spans`` holds each attempt's tree as the tracer built it when the
    attempt ended: spans only, no transaction, and every ``args`` mapping two
    spans share is read-only.  Rides on
    :attr:`repro.network.network.RunRecord.observability`, so it travels
    through the parallel runner and the result cache like any other run
    artifact.
    """

    spans: List[SpanNode] = field(default_factory=list)
    samples: List[Dict[str, float]] = field(default_factory=list)
    markers: List[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)


class RunObserver:
    """Observes one run: lifecycle counters, spans, samples, fault markers.

    ``buses`` are the lifecycle buses of the channels on ``sim``'s clock, and
    ``cut_times`` their ledgers' block cut-time lookups, one per bus (the span
    tracer needs them; an observer that does not trace may omit them).  The
    lifecycle counters are the buses' own emission counts, summed: the
    sampler's rate columns read them at each tick and :meth:`collect` for the
    summary.  A counter is reported once its type was emitted, or when a
    sampler column reads it.
    """

    def __init__(
        self,
        sim: Simulator,
        buses: Sequence[LifecycleBus],
        config: ObservabilityConfig,
        cut_times: Sequence[CutTime] = (),
    ) -> None:
        config.validate()
        self.sim = sim
        self.config = config
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer(buses, cut_times) if config.trace else None
        self.sampler: Optional[TimeSeriesSampler] = (
            TimeSeriesSampler(sim, config.sample_interval) if config.metrics else None
        )
        self.markers: List[dict] = []
        self._profiler: Optional[EngineProfiler] = None
        self._buses = tuple(buses)
        #: The lifecycle counters a sampler column reads.
        self._sampled: Tuple[LifecycleEventType, ...] = ()
        self._committed_origins: set = set()
        self._latency = self.registry.histogram("latency")
        for bus in buses:
            bus.handle(LifecycleEventType.COMMITTED, self._on_committed)
            bus.handle(LifecycleEventType.ABORTED, self._on_aborted)
        if self.sampler is not None:
            self._sampled = (
                LifecycleEventType.SUBMITTED,
                LifecycleEventType.COMMITTED,
                LifecycleEventType.ABORTED,
            )
            self.sampler.add_source("pending_events", lambda: float(sim.pending_events))
            self.sampler.add_rate("engine_events_per_s", lambda: float(sim.processed_events))
            self.sampler.add_rate("submit_rate", self._emitted(LifecycleEventType.SUBMITTED))
            self.sampler.add_rate("tps", self._emitted(LifecycleEventType.COMMITTED))
            self.sampler.add_rate("goodput", self._read_counter("committed_requests"))
            self.sampler.add_rate("abort_rate", self._emitted(LifecycleEventType.ABORTED))

    # --------------------------------------------------------------- handlers
    def _read_counter(self, name: str) -> Callable[[], float]:
        counter = self.registry.counter(name)
        return lambda: counter.value

    def _emitted(self, event_type: LifecycleEventType) -> Callable[[], float]:
        """Reads how many ``event_type`` emissions the observed buses counted."""
        buses = self._buses
        return lambda: float(sum(bus.count(event_type) for bus in buses))

    def _on_committed(self, tx: Transaction) -> None:
        if tx.origin_id not in self._committed_origins:
            self._committed_origins.add(tx.origin_id)
            self.registry.counter("committed_requests").inc()
        latency = tx.total_latency
        if latency is not None:
            self._latency.observe(latency)

    def _on_aborted(self, tx: Transaction) -> None:
        failure_type = failure_type_of(tx)
        failure = failure_type.value if failure_type is not None else "unknown"
        name = f"aborted/{failure}"
        if self.sampler is not None and name not in self.registry:
            self.sampler.add_rate(f"abort_rate/{failure}", self._read_counter(name))
        self.registry.counter(name).inc()

    # ------------------------------------------------------------------ wiring
    def add_queue_probe(self, name: str, read: Callable[[], float]) -> None:
        """Sample a queue depth (``queue/<name>``) at every tick."""
        if self.sampler is not None:
            self.sampler.add_source(f"queue/{name}", lambda: float(read()))

    def watch_faults(self, controller: "FaultController") -> None:
        """Record every injection the controller applies as a trace marker."""
        controller.observer = self._on_injection

    def _on_injection(self, controller: "FaultController", injection: "FaultInjection") -> None:
        marker = {
            "time": self.sim.now,
            "kind": injection.kind.value,
            "target": injection.target,
        }
        if controller.channel is not None:
            marker["channel"] = controller.channel
        self.markers.append(marker)

    # --------------------------------------------------------------- run hooks
    def on_run_start(self, duration: float) -> None:
        """Pre-schedule the sampler ticks for the submission window (once)."""
        if self.sampler is not None:
            self.sampler.start(duration)

    @contextmanager
    def profile(self) -> Iterator[None]:
        """Profile the engine over the drain loop (when metrics are enabled).

        Leaves an externally attached :class:`EngineProfiler` alone, so the
        standalone context-manager usage keeps working alongside the observer.
        """
        if self.config.metrics and not self.sim.profiler_attached:
            self._profiler = EngineProfiler(self.sim)
            with self._profiler:
                yield
        else:
            yield

    # ------------------------------------------------------------- collection
    def collect(self, final_time: Optional[float] = None) -> ObservabilityData:
        """Assemble the run's exportable observability data."""
        if self.sampler is not None:
            self.sampler.sample_now(final_time if final_time is not None else self.sim.now)
        for event_type in LifecycleEventType:
            emitted = self._emitted(event_type)()
            if emitted or event_type in self._sampled:
                self.registry.counter(event_type.value).value = emitted
        summary = self.registry.snapshot()
        if self._profiler is not None:
            summary["engine"] = self._profiler.report()
        return ObservabilityData(
            spans=self.tracer.finalize() if self.tracer is not None else [],
            samples=list(self.sampler.samples) if self.sampler is not None else [],
            markers=sorted(self.markers, key=lambda m: (m["time"], m["kind"], str(m["target"]))),
            summary=summary,
        )
