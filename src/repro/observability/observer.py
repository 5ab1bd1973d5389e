"""The per-run observer: span tracer + metrics registry + sampler + markers.

One :class:`RunObserver` serves one simulator clock — one
:class:`~repro.channels.group.ChannelGroup` of a deployment, which is its only
constructor.  It is only constructed
when :class:`~repro.observability.config.ObservabilityConfig` is enabled;
without it no bus listener, sampler event or profiler exists and the run is
bit-identical to a build without this package.

Everything the observer does is read-only with respect to the simulation: bus
callbacks record, sampler ticks read, the fault hook appends a marker.  No
RNG stream is ever drawn and no transaction is mutated, which is what lets
the golden-record determinism test pass *with tracing enabled*.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional

from repro.lifecycle.events import LifecycleBus, LifecycleEvent, LifecycleEventType
from repro.observability.config import ObservabilityConfig
from repro.observability.registry import MetricsRegistry, TimeSeriesSampler
from repro.observability.spans import BlockTimes, SpanNode, SpanTracer
from repro.sim.engine import Simulator
from repro.sim.profile import EngineProfiler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.controller import FaultController
    from repro.faults.schedule import FaultInjection


@dataclass
class ObservabilityData:
    """Everything one observed run exports — plain, picklable data.

    Rides on :attr:`repro.network.network.RunRecord.observability`, so it
    travels through the parallel runner and the result cache like any other
    run artifact.
    """

    spans: List[SpanNode] = field(default_factory=list)
    samples: List[Dict[str, float]] = field(default_factory=list)
    markers: List[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)


class RunObserver:
    """Observes one run: lifecycle counters, spans, samples, fault markers."""

    def __init__(self, sim: Simulator, bus: LifecycleBus, config: ObservabilityConfig) -> None:
        config.validate()
        self.sim = sim
        self.bus = bus
        self.config = config
        self.registry = MetricsRegistry()
        self.tracer: Optional[SpanTracer] = SpanTracer(bus) if config.trace else None
        self.sampler: Optional[TimeSeriesSampler] = (
            TimeSeriesSampler(sim, config.sample_interval) if config.metrics else None
        )
        self.markers: List[dict] = []
        self._profiler: Optional[EngineProfiler] = None
        self._committed_origins: set = set()
        self._latency = self.registry.histogram("latency")
        bus.subscribe(None, self._on_event)
        if self.sampler is not None:
            self.sampler.add_source("pending_events", lambda: float(sim.pending_events))
            self.sampler.add_rate("engine_events_per_s", lambda: float(sim.processed_events))
            self.sampler.add_rate("submit_rate", self._read_counter("submitted"))
            self.sampler.add_rate("tps", self._read_counter("committed"))
            self.sampler.add_rate("goodput", self._read_counter("committed_requests"))
            self.sampler.add_rate("abort_rate", self._read_counter("aborted"))

    # -------------------------------------------------------------- listeners
    def _read_counter(self, name: str) -> Callable[[], float]:
        counter = self.registry.counter(name)
        return lambda: counter.value

    def _on_event(self, event: LifecycleEvent) -> None:
        self.registry.counter(event.type.value).inc()
        if event.type is LifecycleEventType.COMMITTED:
            tx = event.transaction
            if tx.origin_id not in self._committed_origins:
                self._committed_origins.add(tx.origin_id)
                self.registry.counter("committed_requests").inc()
            latency = tx.total_latency
            if latency is not None:
                self._latency.observe(latency)
        elif event.type is LifecycleEventType.ABORTED:
            failure = event.failure_type.value if event.failure_type is not None else "unknown"
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

    def adopt_profiler(self, profiler: EngineProfiler) -> None:
        """Use an externally managed :class:`EngineProfiler` for the summary.

        An execution plan of several channel groups attaches one profiler per
        group simulator itself (it wants engine stats even when metrics are
        off); adopting it lets :meth:`collect` embed the report exactly as
        :meth:`profile` would have.
        """
        self._profiler = profiler

    # ------------------------------------------------------------- collection
    def collect(
        self, block_times: Optional[BlockTimes] = None, final_time: Optional[float] = None
    ) -> ObservabilityData:
        """Assemble the run's exportable observability data."""
        if self.sampler is not None:
            self.sampler.sample_now(final_time if final_time is not None else self.sim.now)
        summary = self.registry.snapshot()
        if self._profiler is not None:
            summary["engine"] = self._profiler.report()
        return ObservabilityData(
            spans=self.tracer.finalize(block_times) if self.tracer is not None else [],
            samples=list(self.sampler.samples) if self.sampler is not None else [],
            markers=sorted(self.markers, key=lambda m: (m["time"], m["kind"], str(m["target"]))),
            summary=summary,
        )
