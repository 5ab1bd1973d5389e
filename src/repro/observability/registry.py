"""Counters, gauges and histograms plus the sim-time series sampler.

The registry is deliberately small: named :class:`Counter`/:class:`Gauge`
instruments and :class:`Histogram` s built on
:class:`~repro.sim.stats.OnlineStats` + the :class:`~repro.sim.stats.QuantileSketch`
(so every histogram reports mean/stdev *and* p50/p95/p99 at O(1) memory).

The :class:`TimeSeriesSampler` turns instantaneous state into a time series:
it pre-schedules its ticks over the submission window at construction-time
known times (strictly inside ``[0, duration)``), so the sampler never extends
the simulation horizon, reads state without drawing from any RNG stream, and
therefore leaves a sampled run bit-identical to an unsampled one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.sim.engine import Simulator
from repro.sim.stats import DEFAULT_QUANTILES, OnlineStats, QuantileSketch


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Increase the counter by ``amount``."""
        self.value += amount


class Gauge:
    """A point-in-time value (queue depth, lock count, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value


class Histogram:
    """Distribution summary: Welford moments plus a P² quantile sketch."""

    def __init__(self, fractions: Sequence[float] = DEFAULT_QUANTILES) -> None:
        self.stats = OnlineStats()
        self.sketch = QuantileSketch(fractions)

    def observe(self, value: float) -> None:
        """Add one sample."""
        self.stats.add(value)
        self.sketch.add(value)

    def snapshot(self) -> Dict[str, float]:
        """Moments and quantiles as one JSON-serializable dictionary."""
        summary: Dict[str, float] = {"count": self.stats.count}
        if self.stats.count:
            summary.update(
                mean=self.stats.mean,
                min=self.stats.minimum,
                max=self.stats.maximum,
                stdev=self.stats.stdev,
            )
            summary.update(self.sketch.as_dict())
        return summary


class MetricsRegistry:
    """Named instruments, created on first use.

    ``snapshot()`` renders every instrument to plain data — the ``summary``
    section of the exported metrics document.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def __contains__(self, name: str) -> bool:
        """True once an instrument called ``name`` exists."""
        return name in self._counters or name in self._gauges or name in self._histograms

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram()
        return instrument

    def snapshot(self) -> dict:
        """Every instrument's current value, keyed by kind then name."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {name: h.snapshot() for name, h in sorted(self._histograms.items())},
        }


class TimeSeriesSampler:
    """Periodic sim-time sampling of registered sources into a time series.

    Two kinds of columns:

    - *sources* are sampled raw at every tick (gauges: pending events, queue
      depths);
    - *rates* read a cumulative counter and report its per-second increase
      over the tick interval (tps, goodput, abort rates, engine events/sec in
      sim time).

    Ticks are pre-scheduled strictly inside ``[0, duration)`` — never at or
    past the submission horizon — so the sampler cannot extend ``sim.now``
    beyond what the workload itself produces; a final row is taken
    synchronously at collect time.  Tick callbacks only read state.
    """

    def __init__(self, sim: Simulator, interval: float) -> None:
        self.sim = sim
        self.interval = interval
        self.samples: List[Dict[str, float]] = []
        self._sources: List[Tuple[str, Callable[[], float]]] = []
        self._rates: List[Tuple[str, Callable[[], float]]] = []
        self._last_values: Dict[str, float] = {}
        self._last_time = 0.0
        self._started = False

    def add_source(self, name: str, read: Callable[[], float]) -> None:
        """Register a raw column sampled at every tick."""
        self._sources.append((name, read))

    def add_rate(self, name: str, read_cumulative: Callable[[], float]) -> None:
        """Register a per-second rate column derived from a cumulative count."""
        self._rates.append((name, read_cumulative))
        self._last_values[name] = 0.0

    def start(self, duration: float) -> None:
        """Pre-schedule every tick of the submission window (idempotent)."""
        if self._started:
            return
        self._started = True
        tick = 1
        while tick * self.interval < duration:
            self.sim.post_at(tick * self.interval, self._sample)
            tick += 1

    def _sample(self) -> None:
        self.sample_now(self.sim.now)

    def sample_now(self, time: float) -> None:
        """Take one sample row at ``time`` (also used for the final row)."""
        row: Dict[str, float] = {"time": time}
        for name, read in self._sources:
            row[name] = float(read())
        span = time - self._last_time
        for name, read_cumulative in self._rates:
            current = float(read_cumulative())
            delta = current - self._last_values[name]
            self._last_values[name] = current
            row[name] = delta / span if span > 0 else 0.0
        self._last_time = time
        self.samples.append(row)
