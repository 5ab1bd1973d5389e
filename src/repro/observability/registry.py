"""Counters, gauges and histograms plus the sim-time series sampler.

The registry is deliberately small: named :class:`Counter`/:class:`Gauge`
instruments and :class:`Histogram` s that keep their samples, so every
histogram reports mean/stdev and exact p50/p95/p99 — the one quantile
definition of the metrics layer, :func:`~repro.sim.stats.quantiles`.

The :class:`TimeSeriesSampler` turns instantaneous state into a time series:
it pre-schedules its ticks over the submission window at construction-time
known times (strictly inside ``[0, duration)``), so the sampler never extends
the simulation horizon, reads state without drawing from any RNG stream, and
therefore leaves a sampled run bit-identical to an unsampled one.
"""

from __future__ import annotations

import math
from array import array
from typing import Callable, Dict, List, Tuple

from repro.sim.engine import Simulator
from repro.sim.stats import mean, quantiles


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
    """Distribution summary of the samples observed, computed when read."""

    def __init__(self) -> None:
        self._samples = array("d")

    def observe(self, value: float) -> None:
        """Add one sample."""
        self._samples.append(value)

    def snapshot(self) -> Dict[str, float]:
        """Count, moments, extremes and quantiles as one JSON-serializable dictionary."""
        samples = self._samples
        count = len(samples)
        summary: Dict[str, float] = {"count": count}
        if count:
            average = mean(samples)
            summary.update(
                mean=average,
                min=min(samples),
                max=max(samples),
                # The population standard deviation.
                stdev=math.sqrt(mean((value - average) ** 2 for value in samples)),
            )
            summary.update(quantiles(samples))
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
        ticks = []
        tick = 1
        while tick * self.interval < duration:
            ticks.append(tick * self.interval)
            tick += 1
        self.sim.post_series(ticks, self._sample)

    def _sample(self) -> None:
        self.sample_now(self.sim.now)

    def close(self) -> None:
        """Forget every column's reader; the samples taken so far stay."""
        self._sources.clear()
        self._rates.clear()

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
