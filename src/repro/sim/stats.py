"""Online statistics accumulators used by the simulator and the metrics layer."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple


class OnlineStats:
    """Accumulates count / mean / variance / min / max without storing samples.

    Uses Welford's algorithm so the variance is numerically stable even for
    millions of latency samples.
    """

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Add one sample."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        """Add many samples."""
        for value in values:
            self.add(value)

    @property
    def variance(self) -> float:
        """Population variance of the samples seen so far (0 for < 2 samples)."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    @property
    def stdev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OnlineStats(count={self.count}, mean={self.mean:.6f}, stdev={self.stdev:.6f})"


class P2Quantile:
    """Single-quantile estimator using the P² algorithm (Jain & Chlamtac 1985).

    Tracks one quantile of a stream in O(1) memory and O(1) time per sample —
    five markers whose heights approximate the quantile curve — without
    storing samples and, crucially for the simulation, without drawing from
    any RNG (a reservoir sketch would perturb the deterministic streams).
    The first five samples are kept exactly, so small runs report the same
    value as :func:`percentile`.
    """

    def __init__(self, fraction: float) -> None:
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"quantile fraction must be in (0, 1), got {fraction}")
        self.fraction = fraction
        self.count = 0
        self._initial: List[float] = []
        self._q: List[float] = []  # marker heights
        self._n: List[float] = []  # marker positions (1-based)
        self._np: List[float] = []  # desired marker positions
        f = fraction
        self._dn = (0.0, f / 2.0, f, (1.0 + f) / 2.0, 1.0)

    def add(self, value: float) -> None:
        """Add one sample.

        Straight-line code on the metrics path (three estimators per recorded
        latency): the cell search and the position updates are written out
        marker by marker.  The comparisons and the float operations are those
        of the textbook loops, in their order — estimates are pinned bit for
        bit, so do not reassociate them (nor turn a ``not >=`` into a ``<``:
        they differ on a NaN).
        """
        self.count += 1
        if self.count <= 5:
            self._initial.append(value)
            if self.count == 5:
                self._initial.sort()
                f = self.fraction
                self._q = list(self._initial)
                self._n = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._np = [1.0, 1.0 + 2.0 * f, 1.0 + 4.0 * f, 3.0 + 2.0 * f, 5.0]
            return
        q, n, desired = self._q, self._n, self._np
        # Find the cell the sample falls in; every marker above it moves up.
        if value < q[0]:
            q[0] = value
            n[1] += 1.0
            n[2] += 1.0
            n[3] += 1.0
        elif value >= q[4]:
            q[4] = value
        elif value >= q[1]:
            if value >= q[2]:
                if not value >= q[3]:
                    n[3] += 1.0
            else:
                n[2] += 1.0
                n[3] += 1.0
        else:
            n[1] += 1.0
            n[2] += 1.0
            n[3] += 1.0
        n[4] += 1.0
        d0, d1, d2, d3, d4 = self._dn
        desired[0] += d0
        desired[1] += d1
        desired[2] += d2
        desired[3] += d3
        desired[4] += d4
        # Move each inner marker that drifted a whole position off its
        # desired one — in marker order: a move changes what the next one reads.
        for index in (1, 2, 3):
            position = n[index]
            drift = desired[index] - position
            if (drift >= 1.0 and n[index + 1] - position > 1.0) or (
                drift <= -1.0 and n[index - 1] - position < -1.0
            ):
                self._move(index, 1.0 if drift >= 0.0 else -1.0)

    def _move(self, i: int, d: float) -> None:
        """Shift marker ``i`` one position: parabolic height, else linear."""
        q, n = self._q, self._n
        below, height, above = q[i - 1], q[i], q[i + 1]
        n_below, position, n_above = n[i - 1], n[i], n[i + 1]
        candidate = height + d / (n_above - n_below) * (
            (position - n_below + d) * (above - height) / (n_above - position)
            + (n_above - position - d) * (height - below) / (position - n_below)
        )
        if below < candidate < above:
            q[i] = candidate
        else:
            j = i + int(d)
            q[i] = height + d * (q[j] - height) / (n[j] - position)
        n[i] = position + d

    @property
    def value(self) -> float:
        """Current estimate of the tracked quantile (``nan`` before any sample)."""
        if self.count == 0:
            return math.nan
        if self.count <= 5:
            return percentile(self._initial, self.fraction)
        return self._q[2]


#: The default quantiles the metrics layer reports.
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)


class QuantileSketch:
    """A bundle of :class:`P2Quantile` estimators (p50/p95/p99 by default).

    The constant-memory companion of :class:`OnlineStats`: where OnlineStats
    tracks mean and variance, the sketch tracks the latency tail — without
    storing the sample list, so it can run inside the metrics registry for
    arbitrarily long simulations.
    """

    def __init__(self, fractions: Sequence[float] = DEFAULT_QUANTILES) -> None:
        if not fractions:
            raise ValueError("a quantile sketch needs at least one fraction")
        self._estimators = {fraction: P2Quantile(fraction) for fraction in fractions}
        self.count = 0

    def add(self, value: float) -> None:
        """Add one sample to every tracked quantile."""
        self.count += 1
        for estimator in self._estimators.values():
            estimator.add(value)

    def extend(self, values: Iterable[float]) -> None:
        """Add many samples."""
        for value in values:
            self.add(value)

    @property
    def fractions(self) -> Tuple[float, ...]:
        """The tracked quantile fractions, in construction order."""
        return tuple(self._estimators)

    def quantile(self, fraction: float) -> float:
        """Current estimate of one tracked quantile (``KeyError`` if untracked)."""
        return self._estimators[fraction].value

    def as_dict(self) -> Dict[str, float]:
        """Estimates keyed ``"p50"``-style (JSON-friendly; ``{}`` when empty)."""
        if self.count == 0:
            return {}
        return {
            f"p{fraction * 100:g}": estimator.value
            for fraction, estimator in self._estimators.items()
        }


def mean(values: Iterable[float]) -> float:
    """Plain arithmetic mean; an empty iterable yields 0.0.

    The single shared definition behind the record aggregation of
    :mod:`repro.network.network`, :mod:`repro.channels.merge` and the
    experiment reports (each used to carry its own copy).
    """
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def percentile(values: List[float], fraction: float) -> float:
    """Linear-interpolation percentile of a list of samples.

    ``fraction`` is in [0, 1]; an empty list yields ``nan`` so callers notice
    missing data instead of silently reporting 0.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"percentile fraction must be in [0, 1], got {fraction}")
    if not values:
        return math.nan
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return ordered[lower]
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight
