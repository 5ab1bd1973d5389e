"""``P2Quantile.add`` against the loops it was unrolled from, float for float.

The estimator runs three times per recorded latency (p50 / p95 / p99) in the
ledger analysis and on every ``observe`` of the metrics registry, so its
``add`` is straight-line code.  The estimates are pinned bit for bit
(``tests/golden/analysis_pins.json``, the export pins), which holds only while
the unrolled body performs the textbook loops' float operations in their
order.  ``ReferenceP2`` is the old body, verbatim; every marker height,
position and desired position must be the same float after every sample.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import P2Quantile, QuantileSketch

FRACTIONS = st.sampled_from([0.5, 0.95, 0.99, 0.01, 0.25])
FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
#: NaN and the infinities included: no latency is one, but the unrolled cell
#: search keeps the loop's own comparisons, so even these must not tell them apart.
ANY_FLOAT = st.floats(width=64)
LATENCIES = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


class ReferenceP2:
    """The estimator's state and ``add`` as they were before the unrolling."""

    def __init__(self, fraction: float) -> None:
        self.fraction = fraction
        self.count = 0
        self._initial = []
        self._q = []
        self._n = []
        self._np = []
        f = fraction
        self._dn = (0.0, f / 2.0, f, (1.0 + f) / 2.0, 1.0)

    def add(self, value: float) -> None:
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
        q, n = self._q, self._n
        if value < q[0]:
            q[0] = value
            cell = 0
        elif value >= q[4]:
            q[4] = value
            cell = 3
        else:
            cell = 0
            while cell < 3 and value >= q[cell + 1]:
                cell += 1
        for index in range(cell + 1, 5):
            n[index] += 1.0
        for index in range(5):
            self._np[index] += self._dn[index]
        for index in (1, 2, 3):
            drift = self._np[index] - n[index]
            if (drift >= 1.0 and n[index + 1] - n[index] > 1.0) or (
                drift <= -1.0 and n[index - 1] - n[index] < -1.0
            ):
                step = 1.0 if drift >= 0.0 else -1.0
                candidate = self._parabolic(index, step)
                if q[index - 1] < candidate < q[index + 1]:
                    q[index] = candidate
                else:
                    q[index] = self._linear(index, step)
                n[index] += step

    def _parabolic(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        j = i + int(d)
        return q[i] + d * (q[j] - q[i]) / (n[j] - n[i])


def state(estimator) -> str:
    """Count, kept samples, marker heights, positions and desired positions.

    By ``repr``: exact for floats, and — unlike ``==`` — equal for two NaNs and
    unequal for ``0.0`` and ``-0.0``.
    """
    return repr(
        (estimator.count, estimator._initial, estimator._q, estimator._n, estimator._np)
    )


def assert_same_after_every_sample(fraction: float, stream) -> None:
    estimator, reference = P2Quantile(fraction), ReferenceP2(fraction)
    for value in stream:
        estimator.add(value)
        reference.add(value)
        assert state(estimator) == state(reference)


@settings(max_examples=200, deadline=None)
@given(fraction=FRACTIONS, stream=st.lists(FINITE, max_size=120))
def test_arbitrary_streams(fraction, stream):
    assert_same_after_every_sample(fraction, stream)


@settings(max_examples=200, deadline=None)
@given(fraction=FRACTIONS, stream=st.lists(ANY_FLOAT, max_size=60))
def test_streams_with_non_finite_samples(fraction, stream):
    assert_same_after_every_sample(fraction, stream)


@settings(max_examples=100, deadline=None)
@given(fraction=FRACTIONS, stream=st.lists(LATENCIES, max_size=400))
def test_latency_shaped_streams(fraction, stream):
    assert_same_after_every_sample(fraction, stream)


@settings(max_examples=50, deadline=None)
@given(fraction=FRACTIONS, value=FINITE, length=st.integers(min_value=0, max_value=60))
def test_constant_streams(fraction, value, length):
    assert_same_after_every_sample(fraction, [value] * length)


@settings(max_examples=100, deadline=None)
@given(fraction=FRACTIONS, stream=st.lists(LATENCIES, max_size=200), descending=st.booleans())
def test_monotone_streams(fraction, stream, descending):
    assert_same_after_every_sample(fraction, sorted(stream, reverse=descending))


@settings(max_examples=100, deadline=None)
@given(
    fraction=FRACTIONS,
    stream=st.lists(st.sampled_from([0.0, 0.25, 0.25, 1.0, 1.5, 7.0]), max_size=300),
)
def test_duplicate_heavy_streams(fraction, stream):
    assert_same_after_every_sample(fraction, stream)


@settings(max_examples=50, deadline=None)
@given(fraction=FRACTIONS, stream=st.lists(FINITE, max_size=5))
def test_five_samples_or_fewer_are_kept_exactly(fraction, stream):
    assert_same_after_every_sample(fraction, stream)
    estimator = P2Quantile(fraction)
    for value in stream:
        estimator.add(value)
    assert estimator._initial == (sorted(stream) if len(stream) == 5 else stream)


@settings(max_examples=50, deadline=None)
@given(stream=st.lists(LATENCIES, min_size=1, max_size=200))
def test_sketch_reports_what_three_reference_estimators_report(stream):
    sketch = QuantileSketch()
    references = {fraction: ReferenceP2(fraction) for fraction in sketch.fractions}
    for value in stream:
        sketch.add(value)
        for reference in references.values():
            reference.add(value)
    assert sketch.count == len(stream)
    for fraction, reference in references.items():
        assert state(sketch._estimators[fraction]) == state(reference)
