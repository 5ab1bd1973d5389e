"""``quantiles`` against the standard library's inclusive quantiles.

``statistics.quantiles(data, n=100, method="inclusive")`` cuts the sorted
samples at ``i / 100`` with the same linear interpolation between closest
ranks (Hyndman & Fan type 7), but computes each position with integer
arithmetic.  So p50 / p95 / p99 of ``quantiles`` must agree with its 50th,
95th and 99th cut point to rounding, on every shape of stream the run's
latencies take: arbitrary, latency-shaped, constant, sorted either way and
duplicate-heavy.  Where a fraction puts the position exactly on a sample, the
sample itself comes back.
"""

from __future__ import annotations

import math
import statistics

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.stats import DEFAULT_QUANTILES, quantiles

#: Bounded so that the reference's ``data[j] * (n - delta)`` cannot overflow.
FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
LATENCIES = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


def reference(samples) -> dict:
    """The standard library's cut points at the default fractions."""
    # Python before 3.13 wants two samples; every cut point of one is that sample.
    cuts = samples * 99 if len(samples) == 1 else statistics.quantiles(
        samples, n=100, method="inclusive"
    )
    return {
        f"p{fraction * 100:g}": cuts[round(fraction * 100) - 1] for fraction in DEFAULT_QUANTILES
    }


def assert_agrees_with_the_reference(samples) -> None:
    summary = quantiles(samples)
    expected = reference(samples)
    assert list(summary) == list(expected)
    spread = max(samples) - min(samples)
    # Each side rounds its own interpolation once, so the two may differ by
    # one ulp of the larger value: among subnormals that is all of the spread.
    ulp = math.ulp(max(map(abs, samples)))
    for key, value in summary.items():
        abs_tol = max(1e-12 * spread, ulp)
        assert math.isclose(value, expected[key], rel_tol=1e-12, abs_tol=abs_tol), (
            f"{key}: {value!r} != {expected[key]!r}"
        )


@settings(max_examples=200, deadline=None)
@given(samples=st.lists(FINITE, min_size=1, max_size=120))
def test_arbitrary_streams(samples):
    assert_agrees_with_the_reference(samples)


@settings(max_examples=100, deadline=None)
@given(samples=st.lists(LATENCIES, min_size=1, max_size=400))
# Two subnormals: p50 is 5e-324 here and 1e-323 in the reference.
@example(samples=[5e-324, 1e-323])
def test_latency_shaped_streams(samples):
    assert_agrees_with_the_reference(samples)


@settings(max_examples=50, deadline=None)
@given(value=FINITE, length=st.integers(min_value=1, max_value=60))
# Interpolating between two equal subnormal neighbours underflowed to 0.0.
@example(value=5e-324, length=2)
def test_constant_streams(value, length):
    assert_agrees_with_the_reference([value] * length)


@settings(max_examples=100, deadline=None)
@given(samples=st.lists(LATENCIES, min_size=1, max_size=200), descending=st.booleans())
def test_monotone_streams(samples, descending):
    assert_agrees_with_the_reference(sorted(samples, reverse=descending))


@settings(max_examples=100, deadline=None)
@given(
    samples=st.lists(st.sampled_from([0.0, 0.25, 0.25, 1.0, 1.5, 7.0]), min_size=1, max_size=300)
)
def test_duplicate_heavy_streams(samples):
    assert_agrees_with_the_reference(samples)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    # 2, 3, 5 or 9 samples: every fraction k / (n - 1) is dyadic, so its position is exact.
    exponent=st.integers(min_value=0, max_value=3),
)
def test_a_fraction_on_a_sample_returns_that_sample(data, exponent):
    gaps = 2**exponent
    samples = data.draw(st.lists(FINITE, min_size=gaps + 1, max_size=gaps + 1))
    fractions = [k / gaps for k in range(gaps + 1)]
    summary = quantiles(samples, fractions)
    assert list(summary.values()) == sorted(samples)
