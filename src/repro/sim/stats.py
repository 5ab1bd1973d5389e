"""Sample statistics of the metrics layer: one mean, one quantile definition."""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Dict, Iterable, List, Tuple


def mean(values: Iterable[float]) -> float:
    """Exactly rounded arithmetic mean; an empty iterable yields 0.0.

    The sum is :func:`math.fsum`, so the mean is a statistic of the bag of
    values: no order of them, and no interpreter, moves its last bit.  The
    single shared definition behind the tally's means, the channel merge's
    utilizations and the experiment reports' columns.  A sequence (a tally's
    sample array) is summed in place, not copied.
    """
    if not isinstance(values, Sequence):
        values = list(values)
    return math.fsum(values) / len(values) if values else 0.0


def percentile(values: List[float], fraction: float) -> float:
    """Linear-interpolation percentile of a list of samples.

    ``fraction`` is in [0, 1]; an empty list yields ``nan`` so callers notice
    missing data instead of silently reporting 0.
    """
    _check_fraction(fraction)
    if not values:
        return math.nan
    return _interpolate(sorted(values), fraction)


#: The quantiles the metrics layer reports.
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)


def quantiles(
    values: Sequence[float], fractions: Sequence[float] = DEFAULT_QUANTILES
) -> Dict[str, float]:
    """:func:`percentile` at each of ``fractions``, keyed ``"p50"``-style.

    The samples are sorted once.  A statistic of the bag of samples: the
    result does not depend on their order.  No samples yield ``{}``.
    """
    for fraction in fractions:
        _check_fraction(fraction)
    if not values:
        return {}
    ordered = sorted(values)
    return {f"p{fraction * 100:g}": _interpolate(ordered, fraction) for fraction in fractions}


def _check_fraction(fraction: float) -> None:
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"percentile fraction must be in [0, 1], got {fraction}")


def _interpolate(ordered: Sequence[float], fraction: float) -> float:
    """The ``fraction`` percentile of sorted, non-empty samples."""
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if ordered[lower] == ordered[upper]:
        return ordered[lower]
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight
