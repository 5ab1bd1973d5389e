"""Key-access distributions (paper Section 4.4 / 4.5, "Zipfian skew").

The keys accessed by the workloads follow a Zipfian distribution with a
configurable skew: skew 0 is a uniform access pattern, positive skews
concentrate accesses on a small set of hot keys, which is the main driver of
MVCC read conflicts in Figure 15.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import lru_cache, partial
from itertools import accumulate
from typing import Callable, List, Protocol, Tuple

from repro.errors import WorkloadError


class KeyDistribution(Protocol):
    """Anything that can pick an entity index out of a population."""

    def sampler(
        self, rng: random.Random, population: int
    ) -> Callable[[], int]:  # pragma: no cover
        """A draw over ``[0, population)`` on ``rng``, its lookups done once.

        Everything that is fixed for the pair — the population check, the
        cumulative weights, the bound uniform source — is resolved here; each
        call of the result consumes from ``rng`` exactly what one
        :meth:`sample` does.  :meth:`sample` and :meth:`sample_batch` are this
        draw, called once or ``count`` times.
        """
        ...

    def sample(self, rng: random.Random, population: int) -> int:  # pragma: no cover
        """Return an index in ``[0, population)``."""
        ...

    def sample_batch(
        self, rng: random.Random, population: int, count: int
    ) -> List[int]:  # pragma: no cover
        """Return ``count`` indexes, byte-identical to ``count`` ``sample`` calls."""
        ...


def _checked(population: int) -> int:
    if population <= 0:
        raise WorkloadError(f"population must be positive, got {population}")
    return population


class SamplerDraws:
    """``sample`` and ``sample_batch`` of a distribution that defines ``sampler``."""

    def sample(self, rng: random.Random, population: int) -> int:
        """Return an index in ``[0, population)``."""
        return self.sampler(rng, population)()

    def sample_batch(self, rng: random.Random, population: int, count: int) -> List[int]:
        """The exact draw sequence (and final ``rng`` state) of ``count`` samples."""
        draw = self.sampler(rng, population)
        return [draw() for _ in range(count)]


class UniformDistribution(SamplerDraws):
    """Uniform key access (Zipfian skew 0)."""

    skew = 0.0

    def sampler(self, rng: random.Random, population: int) -> Callable[[], int]:
        """``rng.randrange(population)``, bound."""
        return partial(rng.randrange, _checked(population))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "UniformDistribution()"


@lru_cache(maxsize=8)
def cumulative_weights(skew: float, population: int) -> Tuple[float, ...]:
    """Running sums of ``1 / (rank + 1) ** skew`` over ``population`` ranks.

    One table for every generator, channel and cell of the process (a request
    draws over two or three populations); a tuple, because they all read it.
    """
    return tuple(accumulate(1.0 / float(rank + 1) ** skew for rank in range(population)))


class ZipfianDistribution(SamplerDraws):
    """Zipfian key access with exponent ``skew``.

    Rank ``r`` (0-based) is accessed with probability proportional to
    ``1 / (r + 1) ** skew``; a draw bisects :func:`cumulative_weights`, so
    repeated sampling over the same key space is O(log n).
    """

    def __init__(self, skew: float) -> None:
        if skew < 0:
            raise WorkloadError(f"Zipfian skew must be >= 0, got {skew}")
        self.skew = float(skew)

    def sampler(self, rng: random.Random, population: int) -> Callable[[], int]:
        """One ``rng.random()`` per draw, bisected into the cumulative weights."""
        if self.skew == 0.0:
            return partial(rng.randrange, _checked(population))
        cdf = cumulative_weights(self.skew, _checked(population))
        total = cdf[-1]
        uniform = rng.random
        # Bisecting below the last rank only is ``min(bisect_left(cdf, point),
        # population - 1)``: a point past every smaller weight is the last rank.
        last = population - 1

        def draw() -> int:
            return bisect_left(cdf, uniform() * total, 0, last)

        return draw

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ZipfianDistribution(skew={self.skew})"


def make_distribution(skew: float) -> KeyDistribution:
    """Build the distribution for a given Zipfian skew (0 means uniform)."""
    if skew == 0:
        return UniformDistribution()
    return ZipfianDistribution(skew)
