"""Workload generator: turns a workload spec into a stream of invocations.

The generator draws chaincode functions according to the transaction mix and
asks the chaincode to sample realistic arguments, applying the configured key
distribution (Zipfian skew) to entity selection.  It corresponds to the
workload generator of paper Section 4.4, whose inputs are "the number of
transactions, the transaction distribution ... and the key distribution".
"""

from __future__ import annotations

import random
import sys
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chaincode.base import Chaincode
from repro.errors import WorkloadError
from repro.workload.distributions import KeyDistribution, UniformDistribution
from repro.workload.spec import TransactionMix


@dataclass(frozen=True)
class TransactionRequest:
    """One client invocation: the function, its arguments and a read-only flag.

    ``entity_index`` records the primary entity drawn for the request (the
    first index-chooser call of ``sample_args``), or ``None`` for functions
    that select no entity.  It is diagnostic metadata — e.g. for shard
    assertions in tests — and does not influence execution.
    """

    function: str
    args: Tuple[Any, ...]
    read_only: bool
    entity_index: Optional[int] = None


class WorkloadGenerator:
    """Draws :class:`TransactionRequest` objects for a chaincode and mix.

    ``primary_distribution`` optionally replaces the key distribution for the
    *first* entity draw of each request only — the draw that selects the
    request's primary key (patient, voter, genChain key, ...).  Channel-aware
    key generation plugs in here: a sharded distribution restricts each
    channel's primary keys to its shard while secondary choices (record types,
    grantees, ...) keep the unrestricted base distribution.
    """

    def __init__(
        self,
        chaincode: Chaincode,
        mix: TransactionMix,
        rng: random.Random,
        key_distribution: Optional[KeyDistribution] = None,
        primary_distribution: Optional[KeyDistribution] = None,
    ) -> None:
        self.chaincode = chaincode
        self.mix = mix
        self.rng = rng
        self.key_distribution = key_distribution or UniformDistribution()
        self.primary_distribution = primary_distribution or self.key_distribution
        self._functions: List[str] = []
        self._weights: List[float] = []
        known = set(chaincode.functions())
        for function, weight in mix.weights:
            if function not in known:
                raise WorkloadError(
                    f"workload references function {function!r} which chaincode "
                    f"{chaincode.name!r} does not define"
                )
            if weight > 0:
                # Function names travel on every Transaction and are compared
                # and hashed along the whole pipeline; intern them once.
                self._functions.append(sys.intern(function))
                self._weights.append(weight)
        if not self._functions:
            raise WorkloadError("the transaction mix assigns zero weight to every function")
        # Precomputed state of the per-request function draw: replicates
        # ``rng.choices(functions, weights=weights, k=1)`` exactly (one
        # ``random()`` draw, cumulative weights + bisect — see CPython's
        # ``random.choices``) without re-accumulating the weights every call.
        self._cum_weights: List[float] = list(accumulate(self._weights))
        self._weights_total: float = self._cum_weights[-1] + 0.0
        self._bisect_hi: int = len(self._functions) - 1
        self._read_only: Dict[str, bool] = {
            function: chaincode.is_read_only(function) for function in self._functions
        }
        self._first_index: Optional[int] = None
        #: ``population -> draw`` of each distribution on this generator's
        #: stream (:meth:`KeyDistribution.sampler`), bound on first use: a
        #: chaincode asks for the same few populations on every request.
        self._primary_draws: Dict[int, Callable[[], int]] = {}
        self._key_draws: Dict[int, Callable[[], int]] = {}

    def _chooser(self, population: int) -> int:
        """Entity-index chooser handed to ``sample_args`` (bound, reusable).

        The first draw of a request uses ``primary_distribution`` and is
        recorded as the request's ``entity_index``; every further draw uses
        the base ``key_distribution``.  Replaces the former per-request
        closure + recording list.
        """
        if self._first_index is None:
            draw = self._primary_draws.get(population)
            if draw is None:
                draw = self.primary_distribution.sampler(self.rng, population)
                self._primary_draws[population] = draw
            index = self._first_index = draw()
            return index
        draw = self._key_draws.get(population)
        if draw is None:
            draw = self.key_distribution.sampler(self.rng, population)
            self._key_draws[population] = draw
        return draw()

    def next_request(self) -> TransactionRequest:
        """Draw the next invocation."""
        rng = self.rng
        function = self._functions[
            bisect(self._cum_weights, rng.random() * self._weights_total, 0, self._bisect_hi)
        ]
        self._first_index = None
        args = self.chaincode.sample_args(function, rng, self._chooser)
        return TransactionRequest(
            function=function,
            args=args,
            read_only=self._read_only[function],
            entity_index=self._first_index,
        )

    def generate(self, count: int) -> List[TransactionRequest]:
        """Draw ``count`` invocations (the paper's "number of transactions" input)."""
        if count < 0:
            raise WorkloadError(f"cannot generate a negative number of requests: {count}")
        return [self.next_request() for _ in range(count)]
