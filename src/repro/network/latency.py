"""Network latency model, including Pumba-style induced delays.

All components run in one data centre (LAN latencies of about a millisecond
with small jitter).  The paper additionally emulates a geographically remote
organization by injecting an extra delay of 100 ± 10 ms on one organization's
containers with the Pumba chaos-testing tool (Section 5.1.7); the same effect
is obtained here by listing that organization in ``NetworkConfig.delayed_orgs``.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.network.config import NetworkConfig


class LatencyModel:
    """Samples one-way message latencies between network components.

    ``src_org`` / ``dst_org`` are organization indexes, or ``None`` for
    components that do not belong to an organization (clients and the ordering
    service).
    """

    def __init__(self, config: NetworkConfig, rng: random.Random) -> None:
        self.config = config
        self.timing = config.timing
        self.rng = rng
        self._delayed = set(config.delayed_orgs)
        # Precomputed ``uniform(-jitter, jitter)`` operands (CPython's
        # ``uniform(a, b)`` is ``a + (b - a) * random()``); the timing profile
        # and the induced-delay settings are fixed for the model's lifetime.
        timing = config.timing
        self._random = rng.random
        self._net_one_way = timing.net_one_way
        self._net_low = -timing.net_jitter
        self._net_span = timing.net_jitter - self._net_low
        self._induced_low = -config.induced_delay_jitter
        self._induced_span = config.induced_delay_jitter - self._induced_low

    def one_way(self, src_org: Optional[int] = None, dst_org: Optional[int] = None) -> float:
        """One-way latency of a message from ``src_org`` to ``dst_org``."""
        random_ = self._random
        latency = self._net_one_way + (self._net_low + self._net_span * random_())
        delayed = self._delayed
        if delayed and (src_org in delayed or dst_org in delayed):
            latency += self.config.induced_delay + (
                self._induced_low + self._induced_span * random_()
            )
        return max(0.0, latency)

    def round_trip(self, src_org: Optional[int] = None, dst_org: Optional[int] = None) -> float:
        """Round-trip latency between two components."""
        return self.one_way(src_org, dst_org) + self.one_way(dst_org, src_org)

    def block_delivery(self, dst_org: Optional[int]) -> float:
        """Latency of delivering a block from the ordering service to a peer.

        Blocks reach an organization through its leader peer and are then
        gossiped inside the organization, so a delayed organization pays the
        induced delay on an additional hop.  This is why the peers of a
        geographically remote organization lag further behind — and why the
        induced delay increases endorsement policy failures (Section 5.1.7).
        """
        latency = self.one_way(None, dst_org)
        if dst_org in self._delayed:
            jitter = self.config.induced_delay_jitter
            latency += self.config.induced_delay + self.rng.uniform(-jitter, jitter)
        return max(0.0, latency)
