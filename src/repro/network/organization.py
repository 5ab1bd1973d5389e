"""Organizations: named groups of peers (paper Section 2).

Peers are grouped into organizations which typically correspond to real
enterprises or branches; the endorsement policy is expressed over
organizations, and the number of organizations is one of the control variables
of the study (Figure 12).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.peer import Peer


@dataclass
class Organization:
    """One organization and the peers it operates."""

    index: int
    name: str
    peers: List["Peer"] = field(default_factory=list)

    @functools.cached_property
    def endorsers(self) -> List["Peer"]:
        """The peers of this organization that hold the endorser role.

        Listed on first use — by the first client to send a proposal here — and
        kept: peers are only appended while the deployment is built and their
        roles never change afterwards.
        """
        endorsers = [peer for peer in self.peers if peer.is_endorser]
        if not endorsers:
            raise ConfigurationError(
                f"organization {self.name!r} has no endorsing peers; cannot endorse"
            )
        return endorsers
