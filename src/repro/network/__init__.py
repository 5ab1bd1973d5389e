"""The simulated Hyperledger Fabric network.

This package models the components of a Fabric deployment — organizations,
peers (endorsement, validation, commit), the ordering service, clients and the
network links between them — on top of the discrete-event simulation engine.
The model follows the Execute-Order-Validate transaction flow of Figure 1 of
the paper and exposes every control variable of the study (Table 3) through
:class:`~repro.network.config.NetworkConfig`.
"""

from repro.network.config import (
    CLUSTER_PRESETS,
    ClusterPreset,
    DatabaseType,
    NetworkConfig,
    TimingProfile,
)
from repro.network.endorsement import (
    NOutOf,
    PolicyNode,
    SignedBy,
    standard_policies,
)
from repro.network.network import Channel, RunRecord

__all__ = [
    "CLUSTER_PRESETS",
    "ClusterPreset",
    "DatabaseType",
    "NetworkConfig",
    "TimingProfile",
    "NOutOf",
    "PolicyNode",
    "SignedBy",
    "standard_policies",
    "Channel",
    "RunRecord",
]
