"""Workload specifications: which functions are invoked, with which probability.

A :class:`TransactionMix` is a weighted set of chaincode functions; a
:class:`WorkloadSpec` couples a mix with the chaincode it targets (and the
constructor arguments of that chaincode) so experiments can be described
declaratively, exactly like the paper's "read-heavy", "update-heavy" and
use-case workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.errors import WorkloadError


@dataclass(frozen=True)
class TransactionMix:
    """A normalized weighted mix of chaincode function invocations."""

    weights: Tuple[Tuple[str, float], ...]

    @classmethod
    def from_dict(cls, weights: Dict[str, float]) -> "TransactionMix":
        """Build a mix from ``{function: weight}``; weights need not sum to 1."""
        if not weights:
            raise WorkloadError("a transaction mix needs at least one function")
        total = math.fsum(weights.values())
        if total <= 0:
            raise WorkloadError("transaction mix weights must sum to a positive value")
        for function, weight in weights.items():
            if weight < 0:
                raise WorkloadError(f"negative weight {weight} for function {function!r}")
        normalized = tuple(
            (function, weight / total) for function, weight in sorted(weights.items())
        )
        return cls(weights=normalized)

    @classmethod
    def uniform(cls, functions: List[str]) -> "TransactionMix":
        """Equal weight for every function."""
        return cls.from_dict({function: 1.0 for function in functions})

    def functions(self) -> List[str]:
        """Functions with non-zero probability."""
        return [function for function, weight in self.weights if weight > 0]

    def probability(self, function: str) -> float:
        """Probability of invoking ``function`` (0 when not in the mix)."""
        for name, weight in self.weights:
            if name == function:
                return weight
        return 0.0

    def as_dict(self) -> Dict[str, float]:
        """The mix as a plain dict."""
        return dict(self.weights)


@dataclass
class WorkloadSpec:
    """A named workload: a chaincode plus the mix of functions invoked on it."""

    name: str
    chaincode: str
    mix: TransactionMix
    chaincode_kwargs: Dict[str, Any] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("a workload spec needs a non-empty name")
        if not self.chaincode:
            raise WorkloadError("a workload spec needs a chaincode name")
