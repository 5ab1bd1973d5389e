"""Base class and registration decorator for chaincodes.

A chaincode is a collection of named functions executed against a
:class:`~repro.chaincode.api.ChaincodeStub`.  Each concrete chaincode also
declares its initial world-state population and knows how to sample realistic
invocation arguments, so that the workload layer stays chaincode-agnostic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.chaincode.api import ChaincodeStub
from repro.errors import ChaincodeError, UnknownFunctionError

#: A chooser maps a population size ``n`` to an index in ``[0, n)``; the
#: workload layer supplies Zipfian or uniform choosers (Section 4.5, "Zipfian skew").
IndexChooser = Callable[[int], int]


def chaincode_function(read_only: bool = False) -> Callable:
    """Decorator registering a method as an invocable chaincode function.

    ``read_only`` marks functions that perform no writes; the client-design
    recommendation of Section 6.1 (do not submit read-only transactions for
    ordering) is implemented on top of this flag.

    A chaincode function must be a pure function of the stub's state and its
    arguments: its result is shared by every endorsement of the same call on
    one channel that reads the same state — other endorsers of the
    transaction and other transactions alike (``scripts/check_hot_path.py``
    rule 4 rejects the visible ways not to be).
    """

    def decorate(method: Callable) -> Callable:
        method.__chaincode_function__ = True
        method.__chaincode_read_only__ = read_only
        return method

    return decorate


@dataclass
class ChaincodeResponse:
    """Result of invoking a chaincode function on a stub."""

    function: str
    payload: Any
    read_only: bool


class Chaincode:
    """Base class for all chaincodes.

    Subclasses define functions with the :func:`chaincode_function` decorator
    and override :meth:`initial_state` and :meth:`sample_args`.
    """

    #: Short name used in the paper's figures (EHR, DV, SCM, DRM, genChain).
    name: str = "chaincode"

    def __init__(self) -> None:
        self._functions: Dict[str, Callable[..., Any]] = {}
        self._read_only: Dict[str, bool] = {}
        for attribute in dir(self):
            method = getattr(self, attribute)
            if callable(method) and getattr(method, "__chaincode_function__", False):
                self._functions[attribute] = method
                self._read_only[attribute] = bool(
                    getattr(method, "__chaincode_read_only__", False)
                )

    # ----------------------------------------------------------------- queries
    def functions(self) -> List[str]:
        """Names of all invocable functions, sorted for determinism."""
        return sorted(self._functions)

    def invocable_functions(self) -> List[str]:
        """Functions a workload may invoke (everything except ``initLedger``)."""
        return [name for name in self.functions() if name != "initLedger"]

    def is_read_only(self, function: str) -> bool:
        """True when ``function`` performs no writes."""
        if function not in self._read_only:
            raise UnknownFunctionError(self.name, function)
        return self._read_only[function]

    # --------------------------------------------------------------- execution
    def execute(self, stub: ChaincodeStub, function: str, args: Tuple[Any, ...]) -> Any:
        """Execute ``function(*args)`` against ``stub`` and return its payload.

        The lean path behind :meth:`invoke`: endorsing peers call this
        directly because they only need the stub's side effects (read/write
        set, execution cost, call latencies) and would discard a response
        wrapper.  Those side effects are kept in the channel's result table
        and handed to every later endorsement of ``(function, args)`` that
        reads the same state, in this transaction or another, so the call
        must depend on nothing but ``stub``'s state, ``function`` and ``args``
        (see :meth:`repro.network.peer.Peer.receive_proposal`).
        """
        method = self._functions.get(function)
        if method is None:
            raise UnknownFunctionError(self.name, function)
        try:
            return method(stub, *args)
        except ChaincodeError:
            raise
        except Exception as exc:  # pragma: no cover - defensive
            raise ChaincodeError(
                f"chaincode {self.name!r} function {function!r} raised {exc!r}"
            ) from exc

    def invoke(self, stub: ChaincodeStub, function: str, args: Tuple[Any, ...]) -> ChaincodeResponse:
        """Execute ``function(*args)`` against ``stub`` and return its response."""
        payload = self.execute(stub, function, args)
        return ChaincodeResponse(
            function=function, payload=payload, read_only=self.is_read_only(function)
        )

    # ------------------------------------------------------------------- setup
    def initial_state(self, rng: random.Random) -> Dict[str, Any]:
        """Initial world-state population (paper Section 4.3, per chaincode)."""
        raise NotImplementedError

    def genesis_identity(self) -> Optional[Hashable]:
        """What :meth:`initial_state` is a function of, or ``None``: never shared.

        Instances of one class that answer equal values promise equal initial
        states, built without a draw from ``rng``: all their channels, in every
        cell of a process, overlay one frozen genesis (checked by
        :func:`repro.ledger.factory.genesis_base`).  Override it together with
        ``initial_state``, naming exactly the constructor parameters that reads.
        """
        return None

    def sample_args(
        self,
        function: str,
        rng: random.Random,
        index_chooser: Optional[IndexChooser] = None,
    ) -> Tuple[Any, ...]:
        """Sample realistic arguments for ``function``.

        ``index_chooser`` selects entity indexes (patients, voters, keys, ...);
        when omitted, entities are chosen uniformly at random.
        """
        raise NotImplementedError

    # --------------------------------------------------------------- reporting
    def operation_profile(self) -> Dict[str, str]:
        """Human-readable operation counts per function (Table 2 style).

        Subclasses override this with the counts the paper reports; it is used
        by the Table 2 benchmark to cross-check the implementations.
        """
        return {}

    def _choose(self, rng: random.Random, population: int, chooser: Optional[IndexChooser]) -> int:
        """Pick an entity index using the supplied chooser or a uniform draw."""
        if population <= 0:
            raise ChaincodeError(f"chaincode {self.name!r} has an empty entity population")
        if chooser is None:
            return rng.randrange(population)
        index = chooser(population)
        if not 0 <= index < population:
            raise ChaincodeError(
                f"index chooser returned {index}, outside the population [0, {population})"
            )
        return index
