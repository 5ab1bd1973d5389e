"""The synthetic ``genChain`` chaincode — paper Section 4.4.

``genChain`` comprises equally distributed read, insert, update, delete and
range-read functions and is used for controlled experiments and
microbenchmarks.  The world state is initialised with a large number of keys
(100,000 in the paper) to allow experiments with reduced transaction conflicts;
the read-heavy / insert-heavy / update-heavy / delete-heavy / range-heavy
workloads of Figures 14, 19, 22 and 25 are built on top of it.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.chaincode.api import ChaincodeStub
from repro.chaincode.base import Chaincode, IndexChooser, chaincode_function

#: Range-read widths used by the paper ("The range queries access a range of
#: 2, 4 or 8 keys uniformly at random").
RANGE_WIDTHS = (2, 4, 8)


class GenChainChaincode(Chaincode):
    """Synthetic chaincode with one function per basic state operation."""

    name = "genChain"

    def __init__(self, num_keys: int = 100_000, active_keys: Optional[int] = None) -> None:
        if num_keys <= 0:
            raise ValueError(f"genChain needs a positive key population, got {num_keys}")
        self.num_keys = num_keys
        #: Reads and updates are sampled from the first ``active_keys`` keys;
        #: restricting this models hot-set experiments without changing the
        #: total population.
        self.active_keys = min(active_keys, num_keys) if active_keys else num_keys
        self._insert_counter = num_keys
        self._delete_counter = 0
        super().__init__()

    # ------------------------------------------------------------------- keys
    @staticmethod
    def key(index: int) -> str:
        """World-state key for the synthetic record ``index``."""
        return f"gk{index:08d}"

    # ------------------------------------------------------------------ setup
    def initial_state(self, rng: random.Random) -> Dict[str, Any]:
        """Populate ``num_keys`` synthetic records."""
        return {self.key(index): {"value": index, "writes": 0} for index in range(self.num_keys)}

    def genesis_identity(self) -> int:
        return self.num_keys  # ``active_keys`` only steers the draws

    # -------------------------------------------------------------- functions
    @chaincode_function(read_only=True)
    def readKey(self, stub: ChaincodeStub, index: int) -> Optional[Any]:
        """Read one key (1xR)."""
        return stub.get_state(self.key(index))

    @chaincode_function()
    def insertKey(self, stub: ChaincodeStub, index: int) -> str:
        """Insert one previously unused key (1xW); never conflicts."""
        stub.put_state(self.key(index), {"value": index, "writes": 0})
        return "OK"

    @chaincode_function()
    def updateKey(self, stub: ChaincodeStub, index: int) -> str:
        """Read-modify-write one key (1xR, 1xW)."""
        current = stub.get_state(self.key(index)) or {"value": index, "writes": 0}
        updated = dict(current)
        updated["writes"] = current.get("writes", 0) + 1
        stub.put_state(self.key(index), updated)
        return "OK"

    @chaincode_function()
    def deleteKey(self, stub: ChaincodeStub, index: int) -> str:
        """Delete one key (1xD); each invocation targets a unique key."""
        stub.del_state(self.key(index))
        return "OK"

    @chaincode_function(read_only=True)
    def rangeRead(self, stub: ChaincodeStub, start: int, width: int) -> List[Tuple[str, Any]]:
        """Range read over ``width`` consecutive keys (1xRR)."""
        end = min(start + width, self.num_keys)
        return stub.get_state_by_range(self.key(start), self.key(end))

    # ----------------------------------------------------------- workload glue
    def sample_args(
        self,
        function: str,
        rng: random.Random,
        index_chooser: Optional[IndexChooser] = None,
    ) -> Tuple[Any, ...]:
        if function == "insertKey":
            self._insert_counter += 1
            return (self._insert_counter,)
        if function == "deleteKey":
            index = self._delete_counter % self.num_keys
            self._delete_counter += 1
            return (index,)
        if function == "rangeRead":
            width = rng.choice(RANGE_WIDTHS)
            start = self._choose(rng, max(1, self.active_keys - width), index_chooser)
            return (start, width)
        index = self._choose(rng, self.active_keys, index_chooser)
        return (index,)

    def operation_profile(self) -> Dict[str, str]:
        return {
            "readKey": "1xR",
            "insertKey": "1xW",
            "updateKey": "1xR, 1xW",
            "deleteKey": "1xD",
            "rangeRead": "1xRR",
        }
