"""Digital Rights Management (DRM) chaincode — paper Section 4.3 and Table 2.

Artists share and manage their work on the blockchain: the metadata of 200
artworks is stored (in the "dot blockchain media" format of the paper), 200
right holders are identified by industry-standard IDs, royalties are managed on
chain and the current revenue of a right holder can be calculated.
``calcRevenue`` is the ``RR*`` query for which no phantom detection happens.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional, Tuple

from repro.chaincode.api import ChaincodeStub
from repro.chaincode.base import Chaincode, IndexChooser, chaincode_function
from repro.errors import KeyNotFoundError


class DigitalRightsChaincode(Chaincode):
    """The DRM chaincode with the Table 2 operation profile."""

    name = "DRM"

    def __init__(self, artworks: int = 200, right_holders: int = 200) -> None:
        self.artworks = artworks
        self.right_holders = right_holders
        self._created = artworks
        super().__init__()

    # ------------------------------------------------------------------- keys
    @staticmethod
    def artwork_key(artwork: int) -> str:
        """World-state key of an artwork's metadata document."""
        return f"artwork_{artwork:06d}"

    @staticmethod
    def rights_key(artwork: int) -> str:
        """World-state key of an artwork's rights record."""
        return f"rights_{artwork:06d}"

    @staticmethod
    def holder_id(holder: int) -> str:
        """Industry-standard identifier of a right holder."""
        return f"IPI-{holder:08d}"

    # ------------------------------------------------------------------ setup
    def initial_state(self, rng: random.Random) -> Dict[str, Any]:
        """200 artworks with metadata and rights records (paper Section 4.3)."""
        state: Dict[str, Any] = {}
        for artwork in range(self.artworks):
            holder = artwork % self.right_holders
            state[self.artwork_key(artwork)] = {
                "artwork": artwork,
                "holder": self.holder_id(holder),
                "plays": 0,
                "format": "dotBC",
            }
            state[self.rights_key(artwork)] = {
                "artwork": artwork,
                "holder": self.holder_id(holder),
                "royalty_per_play": 0.01 * (1 + artwork % 5),
            }
        return state

    def genesis_identity(self) -> Tuple[int, int]:
        return (self.artworks, self.right_holders)

    # -------------------------------------------------------------- functions
    @chaincode_function()
    def initLedger(self, stub: ChaincodeStub, artwork: int) -> str:
        """Create the metadata and rights record of one artwork (2xW)."""
        holder = self.holder_id(artwork % self.right_holders)
        stub.put_state(
            self.artwork_key(artwork),
            {"artwork": artwork, "holder": holder, "plays": 0, "format": "dotBC"},
        )
        stub.put_state(
            self.rights_key(artwork),
            {"artwork": artwork, "holder": holder, "royalty_per_play": 0.01},
        )
        return "OK"

    @chaincode_function()
    def create(self, stub: ChaincodeStub, artwork: int, holder: int) -> str:
        """Register a new artwork owned by a right holder (1xR, 2xW)."""
        stub.get_state(self.artwork_key(artwork))
        holder_name = self.holder_id(holder)
        stub.put_state(
            self.artwork_key(artwork),
            {"artwork": artwork, "holder": holder_name, "plays": 0, "format": "dotBC"},
        )
        stub.put_state(
            self.rights_key(artwork),
            {"artwork": artwork, "holder": holder_name, "royalty_per_play": 0.01},
        )
        return "OK"

    @chaincode_function()
    def play(self, stub: ChaincodeStub, artwork: int) -> str:
        """Record one play of an artwork (2xR, 1xW)."""
        metadata = self._require(stub, self.artwork_key(artwork))
        self._require(stub, self.rights_key(artwork))
        updated = dict(metadata)
        updated["plays"] = metadata.get("plays", 0) + 1
        stub.put_state(self.artwork_key(artwork), updated)
        return "OK"

    @chaincode_function(read_only=True)
    def queryRghts(self, stub: ChaincodeStub, artwork: int) -> Dict[str, Any]:
        """Return the rights and royalty information of an artwork (2xR)."""
        metadata = stub.get_state(self.artwork_key(artwork)) or {}
        rights = stub.get_state(self.rights_key(artwork)) or {}
        return {"holder": rights.get("holder", metadata.get("holder")), "rights": rights}

    @chaincode_function(read_only=True)
    def viewMetaData(self, stub: ChaincodeStub, artwork: int) -> Optional[Dict[str, Any]]:
        """Return an artwork's metadata document (1xR)."""
        return stub.get_state(self.artwork_key(artwork))

    @chaincode_function(read_only=True)
    def calcRevenue(self, stub: ChaincodeStub, holder: int) -> float:
        """Calculate a right holder's current revenue (1xRR*, no phantom check).

        On CouchDB this is a rich query over the artwork documents owned by the
        holder; on LevelDB the equivalent range scan is flagged as not
        re-validated, mirroring the ``RR*`` footnote of Table 2.
        """
        holder_name = self.holder_id(holder)
        if stub.store.supports_rich_queries:
            results = stub.get_query_result({"holder": holder_name})
        else:
            results = stub.get_state_by_range("artwork_", "artwork_~")
            stub.rwset.range_reads[-1].phantom_detection = False
            stub.rwset.range_reads[-1].rich_query = True
            results = [
                (key, value)
                for key, value in results
                if isinstance(value, dict) and value.get("holder") == holder_name
            ]
        return float(
            sum(value.get("plays", 0) * 0.01 for _key, value in results if isinstance(value, dict))
        )

    # -------------------------------------------------------------- utilities
    def _require(self, stub: ChaincodeStub, key: str) -> Dict[str, Any]:
        value = stub.get_state(key)
        if value is None:
            raise KeyNotFoundError(key)
        return value

    # ----------------------------------------------------------- workload glue
    def sample_args(
        self,
        function: str,
        rng: random.Random,
        index_chooser: Optional[IndexChooser] = None,
    ) -> Tuple[Any, ...]:
        artwork = self._choose(rng, self.artworks, index_chooser)
        if function == "create":
            self._created += 1
            holder = rng.randrange(self.right_holders)
            return (self._created, holder)
        if function == "calcRevenue":
            holder = self._choose(rng, self.right_holders, index_chooser)
            return (holder,)
        return (artwork,)

    def operation_profile(self) -> Dict[str, str]:
        return {
            "initLedger": "2xW",
            "create": "1xR, 2xW",
            "play": "2xR, 1xW",
            "queryRghts": "2xR",
            "viewMetaData": "1xR",
            "calcRevenue": "1xRR*",
        }
