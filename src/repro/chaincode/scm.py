"""Supply Chain Management (SCM) chaincode — paper Section 4.3 and Table 2.

The chaincode implements the standard operations of a logistics network:
logistic service providers (LSPs) manage logistic units tracked by global trade
item numbers; advanced shipping notices (ASNs) can be registered before a
shipping; shipping moves a unit from its origin LSP to a destination LSP; and
units can be unloaded to extract the embedded trade items.

The world state is populated with five LSPs: four with 400 logistic units each
and a fifth with 800 units.  ``queryASN`` range-reads all units of a random
LSP; ``queryStock`` is the ``RR*`` query of Table 2 for which Fabric performs
no phantom-read detection.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.chaincode.api import ChaincodeStub
from repro.chaincode.base import Chaincode, IndexChooser, chaincode_function
from repro.errors import KeyNotFoundError


class SupplyChainChaincode(Chaincode):
    """The SCM chaincode with the Table 2 operation profile."""

    name = "SCM"

    def __init__(self, units_per_lsp: Optional[List[int]] = None) -> None:
        #: Units managed by each LSP; the paper uses [400, 400, 400, 400, 800].
        self.units_per_lsp = list(units_per_lsp) if units_per_lsp else [400, 400, 400, 400, 800]
        self.lsps = len(self.units_per_lsp)
        self._asn_counter = 0
        super().__init__()

    # ------------------------------------------------------------------- keys
    @staticmethod
    def lsp_key(lsp: int) -> str:
        """World-state key of a logistic service provider record."""
        return f"lsp_{lsp:03d}"

    @staticmethod
    def unit_key(lsp: int, unit: int) -> str:
        """World-state key of a logistic unit, prefixed by its current LSP."""
        return f"unit_{lsp:03d}_{unit:05d}"

    @staticmethod
    def asn_key(asn: int) -> str:
        """World-state key of an advanced shipping notice."""
        return f"asn_{asn:06d}"

    # ------------------------------------------------------------------ setup
    def initial_state(self, rng: random.Random) -> Dict[str, Any]:
        """Five LSPs with 400/400/400/400/800 logistic units."""
        state: Dict[str, Any] = {}
        for lsp, unit_count in enumerate(self.units_per_lsp):
            state[self.lsp_key(lsp)] = {"lsp": lsp, "unit_count": unit_count}
            for unit in range(unit_count):
                state[self.unit_key(lsp, unit)] = {
                    "gtin": f"gtin-{lsp}-{unit}",
                    "sscc": f"sscc-{lsp}-{unit}",
                    "lsp": lsp,
                    "items": 1 + (unit % 4),
                    "unloaded": False,
                }
        return state

    def genesis_identity(self) -> Tuple[int, ...]:
        return tuple(self.units_per_lsp)

    # -------------------------------------------------------------- functions
    @chaincode_function()
    def initLedger(self, stub: ChaincodeStub, lsp: int) -> str:
        """Register one LSP and its stock index (2xW)."""
        stub.put_state(self.lsp_key(lsp), {"lsp": lsp, "unit_count": 0})
        stub.put_state(f"stock_index_{lsp:03d}", {"lsp": lsp, "units": []})
        return "OK"

    @chaincode_function()
    def pushASN(self, stub: ChaincodeStub, asn: int, origin: int, destination: int) -> str:
        """Register an advanced shipping notice prior to a shipping (1xW)."""
        stub.put_state(
            self.asn_key(asn),
            {"asn": asn, "origin": origin, "destination": destination, "shipped": False},
        )
        return "OK"

    @chaincode_function()
    def Ship(self, stub: ChaincodeStub, lsp: int, unit: int, destination: int) -> str:
        """Ship a logistic unit from its LSP to a destination LSP (2xR, 2xW)."""
        unit_record = self._require(stub, self.unit_key(lsp, unit))
        destination_record = self._require(stub, self.lsp_key(destination))
        moved = dict(unit_record)
        moved["lsp"] = destination
        new_destination = dict(destination_record)
        new_destination["unit_count"] = destination_record.get("unit_count", 0) + 1
        stub.put_state(self.unit_key(lsp, unit), moved)
        stub.put_state(self.lsp_key(destination), new_destination)
        return "OK"

    @chaincode_function()
    def Unload(self, stub: ChaincodeStub, lsp: int, unit: int) -> str:
        """Unload a logistic unit to extract the embedded trade items (2xR, 2xW)."""
        unit_record = self._require(stub, self.unit_key(lsp, unit))
        lsp_record = self._require(stub, self.lsp_key(lsp))
        unloaded = dict(unit_record)
        unloaded["unloaded"] = True
        new_lsp = dict(lsp_record)
        new_lsp["unit_count"] = max(0, lsp_record.get("unit_count", 0) - 1)
        stub.put_state(self.unit_key(lsp, unit), unloaded)
        stub.put_state(self.lsp_key(lsp), new_lsp)
        return "OK"

    @chaincode_function(read_only=True)
    def queryASN(self, stub: ChaincodeStub, lsp: int) -> List[Tuple[str, Any]]:
        """Query all logistic units of a random LSP (1xRR, phantom-checked)."""
        prefix = f"unit_{lsp:03d}_"
        return stub.get_state_by_range(prefix, prefix + "~")

    @chaincode_function(read_only=True)
    def queryStock(self, stub: ChaincodeStub, lsp: int) -> int:
        """Count the stock of an LSP (1xRR*, no phantom detection).

        Table 2 marks this query with ``RR*``: Fabric does not detect phantom
        reads for it.  On CouchDB it is implemented as a rich query
        (``GetQueryResult``); on LevelDB the equivalent range scan is used but
        flagged as not re-validated, preserving the failure semantics.
        """
        if stub.store.supports_rich_queries:
            results = stub.get_query_result({"lsp": lsp})
        else:
            prefix = f"unit_{lsp:03d}_"
            results = stub.get_state_by_range(prefix, prefix + "~")
            stub.rwset.range_reads[-1].phantom_detection = False
            stub.rwset.range_reads[-1].rich_query = True
        return sum(value.get("items", 0) for _key, value in results if isinstance(value, dict))

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
        lsp = rng.randrange(self.lsps)
        if function in {"queryASN", "queryStock", "initLedger"}:
            return (lsp,)
        if function == "pushASN":
            self._asn_counter += 1
            destination = rng.randrange(self.lsps)
            return (self._asn_counter, lsp, destination)
        if function in {"Ship", "Unload"}:
            unit = self._choose(rng, self.units_per_lsp[lsp], index_chooser)
            if function == "Ship":
                destination = rng.randrange(self.lsps)
                return (lsp, unit, destination)
            return (lsp, unit)
        return (lsp,)

    def operation_profile(self) -> Dict[str, str]:
        return {
            "initLedger": "2xW",
            "pushASN": "1xW",
            "Ship": "2xR, 2xW",
            "Unload": "2xR, 2xW",
            "queryASN": "1xRR",
            "queryStock": "1xRR*",
        }
