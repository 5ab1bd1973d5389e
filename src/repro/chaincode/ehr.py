"""Electronic Health Records (EHR) chaincode — paper Section 4.3 and Table 2.

Every patient owns two entities: a *profile* (personal information and access
credentials) and an *electronic health record*.  Access to either can be
granted or revoked at any time, and authorised medical actors may query or
update the records.  The chaincode only manages access credentials and logical
connections; the payload data would live off-chain.

The world state is populated with 100 profiles and 100 health records (the
paper intentionally uses small key populations to induce conflicts).
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional, Tuple

from repro.chaincode.api import ChaincodeStub
from repro.chaincode.base import Chaincode, IndexChooser, chaincode_function
from repro.errors import KeyNotFoundError


class ElectronicHealthRecordsChaincode(Chaincode):
    """The EHR chaincode with the Table 2 operation profile."""

    name = "EHR"

    #: Functions whose sampled arguments are ``(patient, actor)``.
    _ACTOR_FUNCTIONS = frozenset(
        {"grantProfileAccess", "revokeProfileAccess", "grantEhrAccess", "revokeEhrAccess"}
    )

    def __init__(self, patients: int = 100, medical_actors: int = 50) -> None:
        self.patients = patients
        self.medical_actors = medical_actors
        # Key strings are pure functions of small bounded indexes; interning
        # them once removes per-invocation f-string formatting from the
        # endorsement hot path (every function call formats 1-2 keys).
        self._profile_keys = tuple(self.profile_key(p) for p in range(patients))
        self._ehr_keys = tuple(self.ehr_key(p) for p in range(patients))
        self._actor_ids = tuple(self.actor_id(a) for a in range(medical_actors))
        super().__init__()

    # ------------------------------------------------------------------- keys
    @staticmethod
    def profile_key(patient: int) -> str:
        """World-state key of a patient's profile."""
        return f"profile_{patient:05d}"

    @staticmethod
    def ehr_key(patient: int) -> str:
        """World-state key of a patient's electronic health record."""
        return f"ehr_{patient:05d}"

    @staticmethod
    def actor_id(actor: int) -> str:
        """Identifier of a medical actor (doctor or researcher)."""
        return f"actor_{actor:04d}"

    def _pkey(self, patient: int) -> str:
        """Cached :meth:`profile_key` for in-population patients."""
        keys = self._profile_keys
        if 0 <= patient < len(keys):
            return keys[patient]
        return self.profile_key(patient)

    def _ekey(self, patient: int) -> str:
        """Cached :meth:`ehr_key` for in-population patients."""
        keys = self._ehr_keys
        if 0 <= patient < len(keys):
            return keys[patient]
        return self.ehr_key(patient)

    # ------------------------------------------------------------------ setup
    def initial_state(self, rng: random.Random) -> Dict[str, Any]:
        """100 profiles and 100 health records (paper Section 4.3)."""
        state: Dict[str, Any] = {}
        for patient in range(self.patients):
            state[self.profile_key(patient)] = self._new_profile(patient)
            state[self.ehr_key(patient)] = self._new_ehr(patient)
        return state

    def genesis_identity(self) -> int:
        return self.patients  # the medical actors are not in the state

    def _new_profile(self, patient: int) -> Dict[str, Any]:
        return {
            "patient": patient,
            "profile_access": [],
            "ehr_access": [],
            "record_count": 0,
        }

    def _new_ehr(self, patient: int) -> Dict[str, Any]:
        return {"patient": patient, "records": [], "last_updated_by": None}

    # -------------------------------------------------------------- functions
    @chaincode_function()
    def initLedger(self, stub: ChaincodeStub, patient: int) -> str:
        """Create the profile and health record of one patient (2xW)."""
        stub.put_state(self._pkey(patient), self._new_profile(patient))
        stub.put_state(self._ekey(patient), self._new_ehr(patient))
        return "OK"

    @chaincode_function()
    def addEhr(self, stub: ChaincodeStub, patient: int, actor: str, entry: str) -> str:
        """Append a medical record entry for a patient (2xR, 2xW)."""
        profile = self._require(stub, self._pkey(patient))
        ehr = self._require(stub, self._ekey(patient))
        new_ehr = dict(ehr)
        new_ehr["records"] = list(ehr.get("records", [])) + [entry]
        new_ehr["last_updated_by"] = actor
        new_profile = dict(profile)
        new_profile["record_count"] = profile.get("record_count", 0) + 1
        stub.put_state(self._ekey(patient), new_ehr)
        stub.put_state(self._pkey(patient), new_profile)
        return "OK"

    @chaincode_function()
    def grantProfileAccess(self, stub: ChaincodeStub, patient: int, actor: str) -> str:
        """Grant a medical actor access to a patient's profile (1xR, 1xW)."""
        profile = self._require(stub, self._pkey(patient))
        updated = dict(profile)
        access = set(profile.get("profile_access", []))
        access.add(actor)
        updated["profile_access"] = sorted(access)
        stub.put_state(self._pkey(patient), updated)
        return "OK"

    @chaincode_function()
    def revokeProfileAccess(self, stub: ChaincodeStub, patient: int, actor: str) -> str:
        """Revoke a medical actor's access to a patient's profile (1xR, 1xW)."""
        profile = self._require(stub, self._pkey(patient))
        updated = dict(profile)
        updated["profile_access"] = [
            granted for granted in profile.get("profile_access", []) if granted != actor
        ]
        stub.put_state(self._pkey(patient), updated)
        return "OK"

    @chaincode_function()
    def grantEhrAccess(self, stub: ChaincodeStub, patient: int, actor: str) -> str:
        """Grant access to a patient's health record (2xR, 2xW)."""
        profile = self._require(stub, self._pkey(patient))
        ehr = self._require(stub, self._ekey(patient))
        new_profile = dict(profile)
        access = set(profile.get("ehr_access", []))
        access.add(actor)
        new_profile["ehr_access"] = sorted(access)
        new_ehr = dict(ehr)
        new_ehr["last_updated_by"] = actor
        stub.put_state(self._pkey(patient), new_profile)
        stub.put_state(self._ekey(patient), new_ehr)
        return "OK"

    @chaincode_function()
    def revokeEhrAccess(self, stub: ChaincodeStub, patient: int, actor: str) -> str:
        """Revoke access to a patient's health record (2xR, 2xW)."""
        profile = self._require(stub, self._pkey(patient))
        ehr = self._require(stub, self._ekey(patient))
        new_profile = dict(profile)
        new_profile["ehr_access"] = [
            granted for granted in profile.get("ehr_access", []) if granted != actor
        ]
        new_ehr = dict(ehr)
        new_ehr["last_updated_by"] = actor
        stub.put_state(self._pkey(patient), new_profile)
        stub.put_state(self._ekey(patient), new_ehr)
        return "OK"

    @chaincode_function(read_only=True)
    def readProfile(self, stub: ChaincodeStub, patient: int) -> Optional[Dict[str, Any]]:
        """Read a patient's full profile (1xR)."""
        return stub.get_state(self._pkey(patient))

    @chaincode_function(read_only=True)
    def viewPartialProfile(self, stub: ChaincodeStub, patient: int) -> Optional[Dict[str, Any]]:
        """Read the non-sensitive part of a patient's profile (1xR)."""
        profile = stub.get_state(self._pkey(patient))
        if profile is None:
            return None
        return {"patient": profile.get("patient"), "record_count": profile.get("record_count")}

    @chaincode_function(read_only=True)
    def viewEHR(self, stub: ChaincodeStub, patient: int) -> Optional[Dict[str, Any]]:
        """Read a patient's health record (1xR)."""
        return stub.get_state(self._ekey(patient))

    @chaincode_function(read_only=True)
    def queryEHR(self, stub: ChaincodeStub, patient: int) -> int:
        """Count a patient's record entries (1xR)."""
        ehr = stub.get_state(self._ekey(patient))
        if ehr is None:
            return 0
        return len(ehr.get("records", []))

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
        patient = self._choose(rng, self.patients, index_chooser)
        # The actor *draw* happens for every function so the stream position
        # is independent of the drawn function; the actor *string* is only
        # looked up (from the interned cache) when the arguments use it.
        actor_index = rng.randrange(self.medical_actors)
        if function == "initLedger":
            return (patient,)
        if function == "addEhr":
            return (patient, self._actor_ids[actor_index], f"visit-{rng.randrange(10_000)}")
        if function in self._ACTOR_FUNCTIONS:
            return (patient, self._actor_ids[actor_index])
        return (patient,)

    def operation_profile(self) -> Dict[str, str]:
        return {
            "initLedger": "2xW",
            "addEhr": "2xR, 2xW",
            "grantProfileAccess": "1xR, 1xW",
            "readProfile": "1xR",
            "revokeProfileAccess": "1xR, 1xW",
            "viewPartialProfile": "1xR",
            "revokeEhrAccess": "2xR, 2xW",
            "viewEHR": "1xR",
            "grantEhrAccess": "2xR, 2xW",
            "queryEHR": "1xR",
        }
