"""The chaincode execution API (Fabric's ``ChaincodeStub`` analog).

During the execution phase an endorsing peer *simulates* the transaction
against its local world state: reads return the currently committed value and
record ``(key, version)`` pairs into the read set, writes are buffered into the
write set, and range/rich queries record range reads.  The stub also charges
the latency of every state-database call according to the backend's
:class:`~repro.ledger.kvstore.DatabaseLatencyProfile`, which is how the
CouchDB-vs-LevelDB effects of Table 4 and Figure 11 arise.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import LedgerError, UnsupportedFeatureError
from repro.ledger.couchdb import RichSelector
from repro.ledger.rwset import KeyRead, KeyWrite, RangeRead, ReadWriteSet
from repro.ledger.store import StateStore


class ChaincodeStub:
    """Execution context handed to a chaincode function by an endorsing peer.

    ``store`` is any :class:`~repro.ledger.store.StateStore` view — a concrete
    backend, a peer's shared-base overlay, or FabricSharp's lagged snapshot.

    One stub is constructed per endorsement, and ``get_state``/``put_state``
    run once per chaincode operation, so the class is slotted and the
    per-operation bookkeeping (latency charge, read-set append) is inlined
    with the store's latency profile cached at construction.

    ``state_token`` is the ``state_token`` of ``store`` as the endorser read
    it (``None`` when unknown); every range read is stamped with it.
    """

    __slots__ = (
        "store",
        "state_token",
        "rwset",
        "execution_cost",
        "db_call_latency",
        "_pending_writes",
        "_latency",
    )

    def __init__(self, store: StateStore, state_token: Optional[int] = None) -> None:
        self.store = store
        self.state_token = state_token
        self.rwset = ReadWriteSet()
        self.execution_cost = 0.0
        self.db_call_latency: Dict[str, float] = {}
        self._pending_writes: Dict[str, KeyWrite] = {}
        self._latency = store.latency

    # ----------------------------------------------------------------- helpers
    def _charge(self, operation: str, cost: float) -> None:
        self.execution_cost += cost
        latency = self.db_call_latency
        latency[operation] = latency.get(operation, 0.0) + cost

    # ------------------------------------------------------------------- reads
    def get_state(self, key: str) -> Optional[Any]:
        """Read a key from the committed world state.

        Returns ``None`` when the key does not exist.  Reads are recorded in
        the read set with the version observed at endorsement time (``None``
        for missing keys), which is what MVCC validation later checks.
        """
        cost = self._latency.get_state
        self.execution_cost += cost
        latency = self.db_call_latency
        latency["GetState"] = latency.get("GetState", 0.0) + cost
        entry = self.store.get(key)
        if entry is None:
            self.rwset.reads.append(KeyRead(key, None))
            return None
        self.rwset.reads.append(KeyRead(key, entry.version))
        return entry.value

    def get_state_by_range(self, start_key: str, end_key: str) -> List[Tuple[str, Any]]:
        """Range read over ``[start_key, end_key)`` with phantom detection.

        The validator re-executes this range in the validation phase; any
        inserted, deleted or updated key inside the interval fails the
        transaction with a phantom read conflict (paper Section 3.2.3).
        """
        results = self.store.range(start_key, end_key)
        self._charge("GetRange", self._latency.range_cost(len(results)))
        reads = [KeyRead(key, entry.version) for key, entry in results]
        self.rwset.range_reads.append(
            RangeRead(
                start_key=start_key,
                end_key=end_key,
                reads=reads,
                phantom_detection=True,
                rich_query=False,
                state_token=self.state_token,
            )
        )
        return [(key, entry.value) for key, entry in results]

    def get_query_result(self, selector: RichSelector) -> List[Tuple[str, Any]]:
        """Rich (Mango-style) query; only supported on CouchDB.

        Fabric does not re-execute rich queries during validation, so these
        reads can never fail with a phantom read conflict — the paper flags the
        corresponding chaincode functions with ``RR*`` in Table 2.
        """
        if not self.store.supports_rich_queries:
            raise UnsupportedFeatureError(
                "GetQueryResult (rich queries) requires CouchDB as the state database"
            )
        results = self.store.rich_query(selector)
        self._charge("GetQueryResult", self._latency.rich_query_cost(len(results)))
        reads = [KeyRead(key, entry.version) for key, entry in results]
        self.rwset.range_reads.append(
            RangeRead(
                start_key="",
                end_key="",
                reads=reads,
                phantom_detection=False,
                rich_query=True,
            )
        )
        return [(key, entry.value) for key, entry in results]

    # ------------------------------------------------------------------ writes
    def put_state(self, key: str, value: Any) -> None:
        """Buffer a write; it is applied only if the transaction commits.

        A key that is not a non-empty string raises
        :class:`~repro.errors.LedgerError` here, at endorsement, rather than
        when the validator stages the write.
        """
        if not isinstance(key, str) or not key:
            raise LedgerError(f"world state keys must be non-empty strings, got {key!r}")
        cost = self._latency.put_state
        self.execution_cost += cost
        latency = self.db_call_latency
        latency["PutState"] = latency.get("PutState", 0.0) + cost
        self._record_write(KeyWrite(key, value, False))

    def del_state(self, key: str) -> None:
        """Buffer a deletion; it is applied only if the transaction commits
        (keys are checked as in :meth:`put_state`)."""
        if not isinstance(key, str) or not key:
            raise LedgerError(f"world state keys must be non-empty strings, got {key!r}")
        self._charge("DeleteState", self._latency.delete_state)
        self._record_write(KeyWrite(key, None, True))

    def _record_write(self, write: KeyWrite) -> None:
        # Fabric keeps one write per key in the write set (the last one wins).
        if write.key in self._pending_writes:
            previous = self._pending_writes[write.key]
            index = self.rwset.writes.index(previous)
            self.rwset.writes[index] = write
        else:
            self.rwset.writes.append(write)
        self._pending_writes[write.key] = write

    # -------------------------------------------------------------- inspection
    @property
    def read_count(self) -> int:
        """Number of point reads performed so far."""
        return len(self.rwset.reads)

