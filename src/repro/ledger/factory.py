"""State-database backend factory, and the one genesis a process shares.

Instantiating the configured world-state backend is a ledger concern.  The
factory deliberately accepts plain strings as well as the
:class:`~repro.network.config.DatabaseType` enum so the ledger package never
has to import upward from the network layer.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.errors import ConfigurationError
from repro.ledger.couchdb import CouchDBStore
from repro.ledger.kvstore import VersionedKVStore
from repro.ledger.leveldb import LevelDBStore

#: ``(chaincode class, genesis identity, backend class) -> frozen base``: one entry.
_shared_genesis: Dict[tuple, VersionedKVStore] = {}


def make_state_store(database: Any) -> VersionedKVStore:
    """Instantiate the configured state database backend.

    ``database`` is either a ``DatabaseType`` enum member or its
    (case-insensitive) string name, ``"leveldb"`` or ``"couchdb"``.
    """
    name = str(getattr(database, "value", database)).strip().lower()
    if name == "couchdb":
        return CouchDBStore()
    if name == "leveldb":
        return LevelDBStore()
    raise ConfigurationError(
        f"unknown database type {database!r}; expected 'leveldb' or 'couchdb'"
    )


def genesis_base(chaincode: Any, database: Any, make_rng: Callable) -> VersionedKVStore:
    """The frozen ``database`` store holding ``chaincode``'s initial state.

    A chaincode that declares its :meth:`~repro.chaincode.base.Chaincode.genesis_identity`
    gets the base the process already holds for it — all channels of all such
    cells overlay one store — and ``make_rng`` (the ``initial-state`` stream) is
    not called.  One population is kept, and dropped *before* another is built.
    An identity of ``None`` builds a base of its own and shares nothing.
    """
    store = make_state_store(database)
    identity = chaincode.genesis_identity()
    key = (type(chaincode), identity, type(store))
    if identity is not None:
        if key in _shared_genesis:
            return _shared_genesis[key]
        _shared_genesis.clear()
    rng = make_rng()
    untouched = rng.getstate()
    store.populate(chaincode.initial_state(rng))
    store.freeze()
    if identity is not None:
        if rng.getstate() != untouched:
            raise ConfigurationError(
                f"{type(chaincode).__name__} declares a genesis_identity() but initial_state draws"
            )
        _shared_genesis[key] = store
    return store
