"""Committed-history export and offline re-checking (``repro-history/1``).

``repro run --check-isolation --history-out FILE`` writes the committed
history of a run — every transaction's position, read versions and written
keys, per channel — as a small JSON document, and ``repro check FILE``
replays it through the same streaming checker used online.  The format is
deliberately minimal: exactly the inputs the serialization-graph construction
needs, nothing else, so histories stay diffable and fabricating adversarial
ones in tests is a one-liner.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.checker.checker import ChannelChecker, ChannelIsolation, IsolationReport
from repro.checker.config import CheckerConfig
from repro.errors import ConfigurationError
from repro.ledger.kvstore import Version

HISTORY_FORMAT = "repro-history/1"

#: Appended to every load error so the CLI always tells the user what the
#: command accepts.
VALID_INPUT_HINT = (
    "valid inputs: a JSON history document with format " + repr(HISTORY_FORMAT) + ", "
    "as written by 'repro run --check-isolation --history-out FILE'"
)


def history_document(record) -> Dict[str, object]:
    """The ``repro-history/1`` document of a :class:`~repro.network.network.RunRecord`."""
    channels: List[Dict[str, object]] = []
    if record.channel_records:
        units = [
            (channel.index, channel.record.ledger, channel.record.early_aborted)
            for channel in record.channel_records
        ]
    else:
        units = [(None, record.ledger, record.early_aborted)]
    for channel, ledger, early_aborted in units:
        committed: List[Dict[str, object]] = []
        aborted: List[str] = []
        for block in ledger.blocks:
            for tx in block.transactions:
                if tx.is_committed:
                    committed.append(_transaction_entry(tx))
                else:
                    aborted.append(tx.tx_id)
        aborted.extend(tx.tx_id for tx in early_aborted)
        channels.append({"channel": channel, "committed": committed, "aborted": aborted})
    return {
        "format": HISTORY_FORMAT,
        "variant": record.variant_name,
        "chaincode": record.chaincode_name,
        "seed": record.seed,
        "channels": channels,
    }


def _transaction_entry(tx) -> Dict[str, object]:
    rwset = tx.rwset
    reads: List[List[object]] = []
    writes: List[List[object]] = []
    if rwset is not None:
        for key, version in rwset.all_reads():
            reads.append(
                [key, None if version is None else [version.block_number, version.tx_number]]
            )
        for write in rwset.writes:
            writes.append([write.key, bool(write.is_delete)])
    return {
        "tx": tx.tx_id,
        "block": tx.block_number,
        "index": tx.tx_index,
        "reads": reads,
        "writes": writes,
    }


def write_history(path, record) -> None:
    """Write the committed history of ``record`` to ``path`` as JSON."""
    document = history_document(record)
    Path(path).write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def load_history(path) -> Dict[str, object]:
    """Load and validate a history document, or raise :class:`ConfigurationError`."""
    target = Path(path)
    if not target.is_file():
        raise ConfigurationError(f"history file {str(path)!r} does not exist; {VALID_INPUT_HINT}")
    try:
        document = json.loads(target.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ConfigurationError(
            f"history file {str(path)!r} is not a JSON document ({error}); {VALID_INPUT_HINT}"
        ) from error
    if not isinstance(document, dict) or document.get("format") != HISTORY_FORMAT:
        raise ConfigurationError(
            f"history file {str(path)!r} is not a {HISTORY_FORMAT} document; {VALID_INPUT_HINT}"
        )
    if not isinstance(document.get("channels"), list):
        raise ConfigurationError(
            f"history file {str(path)!r} has no channel list; {VALID_INPUT_HINT}"
        )
    return document


def check_document(
    document: Dict[str, object], witness_limit: int = CheckerConfig.witness_limit
) -> IsolationReport:
    """Re-check a loaded history document through the streaming checker."""
    channels: List[ChannelIsolation] = []
    try:
        for channel_document in document["channels"]:
            checker = ChannelChecker(
                channel=channel_document.get("channel"), witness_limit=witness_limit
            )
            committed = sorted(
                channel_document.get("committed", ()),
                key=lambda entry: (entry["block"], entry["index"]),
            )
            for entry in committed:
                checker.observe_commit(_HistoryTransaction(entry))
            for _ in channel_document.get("aborted", ()):
                checker.observe_abort()
            channels.append(checker.finalize())
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise ConfigurationError(
            f"malformed history document ({error!r}); {VALID_INPUT_HINT}"
        ) from error
    return IsolationReport(channels=channels)


def check_history(path, witness_limit: int = CheckerConfig.witness_limit) -> IsolationReport:
    """Load ``path`` and re-check it (the ``repro check`` entry point)."""
    return check_document(load_history(path), witness_limit=witness_limit)


class _HistoryTransaction:
    """Duck-typed transaction view over one committed history entry."""

    __slots__ = ("tx_id", "block_number", "tx_index", "rwset")

    def __init__(self, entry: Dict[str, object]) -> None:
        self.tx_id = str(entry["tx"])
        self.block_number = int(entry["block"])
        self.tx_index = int(entry["index"])
        self.rwset = _HistoryRWSet(entry["reads"], entry["writes"])


class _HistoryRWSet:
    """Just enough of a :class:`~repro.ledger.rwset.ReadWriteSet` for checking."""

    __slots__ = ("reads", "writes")

    def __init__(self, reads, writes) -> None:
        self.reads: List[Tuple[str, Optional[Version]]] = [
            (str(key), None if version is None else Version(int(version[0]), int(version[1])))
            for key, version in reads
        ]
        self.writes: List[_HistoryWrite] = [
            _HistoryWrite(str(key), bool(is_delete)) for key, is_delete in writes
        ]

    def all_reads(self):
        return self.reads


class _HistoryWrite:
    __slots__ = ("key", "is_delete")

    def __init__(self, key: str, is_delete: bool) -> None:
        self.key = key
        self.is_delete = is_delete
