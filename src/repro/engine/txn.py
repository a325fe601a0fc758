"""Transactions: state, undo journal, redo write-set, savepoints.

A transaction's undo journal is a list of row-level
:class:`UndoRecord` entries; reverting the journal suffix (statement
rollback) or the whole journal (abort) restores both page contents and
index entries.  The redo side — the ordered page-op write-set — is what the
master broadcasts at pre-commit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.common.ids import PageId, TxnId
from repro.common.versions import VersionVector
from repro.storage.ops import PageOp


class TxnMode(enum.Enum):
    READ_ONLY = "ro"
    UPDATE = "update"


class TxnState(enum.Enum):
    ACTIVE = "active"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(slots=True)
class UndoRecord:
    """Before/after images of one row-slot change."""

    table: str
    page_id: PageId
    slot: int
    before: Optional[Tuple]
    after: Optional[Tuple]
    #: ``Table.index_delta`` of the change's redo op: what commit stamps, abort reverts.
    index_delta: Tuple = ()


@dataclass(slots=True)
class Savepoint:
    """Journal/write-set lengths at statement start (statement rollback)."""

    journal_len: int
    redo_len: int


@dataclass
class Transaction:
    """One transaction executing against a :class:`~repro.engine.HeapEngine`."""

    txn_id: TxnId
    mode: TxnMode
    #: Version tag for read-only transactions on DMV slaves; ``None`` means
    #: "read current state" (masters, stand-alone engines, the disk baseline).
    tag: Optional[VersionVector] = None
    state: TxnState = TxnState.ACTIVE
    #: Why the transaction was aborted (the ``reason`` passed to
    #: ``HeapEngine.abort``); ``None`` until then.
    abort_reason: Optional[str] = None
    #: Tables this transaction intends to write (declared at begin).  2PL
    #: controllers take X locks even for *reads* of these tables, killing
    #: S->X upgrade deadlocks on read-modify-write patterns.
    write_intent: Set[str] = field(default_factory=set)
    journal: List[UndoRecord] = field(default_factory=list)
    redo: List[PageOp] = field(default_factory=list)
    tables_written: Set[str] = field(default_factory=set)
    #: OCC read-set: page -> mutation stamp observed at *first* read.  Only
    #: populated when the engine's controller is optimistic; 2PL leaves it
    #: empty.
    read_stamps: Dict[PageId, int] = field(default_factory=dict)
    start_time: float = 0.0

    @property
    def read_only(self) -> bool:
        return self.mode is TxnMode.READ_ONLY

    @property
    def active(self) -> bool:
        return self.state is TxnState.ACTIVE

    def require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise RuntimeError(f"txn {self.txn_id} is {self.state.value}, not active")

    def savepoint(self) -> Savepoint:
        return Savepoint(len(self.journal), len(self.redo))

    def truncate_to(self, savepoint: Savepoint) -> List[UndoRecord]:
        """Pop and return journal entries after ``savepoint`` (newest first)."""
        suffix = self.journal[savepoint.journal_len:]
        del self.journal[savepoint.journal_len:]
        del self.redo[savepoint.redo_len:]
        suffix.reverse()
        return suffix
