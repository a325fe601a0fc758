"""Transactional in-memory table engine (the MySQL ``REPLICATED_HEAP`` stand-in).

The engine stores rows in slotted pages (:mod:`repro.storage`), indexes them
with hash and red–black-tree indexes, and runs transactions with undo/redo
logging.  Concurrency control is pluggable through an
:class:`~repro.engine.engine.AccessController`:

* masters use timestamp-ordered optimistic read validation
  (:class:`OccReadValidation`),
* DMV slaves materialise page versions lazily
  (:class:`repro.core.slave.SlaveController`),
* the on-disk baseline runs page-granular two-phase locking
  (:class:`TwoPhaseLocking`) and adds buffer-pool and WAL accounting
  (:mod:`repro.disk`).
"""

from repro.engine.schema import Column, IndexDef, TableSchema
from repro.engine.rbtree import RedBlackTree
from repro.engine.locks import LockManager, LockMode
from repro.engine.txn import Transaction, TxnMode, TxnState
from repro.engine.table import Table
from repro.engine.indexes import Loc, VersionedHashIndex, VersionedTreeIndex
from repro.engine.engine import (
    AccessController,
    HeapEngine,
    LockWait,
    OccReadValidation,
    PassThroughController,
    TwoPhaseLocking,
    bulk_load_replicas,
    make_update_controller,
)

__all__ = [
    "Column",
    "IndexDef",
    "TableSchema",
    "RedBlackTree",
    "LockManager",
    "LockMode",
    "Transaction",
    "TxnMode",
    "TxnState",
    "Table",
    "Loc",
    "HeapEngine",
    "AccessController",
    "PassThroughController",
    "TwoPhaseLocking",
    "OccReadValidation",
    "make_update_controller",
    "bulk_load_replicas",
    "LockWait",
    "VersionedHashIndex",
    "VersionedTreeIndex",
]
