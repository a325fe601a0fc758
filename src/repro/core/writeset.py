"""Write-sets: the unit of master -> slave replication.

One write-set carries every page-level modification of one committed update
transaction, plus the per-table commit versions the transaction produced
(the increment of ``DBVersion``).  Write-sets from one master form a total
order per table; slaves buffer them per page and apply lazily.

Wire sizes are computed once per write-set and cached on the frozen
dataclass — a write-set is broadcast to every slave and its size consulted
per hop, so recomputing per hop would charge encode CPU N times for one
encode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.common.ids import NodeId, TxnId
from repro.storage import ops as _ops
from repro.storage.ops import PageOp, ops_size


@dataclass(frozen=True)
class WriteSet:
    """The pre-commit broadcast payload of one update transaction."""

    master_id: NodeId
    txn_id: TxnId
    ops: Tuple[PageOp, ...]
    #: table -> commit version (this transaction's entries of DBVersion).
    versions: Dict[str, int] = field(default_factory=dict)
    #: Per-master broadcast sequence number.  Together with the commit
    #: versions it keys the slaves' duplicate filter, so retransmitted and
    #: link-duplicated write-sets are received idempotently.
    seq: int = 0
    #: ``((commit version of its table, op),)`` per op: the one-entry
    #: pending queue a slave with nothing queued for the op's page takes as
    #: it is, and whose entry a slave with a queue appends.  Built once here
    #: and shared by every slave's queue.
    queue_heads: Tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        heads = tuple(((self.versions[op.page_id.table], op),) for op in self.ops)
        object.__setattr__(self, "queue_heads", heads)

    def dedup_key(self) -> Tuple:
        """Identity of this broadcast for the slave-side duplicate filter.

        The commit versions are included alongside ``(master, seq)`` so a
        promoted master whose sequence counter restarts can never collide
        with a retired master's history — per-table versions only move
        forward across reconfigurations.  Memoized: every slave asks.
        """
        cached = self.__dict__.get("_dedup_key")
        if cached is None:
            cached = (self.master_id, self.seq, tuple(sorted(self.versions.items())))
            object.__setattr__(self, "_dedup_key", cached)
        return cached

    def byte_size(self) -> int:
        """Approximate wire size (network cost accounting); memoized."""
        cached = self.__dict__.get("_byte_size")
        if cached is None:
            _ops.ENCODE_STATS["writeset_sizes"] += 1
            cached = 64 + ops_size(self.ops) + 16 * len(self.versions)
            object.__setattr__(self, "_byte_size", cached)
        return cached

    def bytes_saved(self) -> int:
        """Bytes delta encoding saved vs full-image ops; memoized."""
        cached = self.__dict__.get("_bytes_saved")
        if cached is None:
            cached = sum(_ops.bytes_saved(op) for op in self.ops)
            object.__setattr__(self, "_bytes_saved", cached)
        return cached

    def tables(self) -> List[str]:
        return sorted(self.versions)

    def __len__(self) -> int:
        return len(self.ops)
