"""One in-memory replica, as every cluster driver sees it.

The engine with its tables, the SQL executor, the master/slave roles and
the stable store with its checkpointer.  The simulated node adds a CPU,
a cache model and failure semantics on top; the threaded cluster adds its
mutex; the synchronous cluster uses it as is.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.common.counters import Counters
from repro.core.dual import DualController
from repro.core.master import MasterReplica
from repro.core.slave import SlaveReplica
from repro.engine.engine import HeapEngine, make_update_controller
from repro.engine.schema import TableSchema
from repro.sql.executor import SqlExecutor
from repro.storage.cache import PageCache
from repro.storage.checkpoint import FuzzyCheckpointer, StableStore


class ReplicaNode:
    """One in-memory replica: engine + optional master/slave roles."""

    def __init__(
        self,
        node_id: str,
        schemas: Sequence[TableSchema],
        now: Optional[Callable[[], float]] = None,
        cache_pages: Optional[int] = None,
        rows_per_page: int = 64,
    ) -> None:
        self.node_id = node_id
        self.counters = Counters()
        #: Residency model; ``None`` (embedded clusters) = always resident.
        self.cache = (
            PageCache(cache_pages, self.counters) if cache_pages is not None else None
        )
        self.engine = HeapEngine(
            counters=self.counters, cache=self.cache, name=node_id,
            rows_per_page=rows_per_page,
        )
        for schema in schemas:
            self.engine.create_table(schema)
        self.sql = SqlExecutor(self.engine, now=now)
        self.master: Optional[MasterReplica] = None
        self.slave: Optional[SlaveReplica] = None
        self.stable = StableStore(self.counters)
        self.checkpointer = FuzzyCheckpointer(self.engine.store, self.stable)
        self.alive = True
        #: Subscribed nodes receive the masters' write-set broadcasts; a
        #: demoted laggard or a *stale backup* (Figure 5) is unsubscribed.
        self.subscribed = True

    # -- role setup -------------------------------------------------------------------
    def make_master(self) -> None:
        self.engine.set_controller(make_update_controller())
        self.master = MasterReplica(self.node_id, engine=self.engine, counters=self.counters)
        self.slave = None

    def make_slave(self) -> None:
        self.slave = SlaveReplica(self.node_id, engine=self.engine, counters=self.counters)
        self.master = None

    def make_dual_master(self, owned_tables) -> None:
        """Multi-master role: master for ``owned_tables``, slave for the rest."""
        self.slave = SlaveReplica(self.node_id, engine=self.engine, counters=self.counters)
        self.engine.set_controller(DualController(set(owned_tables), self.slave))
        self.master = MasterReplica(self.node_id, engine=self.engine, counters=self.counters)

    # -- maintenance ----------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Run one full fuzzy checkpoint (skipping uncommitted pages)."""
        return self.checkpointer.full_checkpoint(self.engine.page_is_dirty)
