"""The on-disk database: buffer pool + WAL + serializable 2PL.

One :class:`DiskDatabase` is one InnoDB-like replica.  Query execution
reuses the shared engine and SQL executor; every page access goes through a
*bounded* buffer pool whose misses the simulation charges as random disk
reads, and every commit appends to the WAL and forces it (group commit is a
calibration knob).  Recovery/refresh replays logged queries.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.common.counters import Counters
from repro.common.ids import NodeId
from repro.common.versions import VersionVector
from repro.disk.wal import WriteAheadLog
from repro.engine.engine import HeapEngine, TwoPhaseLocking
from repro.engine.locks import LockManager
from repro.engine.schema import TableSchema
from repro.engine.txn import Transaction, TxnMode
from repro.scheduler.querylog import LoggedUpdate
from repro.sql.executor import ResultSet, SqlExecutor, is_write_statement
from repro.storage.cache import PageCache


class DiskController(TwoPhaseLocking):
    """Serializable page 2PL plus buffer-pool residency accounting."""

    def __init__(self, pool: PageCache, manager: Optional[LockManager] = None) -> None:
        super().__init__(manager)
        self.pool = pool

    def before_read(self, txn, page) -> None:
        self.pool.touch(page.page_id)
        super().before_read(txn, page)

    def before_write(self, txn, page) -> None:
        self.pool.touch(page.page_id)
        super().before_write(txn, page)


class DiskDatabase:
    """One on-disk replica: engine + buffer pool + WAL + replay support."""

    def __init__(
        self,
        node_id: NodeId,
        pool_pages: int = 2048,
        counters: Optional[Counters] = None,
        now: Optional[Callable[[], float]] = None,
        rows_per_page: int = 64,
        tracer=None,
    ) -> None:
        self.node_id = node_id
        self.counters = counters if counters is not None else Counters()
        self.pool = PageCache(pool_pages, self.counters)
        self.engine = HeapEngine(
            controller=DiskController(self.pool),
            counters=self.counters,
            name=f"disk:{node_id}",
            rows_per_page=rows_per_page,
        )
        if tracer is None:
            from repro.obs import NULL_TRACER as tracer  # local alias, no cycle
        self.wal = WriteAheadLog(self.counters, tracer=tracer)
        self.sql = SqlExecutor(self.engine, now=now)
        #: Queries of the currently-open update transactions (for the WAL).
        self._txn_queries: Dict[int, list] = {}

    # -- schema / load -------------------------------------------------------------
    def create_table(self, schema: TableSchema) -> None:
        self.engine.create_table(schema)

    def bulk_load(self, table: str, rows) -> int:
        return self.engine.bulk_load(table, rows)

    # -- transactions -----------------------------------------------------------------
    def begin(self, read_only: bool = False, write_tables=()) -> Transaction:
        mode = TxnMode.READ_ONLY if read_only else TxnMode.UPDATE
        txn = self.engine.begin(mode, write_intent=write_tables)
        if not read_only:
            self._txn_queries[txn.txn_id] = []
        return txn

    def execute(self, txn: Transaction, sql: str, params: Sequence = ()) -> ResultSet:
        result = self.sql.execute(txn, sql, params)
        if not txn.read_only and is_write_statement(sql):
            self._txn_queries[txn.txn_id].append((sql, tuple(params)))
        return result

    def commit(self, txn: Transaction) -> Dict[str, int]:
        """Commit with WAL append + fsync (the log force the paper pays)."""
        queries = self._txn_queries.pop(txn.txn_id, [])
        ops = list(txn.redo)
        versions = self.engine.commit(txn)
        if ops:
            self.wal.append_commit(txn.txn_id, ops, queries)
            self.wal.fsync()
        return versions

    def abort(self, txn: Transaction, reason: str = "abort") -> None:
        self._txn_queries.pop(txn.txn_id, None)
        self.engine.abort(txn, reason=reason)

    # -- replication / recovery ----------------------------------------------------------
    def apply_logged_update(self, entry: LoggedUpdate) -> None:
        """Replay one committed transaction from a query log.

        On any failure the replay transaction is rolled back before the
        error propagates, so a retry later starts clean.
        """
        txn = self.begin()
        try:
            for sql, params in entry.queries:
                self.execute(txn, sql, params)
        except BaseException:
            self.abort(txn, reason="replay-failure")
            raise
        self.commit(txn)
        self.counters.add("disk.log_replays")

    def current_versions(self) -> VersionVector:
        return self.engine.versions.copy()

