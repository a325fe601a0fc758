"""The heap engine: transactions, commit protocol hooks, access control.

One :class:`HeapEngine` instance is one database replica's storage manager.
Concurrency personalities plug in through :class:`AccessController`:

* :class:`PassThroughController` — no concurrency control (single-user
  embedded usage and unit tests),
* :class:`OccReadValidation` — optimistic reads validated at pre-commit,
  X-locked writes; every DMV master runs it,
* :class:`TwoPhaseLocking` — page-granular S/X 2PL, used by the on-disk
  baseline (where it models InnoDB's serializable mode),
* ``SlaveController`` (in :mod:`repro.core.slave`) — lazy version
  materialisation for DMV slaves.

The commit path is split so the replication layer can interpose: masters
call :meth:`prepare_commit` (collect the write-set, keep locks), broadcast,
then :meth:`stamp_commit` + :meth:`finish_commit`.  Stand-alone users call
:meth:`commit`, which performs all three with a locally incremented version
vector.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.common.counters import Counters
from repro.common.errors import SchemaError, TransactionAborted
from repro.common.ids import IdAllocator, TxnId
from repro.common.versions import VersionVector
from repro.engine.indexes import Loc
from repro.engine.locks import LockManager, LockMode, LockRequest
from repro.engine.schema import TableSchema
from repro.engine.table import Table
from repro.engine.txn import Savepoint, Transaction, TxnMode, TxnState
from repro.storage.cache import PageCache
from repro.storage.ops import PageOp
from repro.storage.page import Page, PageStore, Row


class LockWait(Exception):
    """Internal control-flow: a lock could not be granted immediately.

    The simulated node executor catches this, rolls the statement back to
    its savepoint, waits for the grant and retries the statement.  It is
    *not* a :class:`~repro.common.errors.ReproError`: it must never escape
    to application code.
    """

    def __init__(self, request: LockRequest) -> None:
        super().__init__(f"txn {request.txn_id} waits for {request.mode.value} on {request.resource}")
        self.request = request


class AccessController:
    """Strategy hooks called around every page access and txn boundary."""

    #: Whether this controller's engine emits the OCC-era counters
    #: (``engine.occ_*``, ``engine.plan_cache_hits``, ...).  Only the
    #: optimistic personality (masters) sets this: slave and on-disk
    #: counter fingerprints must stay bit-for-bit identical to the
    #: pre-OCC engine.
    emits_occ_counters = False

    def attach(self, engine: "HeapEngine") -> None:
        self.engine = engine

    def on_begin(self, txn: Transaction) -> None:  # pragma: no cover - default no-op
        pass

    def before_read(self, txn: Transaction, page: Page) -> None:
        pass

    def read_gate(self, txn: Transaction, page: Page, tag_v: Optional[int]) -> None:
        """:meth:`before_read` in the form the read funnel calls per row.

        ``tag_v`` is the transaction's version tag for the page's table
        (``None`` when untagged).  The funnel resolves it once per
        statement, so a controller whose check needs it overrides this
        method instead of looking it up again on every row; the default
        needs nothing per (transaction, table) and ignores it.
        """
        self.before_read(txn, page)

    def before_write(self, txn: Transaction, page: Page) -> None:
        pass

    def before_prepare(self, txn: Transaction) -> None:
        """Last chance to veto a commit (OCC read-set validation).

        Called by :meth:`HeapEngine.prepare_commit` while the transaction is
        still ACTIVE; raising :class:`TransactionAborted` here leaves the
        transaction fully revertible.
        """

    def on_finish(self, txn: Transaction) -> None:
        """Called after commit completes or abort finishes."""

    def page_is_dirty(self, page: Page) -> bool:
        """Does the page hold uncommitted data?  (checkpointer filter)"""
        return False

    def write_locked_by_other(self, txn: Transaction, page: Page) -> bool:
        """Would writing ``page`` block on another transaction's X lock?

        Used by the insert-stripe allocator to steer concurrent inserters
        onto different pages.
        """
        return False


class PassThroughController(AccessController):
    """No concurrency control: suitable for single-transaction usage."""


class _PageLocks(AccessController):
    """Page locks in a :class:`LockManager`, released at finish (2PL and OCC)."""

    def __init__(self, manager: Optional[LockManager] = None) -> None:
        self.manager = manager if manager is not None else LockManager()

    def on_finish(self, txn: Transaction) -> None:
        self.manager.release_all(txn.txn_id)

    def page_is_dirty(self, page: Page) -> bool:
        return self.manager.exclusively_locked(page.page_id)

    def write_locked_by_other(self, txn: Transaction, page: Page) -> bool:
        return self.manager.held_by_other(page.page_id, txn.txn_id)


class TwoPhaseLocking(_PageLocks):
    """Strict page-granular 2PL: S on read, X on write, release at finish."""

    def _acquire(self, txn: Transaction, page: Page, mode: LockMode) -> None:
        request = self.manager.acquire(txn.txn_id, page.page_id, mode)
        if not request.granted:
            self.engine.counters.add("locks.waits")
            raise LockWait(request)

    def before_read(self, txn: Transaction, page: Page) -> None:
        if page.page_id.table in txn.write_intent:
            # Read of a table this txn declared it will write: take X now
            # (SELECT FOR UPDATE semantics) instead of upgrading later.
            self._acquire(txn, page, LockMode.EXCLUSIVE)
        else:
            self._acquire(txn, page, LockMode.SHARED)

    def before_write(self, txn: Transaction, page: Page) -> None:
        self._acquire(txn, page, LockMode.EXCLUSIVE)


class OccReadValidation(_PageLocks):
    """Timestamp-ordered optimistic reads; writers keep page X locks.

    Readers never latch: :meth:`before_read` records the page's mutation
    stamp into the transaction's read-set (``txn.read_stamps``) on first
    touch.  :meth:`before_prepare` performs backward validation — the
    transaction commits only if every optimistically read page is unchanged
    since it was read *and* not exclusively locked by a concurrent writer;
    otherwise it aborts with reason ``occ-conflict`` and the driver retries.

    Writes are unchanged from 2PL: X locks, held to commit.  That keeps
    write-write conflicts, the insert-stripe allocator, the dirty-page
    checkpoint filter, and — crucially — the version-vector serialization
    order the replication layer broadcasts in, all identical to the locking
    engine.  Validation happens synchronously inside ``pre_commit``, so the
    commit (= validation) order *is* the version order.

    The stamp is bumped by every ``Page.put`` — including uncommitted
    writes and undo reverts — so a reader that observed another writer's
    in-place update aborts whether that writer commits (no further puts,
    but then it still holds X at our validation) or rolls back (the revert
    bumps the stamp).  Pages the transaction itself writes leave the
    read-set at X-acquisition time, after an early stamp check; from then
    on the lock, not the stamp, protects them.
    """

    emits_occ_counters = True

    def _acquire_x(self, txn: Transaction, page: Page) -> None:
        manager = self.manager
        fast = manager.fast_grants
        request = manager.acquire(txn.txn_id, page.page_id, LockMode.EXCLUSIVE)
        counters = self.engine.counters
        if manager.fast_grants != fast:
            counters.add("engine.lock_fast_grants")
        if not request.granted:
            counters.add("locks.waits")
            raise LockWait(request)
        # The page is now lock-protected; retire any optimistic read of it,
        # aborting if it changed between the read and this X grant (the
        # stamp would otherwise be invalidated by our own writes).
        stamp = txn.read_stamps.pop(page.page_id, None)
        if stamp is not None and page.stamp != stamp:
            counters.add("engine.occ_aborts")
            raise TransactionAborted(
                f"txn {txn.txn_id} page {page.page_id} changed between read and write",
                reason="occ-conflict",
            )

    def before_read(self, txn: Transaction, page: Page) -> None:
        if page.page_id.table in txn.write_intent:
            # Declared read-modify-write: take X up front, exactly like the
            # 2PL controller (avoids upgrade deadlocks and self-invalidation).
            self._acquire_x(txn, page)
        else:
            txn.read_stamps.setdefault(page.page_id, page.stamp)

    def before_write(self, txn: Transaction, page: Page) -> None:
        self._acquire_x(txn, page)

    def before_prepare(self, txn: Transaction) -> None:
        self.engine.counters.add("engine.occ_validations")
        read_stamps = txn.read_stamps
        if not read_stamps:
            return
        store = self.engine.store
        manager = self.manager
        for page_id, stamp in read_stamps.items():
            page = store.get(page_id)
            if page.stamp != stamp or manager.exclusively_locked_by_other(
                page_id, txn.txn_id
            ):
                self.engine.counters.add("engine.occ_aborts")
                raise TransactionAborted(
                    f"txn {txn.txn_id} read-set validation failed on {page_id}",
                    reason="occ-conflict",
                )


def make_update_controller(read_concurrency: str = "occ") -> AccessController:
    """Build an update-path concurrency controller.

    Every master in every cluster driver runs the default, ``"occ"``;
    ``"2pl"`` builds the locking controller engine-level tests compare
    against.
    """
    if read_concurrency == "occ":
        return OccReadValidation()
    if read_concurrency == "2pl":
        return TwoPhaseLocking()
    raise ValueError(
        f"unknown read_concurrency {read_concurrency!r}; expected 'occ' or '2pl'"
    )


class HeapEngine:
    """A transactional in-memory database instance (one replica)."""

    def __init__(
        self,
        controller: Optional[AccessController] = None,
        counters: Optional[Counters] = None,
        store: Optional[PageStore] = None,
        cache: Optional[PageCache] = None,
        rows_per_page: int = 64,
        name: str = "engine",
    ) -> None:
        self.name = name
        self.counters = counters if counters is not None else Counters()
        self.store = store if store is not None else PageStore(rows_per_page)
        self.cache = cache  # optional residency model; None = always resident
        self.controller = controller if controller is not None else PassThroughController()
        self.controller.attach(self)
        self._build_read_funnel()
        self.tables: Dict[str, Table] = {}
        self.versions = VersionVector()
        self._txn_ids = IdAllocator()
        self._active: Dict[TxnId, Transaction] = {}

    # -- schema -----------------------------------------------------------------
    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self.tables:
            raise SchemaError(f"table {schema.name} already exists")
        table = Table(schema, self)
        self.tables[schema.name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"no such table: {name}") from None

    # -- transaction lifecycle -----------------------------------------------------
    def begin(
        self,
        mode: TxnMode = TxnMode.UPDATE,
        tag: Optional[VersionVector] = None,
        write_intent: Optional[Iterable[str]] = None,
    ) -> Transaction:
        txn = Transaction(
            self._txn_ids.next(), mode, tag=tag,
            write_intent=set(write_intent) if write_intent else set(),
        )
        self._active[txn.txn_id] = txn
        self.controller.on_begin(txn)
        self.counters.add("engine.txns_started")
        return txn

    def prepare_commit(self, txn: Transaction) -> List[PageOp]:
        """Freeze the write-set; locks stay held until :meth:`finish_commit`.

        The controller may veto here (OCC read-set validation) by raising
        :class:`TransactionAborted`; the transaction is then still ACTIVE
        and fully revertible via :meth:`abort`.
        """
        txn.require_active()
        self.controller.before_prepare(txn)
        txn.state = TxnState.PREPARED
        return list(txn.redo)

    def stamp_commit(self, txn: Transaction, versions: Dict[str, int]) -> None:
        """Stamp index entries and page versions with the commit versions."""
        if txn.state is not TxnState.PREPARED:
            raise RuntimeError("stamp_commit requires a prepared transaction")
        for record in txn.journal:
            version = versions.get(record.table)
            if version is None:
                raise SchemaError(f"missing commit version for table {record.table}")
            self.table(record.table).stamp_commit(record, version)
            page = self.store.get(record.page_id)
            page.version = max(page.version, version)

    def finish_commit(self, txn: Transaction) -> None:
        if txn.state is not TxnState.PREPARED:
            raise RuntimeError("finish_commit requires a prepared transaction")
        txn.state = TxnState.COMMITTED
        self._active.pop(txn.txn_id, None)
        self.controller.on_finish(txn)
        self.counters.add("engine.txns_committed")

    def commit(self, txn: Transaction) -> Dict[str, int]:
        """Stand-alone commit: local version increment, stamp, finish.

        Returns the per-table commit versions.  Replicated masters use the
        prepare/stamp/finish steps individually instead.
        """
        self.prepare_commit(txn)
        self.versions.increment(txn.tables_written)
        commit_versions = {t: self.versions.get(t) for t in txn.tables_written}
        self.stamp_commit(txn, commit_versions)
        self.finish_commit(txn)
        return commit_versions

    def abort(self, txn: Transaction, reason: str = "abort") -> None:
        """Roll back all effects and release resources (idempotent-safe).

        A PREPARED transaction cannot be reverted — its index entries are
        already stamped with commit versions and its write-set may be
        partially broadcast.  That situation only arises when the node
        itself is failing (the cluster-level discard protocol cleans the
        replicas); locally we just drop the transaction and release its
        locks without touching data.
        """
        if txn.state is TxnState.COMMITTED:
            return
        if txn.state is TxnState.ABORTED:
            # Defensive re-release: a statement racing with the abort may
            # have acquired locks after the first release.
            self.controller.on_finish(txn)
            return
        txn.abort_reason = reason
        if txn.state is TxnState.PREPARED:
            txn.state = TxnState.ABORTED
            self._active.pop(txn.txn_id, None)
            self.controller.on_finish(txn)
            self.counters.add("engine.txns_dropped_prepared")
            return
        for record in reversed(txn.journal):
            self.table(record.table).revert(record)
        txn.journal.clear()
        txn.redo.clear()
        txn.state = TxnState.ABORTED
        self._active.pop(txn.txn_id, None)
        self.controller.on_finish(txn)
        self.counters.add("engine.txns_aborted")
        self.counters.add(f"engine.aborts.{reason}")

    def rollback_to(self, txn: Transaction, savepoint: Savepoint) -> None:
        """Statement-level rollback (used for lock-wait retries)."""
        txn.require_active()
        for record in txn.truncate_to(savepoint):
            self.table(record.table).revert(record)

    def active_transactions(self) -> List[Transaction]:
        return list(self._active.values())

    def abort_all_active(self, reason: str = "node-failure") -> int:
        """Abort every in-flight transaction (failure reconfiguration)."""
        txns = list(self._active.values())
        for txn in txns:
            self.abort(txn, reason=reason)
        return len(txns)

    # -- page access funnels --------------------------------------------------------
    def _build_read_funnel(self) -> None:
        """Build :attr:`read_row`, :attr:`scan_rows` and :attr:`flush_reads`.

        Every row a transaction reads goes through ``read_row``, in one
        frame.  What is fixed for the engine is bound here, once per
        controller: the page map, the LRU order, the controller's gate, the
        counter bags.  What is fixed for a statement — the transaction and
        its version tag for the table — the caller resolves once and passes
        in.  Left per row, in this order: the page lookup, the
        transaction-still-active check, the LRU touch, the gate, the slot.
        That order is simulated behaviour (it is the cache's recency order,
        and it decides which counters a statement that raises half-way has
        moved), so nothing here may be reordered or batched across rows.

        ``cache.hits``, ``engine.pages_read`` and ``engine.rows_read`` are
        counted here and added to the counter bags by ``flush_reads``, once
        per statement instead of once per row; whoever drives the funnel
        calls it in a ``finally`` so the totals are in the bags before
        anyone can take a delta.
        """
        pages = self.store.page_map()
        gate = self.controller.read_gate
        add = self.counters.add
        cache = self.cache
        if cache is not None:
            lru = cache.lru_order()
            promote = lru.move_to_end
            add_cache = cache.counters.add
        active = TxnState.ACTIVE
        pages_read = rows_read = hits = 0

        def read_row(
            txn: Transaction, tag_v: Optional[int], loc: Loc
        ) -> Union[Row, Page, None]:
            """Row at ``loc`` (None for a dead slot); with a slot of None,
            the page itself, for a scan that walks the slots on its own."""
            nonlocal pages_read, rows_read, hits
            page_id, slot = loc
            try:
                page = pages[page_id]
            except KeyError:
                raise SchemaError(f"no such page: {page_id}") from None
            if txn.state is not active:
                # A statement may still be executing when its transaction is
                # aborted out from under it (node reconfiguration).  Stop it at
                # the next page access — before it acquires any more locks.
                raise TransactionAborted(
                    f"txn {txn.txn_id} is no longer active", reason="txn-inactive"
                )
            if cache is not None:
                if page_id in lru:
                    promote(page_id)
                    hits += 1
                else:
                    cache.touch(page_id)
            gate(txn, page, tag_v)
            pages_read += 1
            if slot is None:
                return page
            rows_read += 1
            return page.slots[slot]

        def scan_rows(
            txn: Transaction, tag_v: Optional[int], table_pages: Iterable[Page]
        ) -> Iterator[Tuple[Loc, Row]]:
            """``(loc, row)`` of every live row of the pages, in page order."""
            nonlocal rows_read
            for page in table_pages:
                page_id = page.page_id
                read_row(txn, tag_v, (page_id, None))
                for slot, row in page.iter_live():
                    rows_read += 1
                    yield (page_id, slot), row

        def flush_reads() -> None:
            nonlocal pages_read, rows_read, hits
            if pages_read:
                add("engine.pages_read", pages_read)
                pages_read = 0
            if rows_read:
                add("engine.rows_read", rows_read)
                rows_read = 0
            if hits:
                add_cache("cache.hits", hits)
                hits = 0

        self.read_row = read_row
        self.scan_rows = scan_rows
        self.flush_reads = flush_reads

    def touch_write(self, txn: Transaction, page: Page) -> None:
        if not txn.active:
            raise TransactionAborted(
                f"txn {txn.txn_id} is no longer active", reason="txn-inactive"
            )
        if txn.read_only:
            raise TransactionAborted(
                f"read-only txn {txn.txn_id} attempted a write", reason="read-only-write"
            )
        if self.cache is not None:
            self.cache.touch(page.page_id)
        self.controller.before_write(txn, page)
        self.counters.add("engine.pages_written")

    # -- convenience row APIs (delegate to tables) -------------------------------------
    def insert(self, txn: Transaction, table: str, values: Dict[str, object]):
        return self.table(table).insert_row(txn, values)

    def fetch(self, txn: Transaction, table: str, loc):
        return self.table(table).fetch(txn, loc)

    def page_is_dirty(self, page: Page) -> bool:
        return self.controller.page_is_dirty(page)

    # -- role changes / loading -----------------------------------------------------------
    def set_controller(self, controller: AccessController) -> None:
        """Swap the concurrency personality (slave promotion to master)."""
        if self._active:
            raise RuntimeError("cannot swap controller with active transactions")
        self.controller = controller
        controller.attach(self)
        self.flush_reads()
        self._build_read_funnel()

    def bulk_load(self, table: str, rows, version: int = 0) -> int:
        """Load committed rows directly (initial population, migrations)."""
        return self.table(table).bulk_load(rows, version)

    def rebuild_all_indexes(self) -> None:
        for table in self.tables.values():
            table.rebuild_indexes()

    # -- maintenance -------------------------------------------------------------------
    def gc_index_entries(self, watermark_versions: VersionVector) -> int:
        """GC versioned index entries below the oldest tag still in use."""
        removed = 0
        for table in self.tables.values():
            removed += table.gc_index_entries(watermark_versions.get(table.name))
        return removed

    def row_counts(self) -> Dict[str, int]:
        return {name: table.row_count for name, table in self.tables.items()}


def bulk_load_replicas(engines: Sequence[HeapEngine], table: str, rows, version: int = 0) -> int:
    """Bulk-load ``rows`` into ``table`` on identical replicas; returns the count.

    The paper's replicas all map one on-disk image, so the image is built
    once: the first engine loads the rows, the others copy its table.  That
    equals loading each only if every replica holds the same committed
    table before the load, which is checked, not assumed.
    """
    first, *rest = engines
    if rest and any(engine._active for engine in engines):
        raise RuntimeError("cannot copy a table with active transactions")
    extent = first.table(table).extent()
    for engine in rest:
        if engine.table(table).extent() != extent:
            raise SchemaError(
                f"{table} holds (rows, pages, rows/page) {engine.table(table).extent()} on "
                f"{engine.name} but {extent} on {first.name}: not replicas of one image"
            )
    count = first.bulk_load(table, rows, version)
    for engine in rest:
        engine.table(table).copy_from(first.table(table))
    return count
