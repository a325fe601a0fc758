"""Dual-role access control for multi-master deployments.

With disjoint conflict classes on multiple masters, each master is also a
slave for every class it does not own: it receives other masters' write-
sets and materialises their pages lazily like any slave, while running the
master's update-path concurrency control on its own tables.  This
controller dispatches per table.
"""

from __future__ import annotations

from typing import Set, TYPE_CHECKING

from repro.common.errors import VersionInconsistency
from repro.engine.engine import AccessController, OccReadValidation
from repro.engine.txn import Transaction
from repro.storage.page import Page

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.slave import SlaveReplica


class DualController(AccessController):
    """OCC read validation for owned tables, lazy slave materialisation for
    the rest.

    Non-owned tables are read through the co-resident slave's
    version-tagged materialisation, which needs no locks or validation at
    all.
    """

    emits_occ_counters = True

    def __init__(self, owned_tables: Set[str], slave: "SlaveReplica") -> None:
        self.owned = set(owned_tables)
        self.occ = OccReadValidation()
        self.slave = slave

    def attach(self, engine) -> None:
        super().attach(engine)
        self.occ.attach(engine)

    def before_read(self, txn: Transaction, page: Page) -> None:
        if page.page_id.table in self.owned:
            self.occ.before_read(txn, page)
        else:
            self.slave.materialize(page, txn)

    def before_write(self, txn: Transaction, page: Page) -> None:
        if page.page_id.table not in self.owned:
            raise VersionInconsistency(
                f"table {page.page_id.table} is not owned by this master"
            )
        self.occ.before_write(txn, page)

    def before_prepare(self, txn: Transaction) -> None:
        self.occ.before_prepare(txn)

    def on_finish(self, txn: Transaction) -> None:
        self.occ.on_finish(txn)

    def page_is_dirty(self, page: Page) -> bool:
        return self.occ.page_is_dirty(page)

    def write_locked_by_other(self, txn: Transaction, page: Page) -> bool:
        return self.occ.write_locked_by_other(txn, page)
