"""Interleaved connections on the synchronous driver, checked against the
committed history.

Four :class:`SyncConnection` objects hold transactions open on one
:class:`SyncDmvCluster` at once, and a Hypothesis state machine chooses which
one steps next.  Cluster reconfigurations (slave and master kills, demotion,
rejoin, reintegration) land between the steps.  There is no kernel and no
clock, so each example is one concurrent history of the protocol core.

The oracle lives in the test.  At every update commit it applies the
transaction's writes to a model of the committed tables and records each
table's content under the scheduler's version for that table.  Then:

* every read of a read-only transaction returns exactly the content at its
  tag (Faleiro & Abadi's read-visibility rule);
* a committed change moves its table's version, and a commit moves no
  version outside its conflict class;
* an update transaction reads the tables it declared it writes (read under
  page locks) at the latest committed content plus its own writes.  Its
  reads of other tables are optimistic: they may see another
  transaction's uncommitted write until commit-time validation rejects
  them, so they are exercised but not checked.

``TransactionAborted`` is an allowed outcome of every transaction step.
The machine runs with one master and with a two-master conflict map; with
two masters a master reading the other class's table goes through its slave
role.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro.cluster.sync import SyncDmvCluster
from repro.common.errors import TransactionAborted
from repro.common.versions import VersionVector
from repro.core.conflictclass import ConflictClassMap
from repro.tpcw.schema import TPCW_SCHEMAS

TABLES = ("item", "shopping_cart", "customer")
SCHEMAS = [s for s in TPCW_SCHEMAS if s.name in TABLES]
PK = {"item": "i_id", "shopping_cart": "sc_id", "customer": "c_id"}
#: The columns the oracle models, after the primary key.
TRACKED = {"item": ("i_stock", "i_title"), "shopping_cart": ("sc_total",), "customer": ("c_balance",)}
#: The write classes of the two-master map; single-master runs route both to m0.
CLASSES = (("item", "shopping_cart"), ("customer",))
NUM_ITEMS = 150  # three pages at 64 rows a page
NUM_CARTS = 40
NUM_CUSTOMERS = 20
TITLES = tuple(f"t{i}" for i in range(5))
CONNECTIONS = 4

Content = Dict[int, Tuple]


def initial_rows() -> Dict[str, Content]:
    return {
        "item": {i: (10, TITLES[i % len(TITLES)]) for i in range(NUM_ITEMS)},
        "shopping_cart": {i: (float(i),) for i in range(NUM_CARTS)},
        "customer": {i: (0.0,) for i in range(NUM_CUSTOMERS)},
    }


def select(table: str, where: str = "") -> str:
    columns = ", ".join((PK[table],) + TRACKED[table])
    return f"SELECT {columns} FROM {table}" + (f" WHERE {where} = ?" if where else "")


@dataclass
class Open:
    """One connection's open transaction, as the test sees it."""

    tag: Optional[VersionVector] = None  # read-only transactions
    tables: Tuple[str, ...] = ()  # update transactions: the class they write
    #: Update writes, in statement order: ("set", table, key, column, value),
    #: ("insert", table, key, values) or ("delete", table, key).
    writes: List[Tuple] = field(default_factory=list)


def apply_writes(content: Dict[str, Content], writes) -> Dict[str, Content]:
    out = {table: dict(rows) for table, rows in content.items()}
    for write in writes:
        kind, table, key = write[:3]
        rows = out[table]
        if kind == "set" and key in rows:
            values = list(rows[key])
            values[TRACKED[table].index(write[3])] = write[4]
            rows[key] = tuple(values)
        elif kind == "insert":
            rows[key] = write[3]
        elif kind == "delete":
            rows.pop(key, None)
    return out


def expected_rows(content: Content, key: Optional[int] = None, title: Optional[str] = None):
    rows = [(k,) + values for k, values in content.items()]
    if key is not None:
        rows = [row for row in rows if row[0] == key]
    if title is not None:
        rows = [row for row in rows if row[2] == title]
    return sorted(rows)


def two_master_map() -> ConflictClassMap:
    return ConflictClassMap(list(TABLES), [set(tables) for tables in CLASSES])


def build_cluster(conflict_map: Optional[ConflictClassMap] = None) -> SyncDmvCluster:
    """Two slaves (and one master, or two with ``conflict_map``) holding
    :func:`initial_rows`."""
    cluster = SyncDmvCluster(
        SCHEMAS, num_slaves=2, conflict_map=conflict_map,
        multi_master=conflict_map is not None, now=lambda: 0.0,
    )
    for schema in SCHEMAS:
        pk, tracked = PK[schema.name], TRACKED[schema.name]
        rows = [
            schema.row_from_dict({pk: key, **dict(zip(tracked, values)), **filler(schema.name, key)})
            for key, values in initial_rows()[schema.name].items()
        ]
        cluster.bulk_load(schema.name, rows)
    return cluster


class InterleavedConnections(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.cluster = build_cluster(self.make_conflict_map())
        self.committed = initial_rows()
        #: table -> version -> committed content at that version.
        latest = self.cluster.latest_versions()
        self.history = {t: {latest.get(t): self.committed[t]} for t in TABLES}
        self.conns = [self.cluster.connect() for _ in range(CONNECTIONS)]
        self.open: List[Optional[Open]] = [None] * CONNECTIONS
        self.next_cart = NUM_CARTS

    def make_conflict_map(self):
        return None

    # -- helpers ---------------------------------------------------------------------
    def idle(self):
        return [i for i, txn in enumerate(self.open) if txn is None]

    def busy(self):
        return [i for i, txn in enumerate(self.open) if txn is not None]

    def updating(self):
        return [i for i, txn in enumerate(self.open) if txn is not None and txn.tag is None]

    def run(self, i, sql, params=()):
        """One statement on connection ``i``; None when its transaction aborted."""
        try:
            return self.conns[i].query(sql, params).value
        except TransactionAborted:
            self.open[i] = None
            return None

    # -- transactions ----------------------------------------------------------------
    # A read or a write on an idle connection opens its transaction first, so
    # an example in which swarm testing disabled a begin rule still has
    # concurrent transactions.
    def open_read(self, i):
        tag = self.cluster.latest_versions()
        self.conns[i].begin_read(list(TABLES))
        self.open[i] = Open(tag=tag)

    def open_update(self, i, data):
        tables = data.draw(st.sampled_from(CLASSES))
        self.conns[i].begin_update(list(tables))
        self.open[i] = Open(tables=tables)

    @precondition(lambda self: self.idle())
    @rule(data=st.data())
    def begin_read(self, data):
        self.open_read(data.draw(st.sampled_from(self.idle())))

    @precondition(lambda self: self.idle())
    @rule(data=st.data())
    def begin_update(self, data):
        self.open_update(data.draw(st.sampled_from(self.idle())), data)

    @rule(data=st.data())
    def read(self, data):
        """Read each table once: a scan, a primary-key probe or, on ``item``,
        a secondary-index probe on the title."""
        i = data.draw(st.integers(0, CONNECTIONS - 1))
        if self.open[i] is None:
            self.open_read(i)
        txn = self.open[i]
        for table in TABLES:
            how = data.draw(st.sampled_from(("scan", "key", "title") if table == "item" else ("scan", "key")))
            key = title = None
            if how == "title":
                title = data.draw(st.sampled_from(TITLES))
                result = self.run(i, select(table, "i_title"), (title,))
            elif how == "key":
                key = data.draw(st.integers(0, self.key_space(table)))
                result = self.run(i, select(table, PK[table]), (key,))
            else:
                result = self.run(i, select(table))
            if result is None:
                return  # aborted under the connection
            if txn.tag is not None:
                content = self.history[table][txn.tag.get(table)]
            elif table in txn.tables:
                content = apply_writes(self.committed, txn.writes)[table]
            else:
                continue  # optimistic: may see uncommitted state until commit validates it
            assert sorted(result.rows) == expected_rows(content, key, title), (table, how, key, title, txn.tag)

    def key_space(self, table):
        return {"item": NUM_ITEMS, "shopping_cart": self.next_cart, "customer": NUM_CUSTOMERS}[table]

    @precondition(lambda self: self.updating() or self.idle())
    @rule(data=st.data())
    def write(self, data):
        i = data.draw(st.sampled_from(self.updating() + self.idle()))
        if self.open[i] is None:
            self.open_update(i, data)
        value = data.draw(st.integers(0, 99))
        txn = self.open[i]
        table = data.draw(st.sampled_from(txn.tables))
        if table == "item":
            key = data.draw(st.integers(0, NUM_ITEMS - 1))
            if data.draw(st.booleans()):
                write = ("set", table, key, "i_stock", value)
            else:
                write = ("set", table, key, "i_title", TITLES[value % len(TITLES)])
        elif table == "customer":
            key = data.draw(st.integers(0, NUM_CUSTOMERS))
            write = ("set", table, key, "c_balance", float(value))
        else:
            kind = data.draw(st.sampled_from(("insert", "delete", "set")))
            if kind == "insert":
                key, self.next_cart = self.next_cart, self.next_cart + 1
                write = ("insert", table, key, (float(value),))
            else:
                key = data.draw(st.integers(0, self.next_cart))
                write = ("delete", table, key) if kind == "delete" else ("set", table, key, "sc_total", float(value))
        if self.run(i, *statement(write)) is not None:
            txn.writes.append(write)

    @precondition(lambda self: self.busy())
    @rule(data=st.data())
    def commit(self, data):
        i = data.draw(st.sampled_from(self.busy()))
        txn, self.open[i] = self.open[i], None
        before = self.cluster.latest_versions()
        try:
            self.conns[i].commit()
        except TransactionAborted:
            return
        if txn.tag is not None:
            return
        self.committed = apply_writes(self.committed, txn.writes)
        after = self.cluster.latest_versions()
        for table in TABLES:
            version = after.get(table)
            if version != before.get(table):
                assert table in txn.tables, f"commit moved {table} outside its class"
                self.history[table][version] = self.committed[table]
            else:
                assert self.committed[table] == self.history[table][version], (
                    f"a committed change to {table} left its version at {version}"
                )

    @precondition(lambda self: self.updating())
    @rule(data=st.data())
    def abort(self, data):
        """Roll an update back (a read-only transaction's end is its commit)."""
        i = data.draw(st.sampled_from(self.updating()))
        self.open[i] = None
        self.conns[i].abort()

    # -- cluster steps ---------------------------------------------------------------
    # One rule for all five, so transaction steps stay the common case.
    def active_slaves(self):
        """Alive, subscribed pure slaves: the ones reads are routed to."""
        return [
            n.node_id for n in self.cluster.nodes.values()
            if n.alive and n.slave is not None and n.master is None and n.subscribed
        ]

    def demoted(self):
        return [
            n.node_id for n in self.cluster.nodes.values()
            if n.alive and n.slave is not None and n.master is None and not n.subscribed
        ]

    def dead(self):
        return [n.node_id for n in self.cluster.nodes.values() if not n.alive]

    def reconfigurations(self):
        """(cluster step, its candidate nodes); a kill or a demotion must
        leave a slave to read from."""
        spare = len(self.active_slaves()) >= 2
        steps = [
            ("kill_slave", self.active_slaves() if spare else []),
            ("kill_master", self.cluster.master_ids() if spare else []),
            ("demote_slave", self.active_slaves() if spare else []),
            ("rejoin_slave", self.demoted()),
            ("reintegrate", self.dead()),
        ]
        return [(step, nodes) for step, nodes in steps if nodes]

    @precondition(lambda self: self.reconfigurations())
    @rule(data=st.data())
    def reconfigure(self, data):
        step, nodes = data.draw(st.sampled_from(self.reconfigurations()))
        getattr(self.cluster, step)(data.draw(st.sampled_from(nodes)))


def filler(table: str, key: int) -> Dict[str, object]:
    """Values for the NOT NULL columns the oracle does not model."""
    return {"c_uname": f"u{key}"} if table == "customer" else {}


def statement(write) -> Tuple[str, Tuple]:
    kind, table, key = write[:3]
    if kind == "set":
        return f"UPDATE {table} SET {write[3]} = ? WHERE {PK[table]} = ?", (write[4], key)
    if kind == "insert":
        columns = (PK[table],) + TRACKED[table]
        marks = ", ".join("?" for _ in columns)
        return f"INSERT INTO {table} ({', '.join(columns)}) VALUES ({marks})", (key,) + write[3]
    return f"DELETE FROM {table} WHERE {PK[table]} = ?", (key,)


class TwoMasterConnections(InterleavedConnections):
    def make_conflict_map(self):
        return two_master_map()


#: About 6 s per machine on a 2-core host; ``derandomize`` keeps tier-1
#: deterministic, and no example database is written.  Long runs matter
#: more than many: a planted read gate that applies one version past the
#: tag goes red within the first examples.
RUN = settings(
    max_examples=80, stateful_step_count=200, deadline=None, derandomize=True,
    database=None, suppress_health_check=[HealthCheck.too_slow],
)

TestSingleMaster = InterleavedConnections.TestCase
TestSingleMaster.settings = RUN
TestTwoMasters = TwoMasterConnections.TestCase
TestTwoMasters.settings = RUN


@pytest.mark.parametrize("outcome", ["commit", "abort"])
def test_reintegration_is_not_fed_a_masters_uncommitted_write(outcome):
    """Found by the machine: a dual master, whose engine holds its own
    classes' uncommitted writes in place, fed a reintegrating slave's data
    migration.  The joiner kept a write its writer then aborted, or broke
    its title index when the writer committed."""
    cluster = build_cluster(two_master_map())
    writer = cluster.connect()
    writer.begin_update(["item", "shopping_cart"])
    writer.query("UPDATE item SET i_title = ? WHERE i_id = ?", ("new", 1))
    cluster.kill_slave("s0")
    cluster.reintegrate("s0")
    getattr(writer, outcome)()
    cluster.kill_slave("s1")  # every read now lands on the joiner
    items = initial_rows()["item"]
    if outcome == "commit":
        items[1] = (items[1][0], "new")
    for title in (TITLES[1], "new"):
        rows = cluster.run_read(select("item", "i_title"), (title,)).rows
        assert sorted(rows) == expected_rows(items, title=title)
