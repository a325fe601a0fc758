"""Integration tests: TPC-W interactions on the embedded synchronous cluster."""

import pytest

from repro.common.errors import TransactionAborted
from repro.common.rng import RngStream
from repro.cluster import SyncDmvCluster
from repro.cluster.protocol import fan_out
from repro.core import ConflictClassMap
from repro.engine import Column, TableSchema
from repro.tpcw import (
    INTERACTIONS,
    InteractionContext,
    TPCW_SCHEMAS,
    TpcwDataGenerator,
    TpcwScale,
    run_sync,
    tpcw_conflict_map,
)
from repro.tpcw.interactions import SharedSequences

SCALE = TpcwScale(num_items=60, num_customers=173)


_SHARED_SEQUENCES = SharedSequences(SCALE)  # one id space per test module


@pytest.fixture(scope="module")
def loaded_cluster():
    cluster = SyncDmvCluster(TPCW_SCHEMAS, num_slaves=2, num_disk_backends=1)
    cluster.load(TpcwDataGenerator(SCALE, seed=3))
    return cluster


def make_ctx(seed=0):
    return InteractionContext(
        rng=RngStream(seed, "ctx"),
        scale=SCALE,
        sequences=_SHARED_SEQUENCES,
        customer_id=5,
    )


class TestAllInteractions:
    @pytest.mark.parametrize("name", sorted(INTERACTIONS))
    def test_interaction_completes(self, loaded_cluster, name):
        ctx = make_ctx(seed=hash(name) % 1000)
        conn = loaded_cluster.connect()
        summary = run_sync(INTERACTIONS[name](conn, ctx))
        assert summary["interaction"] == name

    def test_buy_confirm_creates_order(self, loaded_cluster):
        cluster = loaded_cluster
        ctx = make_ctx(seed=77)
        conn = cluster.connect()
        run_sync(INTERACTIONS["shopping_cart"](conn, ctx))
        summary = run_sync(INTERACTIONS["buy_confirm"](conn, ctx))
        o_id = summary["order"]
        rs = cluster.run_read(
            "SELECT o_total FROM orders WHERE o_id = ?", (o_id,), tables=["orders"]
        )
        assert len(rs.rows) == 1
        # Order visible on every slave and on the disk backend.
        disk = cluster.disk_backends[0]
        txn = disk.begin(read_only=True)
        assert disk.execute(txn, "SELECT COUNT(*) FROM orders WHERE o_id = ?", (o_id,)).scalar() == 1
        disk.engine.commit(txn)

    def test_customer_registration_switches_session(self, loaded_cluster):
        ctx = make_ctx(seed=88)
        conn = loaded_cluster.connect()
        summary = run_sync(INTERACTIONS["customer_registration"](conn, ctx))
        assert ctx.customer_id == summary["customer"]
        assert ctx.customer_id > SCALE.num_customers
        rs = loaded_cluster.run_read(
            "SELECT c_uname FROM customer WHERE c_id = ?", (ctx.customer_id,),
            tables=["customer"],
        )
        assert len(rs.rows) == 1

    def test_best_sellers_produces_ranked_rows(self, loaded_cluster):
        ctx = make_ctx(seed=99)
        # Warm some orders so a subject has sales.
        conn = loaded_cluster.connect()
        for _ in range(3):
            run_sync(INTERACTIONS["shopping_cart"](conn, ctx))
            run_sync(INTERACTIONS["buy_confirm"](conn, ctx))
        summary = run_sync(INTERACTIONS["best_sellers"](conn, ctx))
        assert summary["rows"] >= 0  # subject may have no sales; must not crash

    def test_admin_confirm_updates_related(self, loaded_cluster):
        ctx = make_ctx(seed=111)
        conn = loaded_cluster.connect()
        summary = run_sync(INTERACTIONS["admin_confirm"](conn, ctx))
        rs = loaded_cluster.run_read(
            "SELECT i_related1 FROM item WHERE i_id = ?", (summary["item"],),
            tables=["item"],
        )
        assert 1 <= rs.scalar() <= SCALE.num_items


class TestClusterMechanics:
    def test_replication_reaches_all_slaves(self):
        cluster = SyncDmvCluster(TPCW_SCHEMAS, num_slaves=3)
        cluster.load(TpcwDataGenerator(SCALE, seed=3))
        cluster.run_update(
            [("UPDATE item SET i_stock = 77 WHERE i_id = 1", ())], tables=["item"]
        )
        for node_id in cluster.slave_ids():
            handle = cluster.node(node_id)
            from repro.common.versions import VersionVector

            txn = handle.slave.begin_read_only(VersionVector({"item": 1}))
            rs = handle.sql.execute(txn, "SELECT i_stock FROM item WHERE i_id = 1")
            assert rs.scalar() == 77

    def test_reads_balance_across_slaves(self, loaded_cluster):
        # The scheduler decrements outstanding counts at commit, so repeated
        # single reads spread by node id; just check routing works N times.
        for _ in range(4):
            rs = loaded_cluster.run_read(
                "SELECT COUNT(*) FROM country", tables=["country"]
            )
            assert rs.scalar() == 92

    def test_failed_occ_commit_releases_its_transaction(self):
        # A read-set validation failure at commit must roll the transaction
        # back: otherwise its X lock on item 1 outlives it and every later
        # writer of that page aborts with lock-wait.
        cluster = SyncDmvCluster(TPCW_SCHEMAS, num_slaves=1)
        cluster.load(TpcwDataGenerator(SCALE, seed=3))
        conn = cluster.connect()
        conn.begin_update(["item"])
        conn.query("SELECT a_lname FROM author WHERE a_id = 1")  # optimistic read
        cluster.run_update(
            [("UPDATE author SET a_lname = 'x' WHERE a_id = 1", ())], tables=["author"]
        )
        conn.query("UPDATE item SET i_stock = 5 WHERE i_id = 1")
        with pytest.raises(TransactionAborted) as aborted:
            conn.commit()
        assert aborted.value.reason == "occ-conflict"
        assert cluster.node("m0").engine.active_transactions() == []
        cluster.run_update(
            [("UPDATE item SET i_stock = 6 WHERE i_id = 1", ())], tables=["item"]
        )
        assert cluster.run_read(
            "SELECT i_stock FROM item WHERE i_id = 1", tables=["item"]
        ).scalar() == 6

    def test_version_vector_advances(self):
        cluster = SyncDmvCluster(TPCW_SCHEMAS, num_slaves=1)
        cluster.load(TpcwDataGenerator(SCALE, seed=3))
        before = cluster.latest_versions().get("item")
        cluster.run_update(
            [("UPDATE item SET i_stock = 1 WHERE i_id = 2", ())], tables=["item"]
        )
        assert cluster.latest_versions().get("item") == before + 1

    def test_multi_master_mode(self):
        cluster = SyncDmvCluster(
            TPCW_SCHEMAS,
            num_slaves=2,
            conflict_map=tpcw_conflict_map(multi_master=True),
            multi_master=True,
        )
        cluster.load(TpcwDataGenerator(SCALE, seed=3))
        assert len(cluster.master_ids()) == 2
        ctx = make_ctx(seed=5)
        conn = cluster.connect()
        # Registration goes to the customer-class master, cart to the other.
        run_sync(INTERACTIONS["customer_registration"](conn, ctx))
        run_sync(INTERACTIONS["shopping_cart"](conn, ctx))
        run_sync(INTERACTIONS["buy_confirm"](conn, ctx))
        # Both masters' updates are visible on the slaves.
        rs = cluster.run_read(
            "SELECT COUNT(*) FROM customer WHERE c_id = ?", (ctx.customer_id,),
            tables=["customer"],
        )
        assert rs.scalar() == 1


class TestFailover:
    def build(self, num_slaves=3, num_spares=0):
        cluster = SyncDmvCluster(TPCW_SCHEMAS, num_slaves=num_slaves, num_spares=num_spares)
        cluster.load(TpcwDataGenerator(SCALE, seed=3))
        return cluster

    def run_some_updates(self, cluster, n=5):
        for i in range(n):
            cluster.run_update(
                [("UPDATE item SET i_stock = ? WHERE i_id = ?", (i, (i % SCALE.num_items) + 1))],
                tables=["item"],
            )

    def test_slave_failure_removes_from_routing(self):
        cluster = self.build()
        victim = cluster.slave_ids()[0]
        cluster.kill_slave(victim)
        assert victim not in cluster.slave_ids()
        rs = cluster.run_read("SELECT COUNT(*) FROM item", tables=["item"])
        assert rs.scalar() == SCALE.num_items

    def test_master_failure_promotes_slave(self):
        cluster = self.build()
        self.run_some_updates(cluster)
        new_master = cluster.kill_master("m0")
        assert new_master in cluster.master_ids()
        assert new_master not in cluster.slave_ids()
        # Updates keep flowing through the promoted master.
        cluster.run_update(
            [("UPDATE item SET i_stock = 123 WHERE i_id = 1", ())], tables=["item"]
        )
        rs = cluster.run_read("SELECT i_stock FROM item WHERE i_id = 1", tables=["item"])
        assert rs.scalar() == 123

    def test_reads_survive_master_failure(self):
        cluster = self.build()
        self.run_some_updates(cluster)
        cluster.kill_master("m0")
        rs = cluster.run_read("SELECT COUNT(*) FROM customer", tables=["customer"])
        assert rs.scalar() == SCALE.num_customers

    def test_reintegration_after_slave_failure(self):
        cluster = self.build()
        self.run_some_updates(cluster, n=3)
        victim = cluster.slave_ids()[0]
        cluster.node(victim).checkpoint()
        self.run_some_updates(cluster, n=4)  # updates the checkpoint missed
        cluster.kill_slave(victim)
        self.run_some_updates(cluster, n=3)  # updates while the node is down
        stats = cluster.reintegrate(victim)
        assert stats.pages_sent >= 1
        assert victim in cluster.slave_ids()
        # The reintegrated node answers current reads correctly.
        handle = cluster.node(victim)
        txn = handle.slave.begin_read_only(cluster.latest_versions())
        rs = handle.sql.execute(txn, "SELECT i_stock FROM item WHERE i_id = 3")
        assert rs.scalar() == 2  # last update wrote i=2 at i_id=3

    def test_reintegration_without_checkpoint_sends_everything(self):
        cluster = self.build()
        self.run_some_updates(cluster, n=2)
        victim = cluster.slave_ids()[0]
        cluster.kill_slave(victim)
        stats = cluster.reintegrate(victim)
        # No checkpoint: the support slave ships every page (worst case).
        assert stats.pages_sent == cluster.node(victim).engine.store.page_count()

    def test_spare_promotion_serves_reads(self):
        cluster = self.build(num_slaves=1, num_spares=1)
        self.run_some_updates(cluster)
        cluster.kill_slave("s0")
        cluster.promote_spare("spare0")
        rs = cluster.run_read("SELECT COUNT(*) FROM item", tables=["item"])
        assert rs.scalar() == SCALE.num_items

    def test_reads_fall_back_to_the_master_with_no_slave_left(self):
        cluster = self.build(num_slaves=1)
        self.run_some_updates(cluster)
        expected = cluster.run_read("SELECT SUM(i_stock) FROM item", tables=["item"])
        cluster.kill_slave("s0")
        rs = cluster.run_read("SELECT SUM(i_stock) FROM item", tables=["item"])
        assert rs.scalar() == expected.scalar()


    def test_multi_master_promotee_keeps_its_slave_role(self):
        """Two conflict classes on two masters: the slave promoted in place
        of ``m0`` stays a slave for ``m1``'s class — it keeps receiving
        ``m1``'s write-sets and its update transactions read them."""
        a, b = (
            TableSchema(name, [Column("k", "int", nullable=False), Column("v", "int")],
                        primary_key=("k",))
            for name in ("a", "b")
        )
        cluster = SyncDmvCluster(
            [a, b], num_slaves=2, multi_master=True,
            conflict_map=ConflictClassMap(["a", "b"]),
        )
        for table in ("a", "b"):
            cluster.bulk_load(table, [{"k": 1, "v": 0}])
        assert cluster.conflict_map.master_for_tables(["a"]) == "m0"
        promotee = cluster.kill_master("m0")
        node = cluster.node(promotee)
        assert node.master is not None and node.slave is not None
        cluster.run_update([("UPDATE b SET v = 7 WHERE k = 1", ())], tables=["b"])  # on m1
        # Still in the broadcast fan-out ...
        assert promotee in {
            target.node_id
            for target, _frame in fan_out(cluster.nodes, "m1", None, cluster.interest)
        }
        # ... so an update transaction on it (class a) sees m1's commit.
        conn = cluster.connect()
        run_sync(self._read_b_then_write_a(conn))
        assert conn.seen == 7
        for slave_id in cluster.slave_ids():
            handle = cluster.node(slave_id)
            txn = handle.slave.begin_read_only(cluster.latest_versions())
            assert handle.sql.execute(txn, "SELECT v FROM b WHERE k = 1").scalar() == 7

    @staticmethod
    def _read_b_then_write_a(conn):
        yield conn.begin_update(["a"])
        conn.seen = (yield conn.query("SELECT v FROM b WHERE k = 1")).scalar()
        yield conn.query("UPDATE a SET v = ? WHERE k = 1", (conn.seen,))
        yield conn.commit()


class TestCheckpointPersistence:
    def test_save_and_reintegrate_from_file(self, tmp_path):
        cluster = SyncDmvCluster(TPCW_SCHEMAS, num_slaves=3)
        cluster.load(TpcwDataGenerator(SCALE, seed=3))
        for i in range(3):
            cluster.run_update(
                [("UPDATE item SET i_stock = ? WHERE i_id = ?", (i, i + 1))],
                tables=["item"],
            )
        victim = cluster.slave_ids()[0]
        path = str(tmp_path / f"{victim}.ckpt.jsonl")
        saved = cluster.save_node_checkpoint(victim, path)
        assert saved > 0
        # More updates the checkpoint does not contain.
        cluster.run_update(
            [("UPDATE item SET i_stock = 42 WHERE i_id = 9", ())], tables=["item"]
        )
        cluster.kill_slave(victim)
        stats = cluster.reintegrate_from_file(victim, path)
        # Only the delta since the checkpoint moves.
        total_pages = cluster.node(victim).engine.store.page_count()
        assert 0 < stats.pages_sent < total_pages
        handle = cluster.node(victim)
        txn = handle.slave.begin_read_only(cluster.latest_versions())
        rs = handle.sql.execute(txn, "SELECT i_stock FROM item WHERE i_id = 9")
        assert rs.scalar() == 42
