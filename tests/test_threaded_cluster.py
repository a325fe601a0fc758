"""Stress tests: the threaded live cluster under real thread interleaving."""

import threading

import pytest

from repro.cluster.threaded import ThreadedDmvCluster
from repro.common.errors import TransactionAborted
from repro.engine import Column, TableSchema

ACCOUNTS = TableSchema(
    "accounts",
    [Column("id", "int", nullable=False), Column("balance", "int")],
    primary_key=("id",),
)
BRANCHES = TableSchema(
    "branches",
    [Column("id", "int", nullable=False), Column("name", "str")],
    primary_key=("id",),
)
N_ACCOUNTS = 32
INITIAL = 100


def build(num_slaves=2):
    cluster = ThreadedDmvCluster([ACCOUNTS], num_slaves=num_slaves)
    cluster.bulk_load("accounts", [{"id": i, "balance": INITIAL} for i in range(N_ACCOUNTS)])
    return cluster


class TestBasics:
    def test_read_after_update(self):
        cluster = build()
        cluster.run_update(
            [("UPDATE accounts SET balance = 50 WHERE id = 0", ())], tables=["accounts"]
        )
        assert cluster.run_read(
            "SELECT balance FROM accounts WHERE id = 0", tables=["accounts"]
        ).scalar() == 50

    def test_reads_balance_across_slaves(self):
        cluster = build(num_slaves=3)
        for _ in range(6):
            assert cluster.run_read(
                "SELECT COUNT(*) FROM accounts", tables=["accounts"]
            ).scalar() == N_ACCOUNTS

    def test_failed_occ_commit_releases_its_transaction(self):
        # A read-set validation failure at commit must roll the transaction
        # back: otherwise its X lock on account 0 outlives it and the next
        # writer of that page blocks until LOCK_WAIT_TIMEOUT.
        cluster = ThreadedDmvCluster([ACCOUNTS, BRANCHES], num_slaves=1)
        cluster.bulk_load("accounts", [{"id": i, "balance": INITIAL} for i in range(4)])
        cluster.bulk_load("branches", [{"id": 0, "name": "main"}])
        conn = cluster.connect()
        conn.begin_update(["accounts"])
        conn.query("SELECT name FROM branches WHERE id = 0")  # optimistic read
        cluster.run_update(
            [("UPDATE branches SET name = 'x' WHERE id = 0", ())], tables=["branches"]
        )
        conn.query("UPDATE accounts SET balance = 5 WHERE id = 0")
        with pytest.raises(TransactionAborted) as aborted:
            conn.commit()
        assert aborted.value.reason == "occ-conflict"
        with cluster.mutex:
            assert cluster.node("m0").engine.active_transactions() == []
        cluster.run_update(
            [("UPDATE accounts SET balance = 6 WHERE id = 0", ())], tables=["accounts"]
        )
        assert cluster.run_read(
            "SELECT balance FROM accounts WHERE id = 0", tables=["accounts"]
        ).scalar() == 6


class TestConcurrency:
    def _transfer_worker(self, cluster, rounds, errors, done_counts, worker_id):
        import random

        rng = random.Random(worker_id)
        done = 0
        for _ in range(rounds):
            src = rng.randrange(N_ACCOUNTS)
            dst = rng.randrange(N_ACCOUNTS)
            amount = rng.randint(1, 10)
            try:
                cluster.run_update(
                    [
                        ("UPDATE accounts SET balance = balance - ? WHERE id = ?", (amount, src)),
                        ("UPDATE accounts SET balance = balance + ? WHERE id = ?", (amount, dst)),
                    ],
                    tables=["accounts"],
                )
                done += 1
            except TransactionAborted:
                pass  # deadlock victim: acceptable, retried by real apps
            except Exception as exc:  # noqa: BLE001 - surface to the test
                errors.append(exc)
                return
        done_counts[worker_id] = done

    def _reader_worker(self, cluster, rounds, errors, worker_id):
        for _ in range(rounds):
            try:
                total = cluster.run_read(
                    "SELECT SUM(balance) FROM accounts", tables=["accounts"]
                ).scalar()
                if total != N_ACCOUNTS * INITIAL:
                    errors.append(AssertionError(f"inconsistent snapshot: {total}"))
                    return
            except TransactionAborted:
                pass  # version-inconsistency abort: retry in real apps
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
                return

    def test_concurrent_transfers_preserve_invariant(self):
        """The headline guarantee under true preemptive threading."""
        cluster = build(num_slaves=2)
        errors: list = []
        done_counts: dict = {}
        writers = [
            threading.Thread(
                target=self._transfer_worker,
                args=(cluster, 40, errors, done_counts, w),
            )
            for w in range(4)
        ]
        readers = [
            threading.Thread(target=self._reader_worker, args=(cluster, 40, errors, 100 + r))
            for r in range(4)
        ]
        for t in writers + readers:
            t.start()
        for t in writers + readers:
            t.join(timeout=60)
            assert not t.is_alive(), "worker thread hung"
        assert not errors, errors
        assert sum(done_counts.values()) > 0
        # Final state is consistent everywhere.
        total = cluster.run_read("SELECT SUM(balance) FROM accounts", tables=["accounts"]).scalar()
        assert total == N_ACCOUNTS * INITIAL

    def test_slaves_converge_after_concurrent_load(self):
        cluster = build(num_slaves=2)
        errors: list = []
        done: dict = {}
        threads = [
            threading.Thread(
                target=self._transfer_worker, args=(cluster, 30, errors, done, w)
            )
            for w in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        states = []
        for node in cluster.nodes.values():
            if node.slave is None:
                continue
            with cluster.mutex:
                node.slave.apply_all_pending()
                from repro.engine import TxnMode

                ro = node.engine.begin(TxnMode.READ_ONLY)
                states.append(sorted(r for _l, r in node.engine.table("accounts").scan(ro)))
        assert states[0] == states[1]

    def test_blocking_lock_wait_resolves(self):
        """A statement blocked on another thread's page lock wakes up."""
        cluster = build(num_slaves=1)
        conn1 = cluster.connect()
        conn1.begin_update(["accounts"])
        conn1.query("UPDATE accounts SET balance = 1 WHERE id = 0")
        outcome = {}

        def blocked():
            try:
                cluster.run_update(
                    [("UPDATE accounts SET balance = 2 WHERE id = 0", ())],
                    tables=["accounts"],
                )
                outcome["ok"] = True
            except Exception as exc:  # noqa: BLE001
                outcome["error"] = exc

        thread = threading.Thread(target=blocked)
        thread.start()
        thread.join(timeout=0.5)
        assert thread.is_alive()  # genuinely blocked on the page lock
        conn1.commit()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert outcome.get("ok") is True
        assert cluster.run_read(
            "SELECT balance FROM accounts WHERE id = 0", tables=["accounts"]
        ).scalar() == 2
