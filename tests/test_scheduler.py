"""Unit tests for the version-aware and conflict-aware schedulers."""

import pytest

from repro.common.errors import NodeUnavailable
from repro.common.versions import VersionVector
from repro.core import ConflictClassMap
from repro.scheduler import ConflictAwareScheduler, QueryLog, VersionAwareScheduler
from repro.scheduler.querylog import LoggedUpdate


def make_sched(n_slaves=3, **kwargs):
    ccm = ConflictClassMap.single_class(["item", "orders"])
    ccm.assign_masters(["m0"])
    sched = VersionAwareScheduler("sched0", ccm, **kwargs)
    for i in range(n_slaves):
        sched.add_slave(f"s{i}")
    return sched


class TestVersionAwareRouting:
    def test_updates_go_to_master(self):
        sched = make_sched()
        assert sched.route_update(["item"]) == "m0"

    def test_read_tagged_with_latest(self):
        sched = make_sched()
        sched.on_master_commit("m0", {"item": 3})
        routed = sched.route_read(["item"])
        assert routed.tag == VersionVector({"item": 3})

    def test_tag_is_a_copy(self):
        sched = make_sched()
        routed = sched.route_read(["item"])
        routed.tag.increment(["item"])
        assert sched.latest.get("item") == 0

    def test_load_balancing(self):
        sched = make_sched(n_slaves=3)
        nodes = [sched.route_read(["item"]).node_id for _ in range(3)]
        assert sorted(nodes) == ["s0", "s1", "s2"]

    def test_note_read_done_rebalances(self):
        sched = make_sched(n_slaves=2)
        first = sched.route_read(["item"]).node_id
        sched.route_read(["item"])
        sched.note_read_done(first)
        assert sched.route_read(["item"]).node_id == first

    def test_version_affinity_preferred(self):
        sched = make_sched(n_slaves=3)
        sched.on_master_commit("m0", {"item": 1})
        first = sched.route_read(["item"])
        sched.note_read_done(first.node_id)
        # Same version: scheduler prefers the same (affine) replica even
        # though others have equal load and lower ids could win otherwise.
        second = sched.route_read(["item"])
        assert second.node_id == first.node_id
        assert sched.counters.get("sched.reads_version_affinity") >= 1

    def test_new_version_breaks_affinity_preference(self):
        sched = make_sched(n_slaves=2)
        sched.on_master_commit("m0", {"item": 1})
        sched.route_read(["item"])
        sched.on_master_commit("m0", {"item": 2})
        routed = sched.route_read(["item"])
        assert routed.tag.get("item") == 2

    def test_no_slaves_raises(self):
        # With no slave the read falls back to a master; with no master
        # either, nothing can serve it.
        sched = make_sched(n_slaves=0)
        assert sched.route_read(["item"]).node_id == "m0"
        sched.remove_node("m0")
        with pytest.raises(NodeUnavailable):
            sched.route_read(["item"])

    def test_spare_owing_an_ack_is_skipped(self):
        sched = make_sched(n_slaves=1, spare_read_fraction=1.0)
        sched.add_slave("spare0", spare=True)
        sched.note_owed("spare0", {"item": 1})
        assert sched.route_read(["item"]).node_id == "s0"
        assert sched.counters.get("sched.reads_to_spares") == 0

    def test_spare_fraction_routes_to_spare(self):
        sched = make_sched(n_slaves=1, spare_read_fraction=1.0)
        sched.add_slave("spare0", spare=True)
        assert sched.route_read(["item"]).node_id == "spare0"

    def test_zero_spare_fraction_never_uses_spares(self):
        sched = make_sched(n_slaves=1, spare_read_fraction=0.0)
        sched.add_slave("spare0", spare=True)
        for _ in range(10):
            routed = sched.route_read(["item"])
            assert routed.node_id == "s0"
            sched.note_read_done(routed.node_id)

    def test_promote_spare(self):
        sched = make_sched(n_slaves=0)
        sched.add_slave("spare0", spare=True)
        sched.promote_spare("spare0")
        assert sched.route_read(["item"]).node_id == "spare0"

    def test_remove_node(self):
        sched = make_sched(n_slaves=2)
        sched.remove_node("s0")
        for _ in range(4):
            assert sched.route_read(["item"]).node_id == "s1"


class TestVersionAwareFailover:
    def test_master_failure_reassignment(self):
        sched = make_sched(n_slaves=2)
        moved = sched.on_master_failure("m0", "s0")
        assert moved == 1
        assert sched.route_update(["item"]) == "s0"
        # The promoted slave no longer serves reads.
        for _ in range(4):
            assert sched.route_read(["item"]).node_id == "s1"

    def test_export_import_state(self):
        sched = make_sched()
        sched.on_master_commit("m0", {"item": 5})
        peer = make_sched()
        peer.import_state(sched.export_state())
        assert peer.latest == sched.latest

    def test_commit_logs_queries(self):
        sched = make_sched()
        sched.query_log.set_cursor("disk0", 0)  # the log keeps only what a consumer will read
        sched.on_master_commit(
            "m0", {"item": 1}, queries=[("UPDATE item SET i_stock = 1", ())], txn_id=7
        )
        assert len(sched.query_log) == 1
        assert [entry.txn_id for entry in sched.query_log.pending_for("disk0")] == [7]


class TestQueryLog:
    def test_cursors(self):
        log = QueryLog()
        log.set_cursor("backup", 0)
        for i in range(5):
            log.append(LoggedUpdate(i, (("q", ()),)))
        assert log.lag_of("backup") == 5
        batch = log.pending_for("backup")
        assert len(batch) == 5
        log.advance("backup", len(batch))
        assert log.lag_of("backup") == 0

    def test_keeps_only_what_a_registered_consumer_has_not_passed(self):
        log = QueryLog()
        log.append(LoggedUpdate(0, ()))  # nobody registered: nothing kept
        assert len(log) == 1 and log._entries == []
        log.set_cursor("slow", 1)
        log.set_cursor("fast", 1)
        for i in range(1, 6):
            log.append(LoggedUpdate(i, ()))
        log.advance("fast", 5)
        log.advance("slow", 2)
        assert len(log) == 6  # indices stay absolute
        assert [e.txn_id for e in log.pending_for("slow")] == [3, 4, 5]
        assert len(log._entries) == 3  # 0..2 passed by every consumer: dropped
        assert log.pending_for("fast") == [] and log.lag_of("slow") == 3
        with pytest.raises(ValueError):
            log.set_cursor("late", 0)  # never silently skips dropped entries
        with pytest.raises(KeyError):
            log.pending_for("unregistered")
        log.unregister("slow")
        assert log._entries == [] and log.lag_of("fast") == 0

    def test_set_cursor_clamped(self):
        log = QueryLog()
        log.append(LoggedUpdate(1, ()))
        log.set_cursor("c", 99)
        assert log.cursor("c") == 1

    def test_byte_size(self):
        entry = LoggedUpdate(1, (("UPDATE item SET x = ?", (42,)),))
        assert entry.byte_size() > 32


class TestConflictAware:
    def make(self):
        sched = ConflictAwareScheduler("ca0")
        sched.add_replica("d0")
        sched.add_replica("d1")
        sched.add_replica("backup", passive=True)
        return sched

    def test_reads_balance_over_actives(self):
        sched = self.make()
        nodes = {sched.route_read() for _ in range(2)}
        assert nodes == {"d0", "d1"}

    def test_passive_never_serves_reads(self):
        sched = self.make()
        for _ in range(6):
            assert sched.route_read() != "backup"

    def test_updates_write_all_actives(self):
        sched = self.make()
        assert sorted(sched.update_targets()) == ["d0", "d1"]

    def test_backup_lags_until_refresh(self):
        sched = self.make()
        log = sched.query_log
        for i in range(4):
            sched.log_update([("UPDATE x", ())])
        assert log.lag_of("backup") == 4
        with pytest.raises(KeyError):
            log.cursor("d0")  # actives apply every update as it commits: no cursor
        log.advance("backup", len(log.pending_for("backup")))
        assert log.lag_of("backup") == 0

    def test_promote_backup_unregisters_its_cursor(self):
        sched = self.make()
        for _ in range(3):
            sched.log_update([("UPDATE x", ())])
        sched.promote_backup("backup")
        assert "backup" in [r.node_id for r in sched.active_replicas()]
        with pytest.raises(KeyError):
            sched.query_log.cursor("backup")
        assert sched.query_log._entries == []  # no consumer left: nothing kept

    def test_failover_after_active_death(self):
        sched = self.make()
        sched.remove_replica("d0")
        sched.promote_backup("backup")
        nodes = {sched.route_read() for _ in range(2)}
        assert nodes == {"d1", "backup"}

    def test_promote_unknown_raises(self):
        with pytest.raises(NodeUnavailable):
            self.make().promote_backup("zzz")
