"""Read visibility on the simulated cluster: a tagged slave read sees every
write sealed at or below its tag (Faleiro & Abadi's read-visibility rule;
under interest sets, Sutra & Shapiro's partial-replication reads).

The oracle records, per page, the version of every write-set a master
seals, and checks each page a slave's read gate lets a tagged read
through: a page still older than the newest sealed write at or below the
read's tag was read stale.  Both hooks are patched on the classes before
the cluster is built, because each engine binds its controller's gate
once, when it builds its read funnel.

The plans are the two where a commit is confirmed before every slave has
acked it (``quorum`` acks), so a slave may lack a write the read's tag
already covers: only the scheduler's routing keeps such a read off it.
"""

import bisect
from dataclasses import replace

import pytest

from repro.chaos import PLANS, run_plan
from repro.core.master import MasterReplica
from repro.core.slave import SlaveController


class ReadVisibilityOracle:
    def __init__(self, monkeypatch) -> None:
        #: page -> sorted versions of the write-sets sealed with an op on it.
        self.sealed = {}
        #: (node, txn_id, page_id, page version, newest sealed version <= tag)
        self.stale = []
        self.pages_read = 0
        seal, gate = MasterReplica.seal_epoch, SlaveController.read_gate

        def seal_epoch(master, txn_id, ops, epoch_versions):
            write_set = seal(master, txn_id, ops, epoch_versions)
            for op in write_set.ops:
                versions = self.sealed.setdefault(op.page_id, [])
                version = write_set.versions[op.page_id.table]
                if version not in versions:
                    bisect.insort(versions, version)
            return write_set

        def read_gate(controller, txn, page, tag_v):
            gate(controller, txn, page, tag_v)
            if tag_v is None:
                return
            self.pages_read += 1
            versions = self.sealed.get(page.page_id, ())
            below = bisect.bisect_right(versions, tag_v)
            if below and page.version < versions[below - 1]:
                self.stale.append(
                    (
                        controller.slave.node_id,
                        txn.txn_id,
                        page.page_id,
                        page.version,
                        versions[below - 1],
                    )
                )

        monkeypatch.setattr(MasterReplica, "seal_epoch", seal_epoch)
        monkeypatch.setattr(SlaveController, "read_gate", read_gate)

    def summary(self) -> str:
        txns = {(node, txn_id) for node, txn_id, *_ in self.stale}
        return (
            f"{len(self.stale)} stale page reads in {len(txns)} transactions "
            f"of {self.pages_read} tagged page reads; first: {self.stale[:3]}"
        )


def quorum(plan):
    return replace(
        plan, cluster=lambda duration: {**plan.cluster(duration), "ack_policy": "quorum"}
    )


@pytest.mark.parametrize(
    "plan",
    [PLANS["straggler"], quorum(PLANS["partial"])],
    ids=["straggler", "partial-quorum"],
)
def test_no_tagged_read_misses_a_write_at_or_below_its_tag(monkeypatch, plan):
    oracle = ReadVisibilityOracle(monkeypatch)
    report = run_plan(plan, duration=60.0)
    assert report.counters.get("net.quorum_saves", 0) > 0, report.summary()
    assert oracle.pages_read > 1_000, oracle.summary()
    assert oracle.stale == [], oracle.summary()
