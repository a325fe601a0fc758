"""The shared rejoin-support decision (``repro.cluster.protocol.rejoin_support``).

Which replica feeds a joiner's data migration is one pure function of the
node states, the interest registry and the ack policy; ``SimDmvCluster``
and ``SyncDmvCluster`` both call it.
"""

from types import SimpleNamespace

import pytest

from repro.cluster.interest import InterestRegistry, InterestSet
from repro.cluster.protocol import rejoin_support
from repro.cluster.simcluster import SimDmvCluster
from repro.cluster.sync import SyncDmvCluster
from repro.common.errors import NodeUnavailable
from repro.common.versions import VersionVector
from repro.tpcw import TPCW_SCHEMAS


def node(
    node_id, received=0, alive=True, subscribed=True, catching_up=False, slave=True, master=False
):
    replica = SimpleNamespace(
        catching_up=catching_up, received_versions=VersionVector({"item": received})
    )
    return SimpleNamespace(
        node_id=node_id,
        alive=alive,
        subscribed=subscribed,
        slave=replica if slave else None,
        master=SimpleNamespace() if master else None,
    )


def nodes(*members):
    return {n.node_id: n for n in members}


def pick(members, joiner="j", policy="all", interest=None):
    chosen = rejoin_support(nodes(*members), joiner, interest or InterestRegistry(), policy)
    return None if chosen is None else chosen.node_id


class TestRejoinSupport:
    def test_all_picks_the_first_candidate(self):
        members = (node("j"), node("s0", 3), node("s1", 9), node("s2", 5))
        assert pick(members) == "s0"

    @pytest.mark.parametrize("policy", ["quorum"])
    def test_weaker_policies_pick_the_freshest(self, policy):
        members = (node("j"), node("s0", 3), node("s1", 9), node("s2", 5))
        assert pick(members, policy=policy) == "s1"

    @pytest.mark.parametrize("policy", ["quorum"])
    def test_freshness_ties_go_to_the_highest_node_id(self, policy):
        members = (node("j"), node("s0", 9), node("s2", 9), node("s1", 9))
        assert pick(members, policy=policy) == "s2"

    def test_a_catching_up_slave_is_never_the_freshest(self):
        members = (node("j"), node("s0", 3), node("s1", 9, catching_up=True))
        assert pick(members, policy="quorum") == "s0"
        # Under ``all`` catch-up does not disqualify (first candidate).
        assert pick((node("j"), node("s1", 9, catching_up=True), node("s0", 3))) == "s1"

    def test_dead_unsubscribed_and_masters_without_slave_role_are_skipped(self):
        members = (
            node("m0", slave=False, master=True),
            node("j"),
            node("s0", 9, alive=False),
            node("s1", 9, subscribed=False),
            node("s2", 1),
        )
        for policy in ("all", "quorum"):
            assert pick(members, policy=policy) == "s2"

    def test_a_dual_master_is_never_a_support(self):
        # Its slave role shares the master's engine, whose pages hold the
        # master's uncommitted writes in place.
        members = (node("m0", 9, master=True), node("j"), node("s0", 1))
        for policy in ("all", "quorum"):
            assert pick(members, policy=policy) == "s0"
        assert pick(members[:2]) is None

    def test_partial_joiner_gets_only_a_superset_support(self):
        interest = InterestRegistry()
        interest.declare("j", InterestSet.of("item", "author"))
        interest.declare("s0", InterestSet.of("item"))
        interest.declare("s1", InterestSet.of("item", "author", "orders"))
        members = (node("j"), node("s0", 9), node("s1", 1), node("s2", 5))
        assert pick(members, interest=interest) == "s1"
        assert pick(members, policy="quorum", interest=interest) == "s2"
        # A full joiner needs a full support: partial s0/s1 never qualify.
        interest.declare("j", InterestSet.full())
        assert pick(members, interest=interest) == "s2"

    @pytest.mark.parametrize("policy", ["all", "quorum"])
    def test_no_candidate_means_the_master_fallback(self, policy):
        members = (node("m0", slave=False), node("j"), node("s0", alive=False))
        assert pick(members, policy=policy) is None


class TestClustersAgree:
    """Same node states, same support — whichever cluster runs the rejoin."""

    def states(self, cluster):
        cluster.nodes["s0"].subscribed = False  # the joiner (demoted)
        cluster.interest.declare("s1", InterestSet.of("item"))
        cluster.interest.declare("s0", InterestSet.of("item", "author"))

    def test_sync_and_sim_pick_the_same_support(self):
        sync = SyncDmvCluster(TPCW_SCHEMAS, num_slaves=4)
        sim = SimDmvCluster(TPCW_SCHEMAS, num_slaves=4)
        for cluster in (sync, sim):
            self.states(cluster)
        sim_pick = rejoin_support(sim.nodes, "s0", sim.interest, sim.ack_policy)
        assert sync._migration_source(None, "s0").node_id == sim_pick.node_id == "s2"
        for cluster in (sync, sim):
            cluster.nodes["s2"].alive = False
        sim_pick = rejoin_support(sim.nodes, "s0", sim.interest, sim.ack_policy)
        assert sync._migration_source(None, "s0").node_id == sim_pick.node_id == "s3"
        for cluster in (sync, sim):
            cluster.nodes["s3"].subscribed = False
        # Nothing covers s0: the simulator migrates from the master, the
        # embedded cluster refuses.
        assert rejoin_support(sim.nodes, "s0", sim.interest, sim.ack_policy) is None
        with pytest.raises(NodeUnavailable):
            sync._migration_source(None, "s0")
