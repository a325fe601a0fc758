"""Layout ratchet: the cluster package stays a set of small components.

``SimDmvCluster`` was once a 2,052-line class with 82 methods; these checks
keep it a composition root, keep every module of ``repro.cluster`` small,
keep DESIGN.md §4's module tree and the code from drifting apart, and keep
policy constants out of ``CostConfig``.
"""

import dataclasses
import inspect
import re
from pathlib import Path

import repro.cluster.sync
import repro.cluster.threaded
from repro.cluster.costs import CostConfig
from repro.cluster.simcluster import SimDmvCluster

REPO = Path(__file__).resolve().parents[1]
CLUSTER = REPO / "src" / "repro" / "cluster"


def cluster_modules():
    return sorted(p.name for p in CLUSTER.glob("*.py") if p.name != "__init__.py")


def test_no_cluster_module_over_650_lines():
    sizes = {p.name: len(p.read_text().splitlines()) for p in CLUSTER.glob("*.py")}
    assert {name: n for name, n in sizes.items() if n > 650} == {}


def test_sim_cluster_is_a_composition_root():
    assert SimDmvCluster.__bases__ == (object,)
    methods = [
        name
        for name, member in vars(SimDmvCluster).items()
        if inspect.isfunction(member) or isinstance(member, property)
    ]
    assert len(methods) <= 45, sorted(methods)


def test_design_doc_module_tree_matches_the_code():
    design = (REPO / "DESIGN.md").read_text()
    section = design[design.index("## 4. Repository layout"):]
    section = section[: section.index("\n## 5.")]
    listed, in_cluster = [], False
    for line in section.splitlines():
        if re.match(r"^  \w+/", line):  # a package line of the tree
            in_cluster = line.startswith("  cluster/")
        elif in_cluster:
            match = re.match(r"^    (\w+\.py)\s+\S", line)
            assert match, f"unparsable line under cluster/: {line!r}"
            listed.append(match.group(1))
    assert sorted(listed) == cluster_modules()


def test_cost_config_is_a_cost_model_not_a_policy_bag():
    assert len(dataclasses.fields(CostConfig)) <= 33


def test_replica_node_replaced_the_per_driver_node_classes():
    assert not hasattr(repro.cluster.sync, "NodeHandle")
    assert not hasattr(repro.cluster.threaded, "ThreadedNode")


def test_drivers_keep_no_orchestration_of_their_own():
    threaded = (CLUSTER / "threaded.py").read_text()
    for call in ("pre_commit(", "slave.receive(", "on_master_commit("):
        assert call not in threaded, call
    assert "_browser_loop" not in (CLUSTER / "simdisk.py").read_text()
