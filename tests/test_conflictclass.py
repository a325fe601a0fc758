"""Unit tests for conflict-class computation and master assignment."""

import pytest

from repro.common.errors import ConfigError
from repro.core import ConflictClassMap

TABLES = ["customer", "address", "orders", "order_line", "cc_xacts", "item", "author", "country"]


class TestClassComputation:
    def test_no_templates_every_table_own_class(self):
        ccm = ConflictClassMap(TABLES)
        assert ccm.num_classes == len(TABLES)

    def test_cowritten_tables_share_class(self):
        ccm = ConflictClassMap(TABLES, [{"orders", "order_line", "cc_xacts", "item"}])
        assert ccm.class_of("orders") == ccm.class_of("item")
        assert ccm.class_of("customer") != ccm.class_of("orders")

    def test_transitive_union(self):
        ccm = ConflictClassMap(TABLES, [{"orders", "item"}, {"item", "cc_xacts"}])
        assert ccm.class_of("orders") == ccm.class_of("cc_xacts")

    def test_single_class_fallback(self):
        ccm = ConflictClassMap.single_class(TABLES)
        assert ccm.num_classes == 1
        assert ccm.class_of_tables(TABLES) == 0

    def test_unknown_table_in_template(self):
        with pytest.raises(ConfigError):
            ConflictClassMap(["a"], [{"a", "zzz"}])

    def test_class_of_unknown_table(self):
        with pytest.raises(ConfigError):
            ConflictClassMap(["a"]).class_of("b")

    def test_class_of_tables_spanning_classes_rejected(self):
        ccm = ConflictClassMap(TABLES, [{"orders", "item"}])
        with pytest.raises(ConfigError):
            ccm.class_of_tables(["orders", "customer"])

    def test_tables_of_class(self):
        ccm = ConflictClassMap(TABLES, [{"orders", "order_line"}])
        cls = ccm.class_of("orders")
        assert set(ccm.tables_of_class(cls)) == {"orders", "order_line"}


class TestMasterAssignment:
    def test_round_robin(self):
        ccm = ConflictClassMap(["a", "b", "c"])
        ccm.assign_masters(["m0", "m1"])
        masters = [ccm.master_of_class(i) for i in range(3)]
        assert masters == ["m0", "m1", "m0"]

    def test_single_master(self):
        ccm = ConflictClassMap.single_class(TABLES)
        ccm.assign_masters(["m0"])
        assert ccm.master_for_tables(["orders", "item"]) == "m0"
        assert ccm.masters_in_use() == ["m0"]

    def test_no_masters_rejected(self):
        with pytest.raises(ConfigError):
            ConflictClassMap(["a"]).assign_masters([])

    def test_unassigned_raises(self):
        with pytest.raises(ConfigError):
            ConflictClassMap(["a"]).master_of_class(0)

    def test_reassign_master_failover(self):
        ccm = ConflictClassMap(["a", "b"])
        ccm.assign_masters(["m0", "m1"])
        moved = ccm.reassign_master("m0", "m9")
        assert moved == 1
        assert ccm.master_of_class(0) == "m9"
        assert ccm.master_of_class(1) == "m1"
