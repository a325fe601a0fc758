"""Unit tests for repro.common: errors, ids, RNG streams, counters."""

import pytest
from hypothesis import given, strategies as st

from repro.common import (
    Counters,
    DeadlockDetected,
    IdAllocator,
    PageId,
    ReproError,
    RngStream,
    TransactionAborted,
    VersionInconsistency,
    derive_seed,
)


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(TransactionAborted, ReproError)
        assert issubclass(VersionInconsistency, TransactionAborted)
        assert issubclass(DeadlockDetected, TransactionAborted)

    def test_abort_reason_default(self):
        err = TransactionAborted("boom")
        assert err.reason == "abort"

    def test_version_inconsistency_carries_versions(self):
        err = VersionInconsistency("stale", required=3, found=7)
        assert err.reason == "version-inconsistency"
        assert err.required == 3
        assert err.found == 7

    def test_deadlock_reason(self):
        assert DeadlockDetected("victim").reason == "deadlock"


class TestIds:
    def test_allocator_monotonic(self):
        alloc = IdAllocator()
        ids = [alloc.next() for _ in range(5)]
        assert ids == [1, 2, 3, 4, 5]

    def test_allocator_custom_start(self):
        assert IdAllocator(start=100).next() == 100

    def test_page_id_equality_and_ordering(self):
        a = PageId("item", 1)
        b = PageId("item", 2)
        assert a == PageId("item", 1)
        assert a < b
        assert PageId("author", 9) < a  # table name orders first

    def test_page_id_hashable(self):
        assert len({PageId("t", 0), PageId("t", 0), PageId("t", 1)}) == 2

    def test_page_id_str(self):
        assert str(PageId("orders", 7)) == "orders#7"
        assert f"{PageId('orders', 7)}" == "orders#7"
        assert repr(PageId("orders", 7)) == "PageId(table='orders', number=7)"

    def test_page_id_hashes_as_its_tuple(self):
        # Dict and set iteration orders over page ids — and with them every
        # replayed run — depend on this value, not only on its stability.
        for table, number in [("item", 0), ("order_line", 12345), ("", -1)]:
            assert hash(PageId(table, number)) == hash((table, number))

    def test_page_id_construction_and_fields(self):
        by_position = PageId("item", 3)
        assert by_position == PageId(table="item", number=3) == PageId(number=3, table="item")
        assert (by_position.table, by_position.number) == ("item", 3)
        table, number = by_position
        assert (table, number) == ("item", 3)
        with pytest.raises(AttributeError):
            by_position.number = 4
        assert sorted([PageId("b", 0), PageId("a", 2), PageId("a", 10)]) == [
            PageId("a", 2), PageId("a", 10), PageId("b", 0)
        ]
        assert PageId("a", 1) != PageId("a", 2) and PageId("a", 1) != PageId("b", 1)

    def test_page_id_span_tag_exports_as_a_string(self):
        import json

        from repro.obs.export import span_to_event
        from repro.obs.trace import Tracer

        span = Tracer().span("apply", node="s0", page=PageId("item", 3), pages=[PageId("a", 1)])
        args = span_to_event(span.finish())["args"]
        assert args["page"] == "PageId(table='item', number=3)"
        assert args["pages"] == ["PageId(table='a', number=1)"]
        json.dumps(args)


class TestRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")

    def test_derive_seed_differs_by_name(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_derive_seed_differs_by_root(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_stream_reproducible(self):
        draws1 = [RngStream(7, "x").random() for _ in range(1)]
        draws2 = [RngStream(7, "x").random() for _ in range(1)]
        assert draws1 == draws2

    def test_streams_independent(self):
        a = RngStream(7, "a")
        b = RngStream(7, "b")
        assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]

    def test_child_stream(self):
        parent = RngStream(9, "p")
        child = parent.child("c")
        assert child.name.endswith("/c")
        assert 0.0 <= child.random() < 1.0

    def test_expovariate_mean(self):
        stream = RngStream(3, "exp")
        draws = [stream.expovariate(5.0) for _ in range(4000)]
        assert 4.5 < sum(draws) / len(draws) < 5.5

    def test_expovariate_zero_mean(self):
        assert RngStream(3).expovariate(0.0) == 0.0

    def test_weighted_choice_respects_weights(self):
        stream = RngStream(11, "w")
        picks = [stream.weighted_choice(["a", "b"], [0.99, 0.01]) for _ in range(500)]
        assert picks.count("a") > 400

    @given(st.integers(min_value=1, max_value=1000), st.integers(min_value=0, max_value=2**30))
    def test_zipf_index_in_range(self, n, seed):
        stream = RngStream(seed, "zipf")
        for _ in range(10):
            assert 0 <= stream.zipf_index(n) < n

    def test_zipf_skews_low(self):
        stream = RngStream(13, "zipf")
        draws = [stream.zipf_index(1000, skew=1.0) for _ in range(2000)]
        low = sum(1 for d in draws if d < 100)
        assert low > len(draws) * 0.5  # heavy head

    def test_zipf_rejects_empty(self):
        with pytest.raises(ValueError):
            RngStream(1).zipf_index(0)


class TestCounters:
    def test_add_and_get(self):
        c = Counters()
        c.add("reads")
        c.add("reads", 2)
        assert c.get("reads") == 3

    def test_missing_counter_zero(self):
        assert Counters().get("nope") == 0.0

    def test_snapshot_delta(self):
        c = Counters()
        c.add("x", 5)
        snap = c.snapshot()
        c.add("x", 2)
        c.add("y", 1)
        delta = c.delta_since(snap)
        assert delta == {"x": 2, "y": 1}

    def test_delta_skips_unchanged(self):
        c = Counters()
        c.add("x", 5)
        assert c.delta_since(c.snapshot()) == {}

    def test_reset(self):
        c = Counters()
        c.add("x")
        c.reset()
        assert c.get("x") == 0

    def test_delta_survives_reset_mid_window(self):
        """A counter cleared after the snapshot must yield a negative delta,
        not silently vanish from the report."""
        c = Counters()
        c.add("x", 5)
        c.add("y", 3)
        snap = c.snapshot()
        c.reset()
        c.add("x", 5)  # returns to its prior value: genuinely no net change
        delta = c.delta_since(snap)
        assert delta == {"y": -3}

    def test_delta_negative_for_cleared_counter(self):
        c = Counters()
        c.add("x", 7)
        snap = c.snapshot()
        c.reset()
        assert c.delta_since(snap) == {"x": -7}

    def test_delta_ignores_zero_valued_snapshot_keys(self):
        c = Counters()
        c.get("x")  # read-only access must not materialise a key
        snap = dict(c.snapshot())
        snap["ghost"] = 0.0
        c.reset()
        assert c.delta_since(snap) == {}

    def test_merge_mapping(self):
        c = Counters()
        c.add("x", 2)
        c.merge({"x": 3, "y": 1})
        assert c.get("x") == 5
        assert c.get("y") == 1

    def test_merge_from_roundtrips_through_delta(self):
        """merge(delta_since(snap)) re-applies a window exactly."""
        a = Counters()
        a.add("x", 5)
        snap = a.snapshot()
        a.add("x", 2)
        a.add("y", 4)
        b = Counters()
        b.merge(snap)
        b.merge(a.delta_since(snap))
        assert b.snapshot() == a.snapshot()

    def test_iter_sorted(self):
        c = Counters()
        c.add("b")
        c.add("a")
        assert [k for k, _ in c] == ["a", "b"]
