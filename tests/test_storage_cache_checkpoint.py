"""Unit tests for the page-cache model and fuzzy checkpointing."""

import pytest

from repro.common.ids import PageId
from repro.storage import FuzzyCheckpointer, PageCache, PageStore, StableStore


def pid(n, table="item"):
    return PageId(table, n)


class TestPageCache:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PageCache(0)

    def test_miss_then_hit(self):
        cache = PageCache(4)
        assert cache.touch(pid(1)) is False
        assert cache.touch(pid(1)) is True
        assert cache.counters.get("cache.hits") == 1
        assert cache.counters.get("cache.misses") == 1

    def test_lru_eviction(self):
        cache = PageCache(2)
        cache.touch(pid(1))
        cache.touch(pid(2))
        cache.touch(pid(3))  # evicts 1
        assert not cache.resident(pid(1))
        assert cache.resident(pid(2))
        assert cache.resident(pid(3))
        assert cache.counters.get("cache.evictions") == 1

    def test_touch_refreshes_lru_position(self):
        cache = PageCache(2)
        cache.touch(pid(1))
        cache.touch(pid(2))
        cache.touch(pid(1))  # 2 is now coldest
        cache.touch(pid(3))
        assert cache.resident(pid(1))
        assert not cache.resident(pid(2))

    def test_warm_counts_new_pages_and_no_misses(self):
        cache = PageCache(4)
        added = cache.warm([pid(1), pid(2), pid(1)])
        assert added == 2
        assert cache.counters.get("cache.misses") == 0
        assert cache.resident(pid(1))

    def test_invalidate_all(self):
        cache = PageCache(4)
        cache.touch(pid(1))
        cache.invalidate_all()
        assert cache.resident_count() == 0

    def test_hottest_order(self):
        cache = PageCache(4)
        for n in (1, 2, 3):
            cache.touch(pid(n))
        assert cache.hottest(2) == [pid(3), pid(2)]

    @pytest.mark.parametrize("limit", [0, 1, 4, 5, 9])
    def test_hottest_equals_the_reversed_lru_cut_at_limit(self, limit):
        cache = PageCache(8)
        for n in (4, 1, 3, 2, 1, 5):
            cache.touch(pid(n))
        assert cache.resident_count() == 5
        assert cache.hottest(limit) == list(reversed(list(cache.lru_order())))[:limit]
        assert cache.hottest(limit) == [pid(n) for n in (5, 1, 2, 3, 4)][:limit]

    def test_hit_ratio(self):
        cache = PageCache(4)
        assert cache.hit_ratio() == 0.0
        cache.touch(pid(1))
        cache.touch(pid(1))
        assert cache.hit_ratio() == 0.5


def build_store(n_pages=4, rows=3):
    store = PageStore(rows_per_page=8)
    for p in range(n_pages):
        page = store.allocate("item")
        for s in range(rows):
            page.put(s, (p * 100 + s, f"r{p}.{s}"))
        page.version = p + 1
    return store


class TestStableStore:
    def test_flush_and_load(self):
        store = build_store()
        stable = StableStore()
        page = store.get(pid(0))
        stable.flush_page(page)
        image = stable.load(pid(0))
        assert image.version == 1
        assert image.page.live_rows == 3

    def test_flush_is_snapshot(self):
        store = build_store()
        stable = StableStore()
        page = store.get(pid(0))
        stable.flush_page(page)
        page.put(0, None)  # mutate after flush
        assert stable.load(pid(0)).page.live_rows == 3

    def test_version_map(self):
        store = build_store(2)
        stable = StableStore()
        for page in store.all_pages():
            stable.flush_page(page)
        assert stable.version_map() == {pid(0): 1, pid(1): 2}

    def test_restore_into_fresh_store(self):
        store = build_store(3)
        stable = StableStore()
        for page in store.all_pages():
            stable.flush_page(page)
        fresh = PageStore(rows_per_page=8)
        restored = stable.restore_into(fresh)
        assert restored == 3
        assert fresh.get(pid(2)).version == 3
        assert fresh.get(pid(1)).get(0) == (100, "r1.0")


class TestFuzzyCheckpointer:
    def test_full_checkpoint_flushes_all(self):
        store = build_store(4)
        stable = StableStore()
        ckpt = FuzzyCheckpointer(store, stable)
        assert ckpt.full_checkpoint(lambda page: False) == 4
        assert len(stable) == 4

    def test_dirty_pages_skipped(self):
        store = build_store(4)
        stable = StableStore()
        ckpt = FuzzyCheckpointer(store, stable)
        dirty = {pid(1)}
        flushed = ckpt.full_checkpoint(lambda page: page.page_id in dirty)
        assert flushed == 3
        assert stable.load(pid(1)) is None

    def test_unchanged_pages_not_reflushed(self):
        store = build_store(2)
        stable = StableStore()
        ckpt = FuzzyCheckpointer(store, stable)
        ckpt.full_checkpoint(lambda page: False)
        assert ckpt.full_checkpoint(lambda page: False) == 0  # nothing changed
        store.get(pid(0)).version = 99
        assert ckpt.full_checkpoint(lambda page: False) == 1

    def test_incremental_rounds(self):
        store = build_store(4)
        stable = StableStore()
        ckpt = FuzzyCheckpointer(store, stable, pages_per_round=2)
        flushed1, _ = ckpt.checkpoint_round(lambda page: False)
        flushed2, _ = ckpt.checkpoint_round(lambda page: False)
        assert (flushed1, flushed2) == (2, 2)

    def test_empty_store(self):
        ckpt = FuzzyCheckpointer(PageStore(), StableStore())
        assert ckpt.full_checkpoint(lambda page: False) == 0


class TestFilePersistence:
    def test_save_load_roundtrip(self, tmp_path):
        store = build_store(3)
        stable = StableStore()
        for page in store.all_pages():
            stable.flush_page(page)
        path = str(tmp_path / "checkpoint.jsonl")
        assert stable.save_to(path) == 3
        loaded = StableStore.load_from(path)
        assert len(loaded) == 3
        fresh = PageStore(rows_per_page=8)
        loaded.restore_into(fresh)
        assert fresh.get(pid(1)).get(0) == (100, "r1.0")
        assert fresh.get(pid(2)).version == 3

    def test_save_preserves_null_slots_and_types(self, tmp_path):
        store = PageStore(rows_per_page=4)
        page = store.allocate("mixed")
        page.put(0, (1, "text", 2.5, None))
        page.version = 7
        stable = StableStore()
        stable.flush_page(page)
        path = str(tmp_path / "c.jsonl")
        stable.save_to(path)
        loaded = StableStore.load_from(path)
        image = loaded.load(PageId("mixed", 0))
        assert image.page.get(0) == (1, "text", 2.5, None)
        assert image.page.get(1) is None
        assert image.version == 7

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"table": "t"}\n')
        from repro.common.errors import SchemaError

        with pytest.raises(SchemaError):
            StableStore.load_from(str(path))

    def test_atomic_overwrite(self, tmp_path):
        store = build_store(2)
        stable = StableStore()
        for page in store.all_pages():
            stable.flush_page(page)
        path = str(tmp_path / "c.jsonl")
        stable.save_to(path)
        stable.save_to(path)  # overwrite in place
        assert len(StableStore.load_from(path)) == 2
