"""Unit tests for TPC-W schema, scale, mixes and data generation."""

import hashlib

import pytest

from repro.bench.calibration import BENCH_SCALE
from repro.cluster.sync import datagen_tables
from repro.engine import HeapEngine
from repro.common.rng import RngStream
from repro.tpcw import MIXES, TPCW_SCHEMAS, TpcwDataGenerator, TpcwScale, tpcw_conflict_map
from repro.tpcw.mixes import UPDATE_INTERACTIONS
from repro.tpcw.schema import SUBJECTS


class TestScale:
    def test_defaults_follow_ratios(self):
        scale = TpcwScale(num_items=1000, num_customers=2880)
        assert scale.num_authors == 250
        assert scale.num_orders == 2592
        assert scale.num_addresses == 5760
        assert scale.num_countries == 92

    def test_paper_standard(self):
        scale = TpcwScale.paper_standard()
        assert scale.num_items == 100_000
        assert scale.num_customers == 288_000

    def test_paper_large(self):
        assert TpcwScale.paper_large().num_customers == 400_000


class TestSchemas:
    def test_ten_tables(self):
        assert len(TPCW_SCHEMAS) == 10

    def test_the_papers_eight_plus_cart(self):
        names = {s.name for s in TPCW_SCHEMAS}
        assert {
            "customer", "address", "orders", "order_line", "cc_xacts",
            "item", "author", "country",
        } <= names
        assert {"shopping_cart", "shopping_cart_line"} <= names

    def test_conflict_map_single(self):
        ccm = tpcw_conflict_map()
        assert ccm.num_classes == 1

    def test_conflict_map_multi(self):
        ccm = tpcw_conflict_map(multi_master=True)
        # Ordering-path tables and registration tables are disjoint classes.
        assert ccm.class_of("item") == ccm.class_of("orders")
        assert ccm.class_of("customer") == ccm.class_of("address")
        assert ccm.class_of("item") != ccm.class_of("customer")


class TestMixes:
    def test_three_mixes(self):
        assert set(MIXES) == {"browsing", "shopping", "ordering"}

    @pytest.mark.parametrize(
        "mix,target", [("browsing", 0.05), ("shopping", 0.20), ("ordering", 0.50)]
    )
    def test_update_fractions_match_paper(self, mix, target):
        """Paper §5.1: 5 %, 20 %, 50 % update transactions."""
        assert MIXES[mix].update_fraction() == pytest.approx(target, abs=0.03)

    def test_all_fourteen_interactions(self):
        for mix in MIXES.values():
            assert len(mix.weights) == 14

    def test_pick_follows_weights(self):
        rng = RngStream(1, "mix")
        picks = [MIXES["ordering"].pick(rng) for _ in range(2000)]
        update_frac = sum(1 for p in picks if p in UPDATE_INTERACTIONS) / len(picks)
        assert 0.44 < update_frac < 0.56


class TestDataGen:
    def test_populate_counts(self):
        scale = TpcwScale(num_items=50, num_customers=144)
        engine = HeapEngine()
        counts = TpcwDataGenerator(scale, seed=1).populate(engine)
        assert counts["item"] == 50
        assert counts["customer"] == 144
        assert counts["country"] == 92
        assert counts["author"] == 12
        assert counts["orders"] == 129
        assert counts["order_line"] >= counts["orders"]

    def test_deterministic(self):
        scale = TpcwScale(num_items=20, num_customers=58)
        rows1 = list(TpcwDataGenerator(scale, seed=7).items())
        rows2 = list(TpcwDataGenerator(scale, seed=7).items())
        assert rows1 == rows2

    def test_different_seed_differs(self):
        scale = TpcwScale(num_items=20, num_customers=58)
        rows1 = list(TpcwDataGenerator(scale, seed=7).items())
        rows2 = list(TpcwDataGenerator(scale, seed=8).items())
        assert rows1 != rows2

    def test_items_reference_valid_authors(self):
        scale = TpcwScale(num_items=40, num_customers=115)
        gen = TpcwDataGenerator(scale)
        for item in gen.items():
            assert 1 <= item["i_a_id"] <= scale.num_authors
            assert item["i_subject"] in SUBJECTS
            for k in range(1, 6):
                assert 1 <= item[f"i_related{k}"] <= scale.num_items

    def test_order_lines_reference_valid_orders(self):
        scale = TpcwScale(num_items=40, num_customers=115)
        gen = TpcwDataGenerator(scale)
        for line in gen.order_lines():
            assert 1 <= line["ol_o_id"] <= scale.num_orders
            assert 1 <= line["ol_i_id"] <= scale.num_items

    def test_usernames_deterministic(self):
        assert TpcwDataGenerator.uname_of(42) == "USER00000042"

    @pytest.mark.parametrize(
        "scale,expected",
        [
            (BENCH_SCALE, "c9efeb08fc49e122"),
            # The benchmark's 40-item hot scale (``hot_scaleout``).
            (TpcwScale(num_items=40, num_customers=144), "9deb8457bd7cc615"),
        ],
    )
    def test_dataset_digest_pinned(self, scale, expected):
        """Every value of every row of every table, seed 42.

        Recorded before ``_string`` stopped drawing through ``rng.choice``:
        a faster generator must consume the identical random stream.
        """
        digest = hashlib.sha256()
        for table, rows in datagen_tables(TpcwDataGenerator(scale, seed=42)):
            digest.update(f"{table}:".encode())
            for row in rows:
                digest.update(repr(sorted(row.items())).encode())
        assert digest.hexdigest()[:16] == expected
