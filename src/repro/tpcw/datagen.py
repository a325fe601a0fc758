"""Deterministic TPC-W data generation.

Populates any target exposing ``create_table(schema)`` and
``bulk_load(table, rows)`` — heap engines, disk databases, cluster nodes.
Generation is seeded, so every replica loads byte-identical data (the
paper's replicas all mmap the same initial on-disk database image).
"""

from __future__ import annotations

import string
from typing import Dict, Iterator, List, Tuple

from repro.common.rng import RngStream
from repro.tpcw.schema import SUBJECTS, TPCW_SCHEMAS, TpcwScale

_EPOCH_2000 = 946_684_800.0
_DAY = 86_400.0
_LETTERS = string.ascii_uppercase


class TpcwDataGenerator:
    """Generates the initial bookstore population at a given scale."""

    def __init__(self, scale: TpcwScale, seed: int = 42) -> None:
        self.scale = scale
        self.seed = seed

    # -- public API -------------------------------------------------------------
    def populate(self, target) -> Dict[str, int]:
        """Create all tables on ``target`` and load them; returns row counts."""
        for schema in TPCW_SCHEMAS:
            target.create_table(schema)
        return self.load(target)

    def load(self, target) -> Dict[str, int]:
        """Load all tables on ``target`` (tables must already exist)."""
        counts = {}
        counts["country"] = target.bulk_load("country", self.countries())
        counts["author"] = target.bulk_load("author", self.authors())
        counts["address"] = target.bulk_load("address", self.addresses())
        counts["customer"] = target.bulk_load("customer", self.customers())
        counts["item"] = target.bulk_load("item", self.items())
        counts["orders"] = target.bulk_load("orders", self.orders())
        counts["order_line"] = target.bulk_load("order_line", self.order_lines())
        counts["cc_xacts"] = target.bulk_load("cc_xacts", self.cc_xacts())
        counts["shopping_cart"] = target.bulk_load("shopping_cart", [])
        counts["shopping_cart_line"] = target.bulk_load("shopping_cart_line", [])
        return counts

    # -- helpers ------------------------------------------------------------------
    def _rng(self, table: str) -> RngStream:
        return RngStream(self.seed, "tpcw", table)

    @staticmethod
    def _string(rng: RngStream, lo: int, hi: int) -> str:
        """``length`` letters, each drawn as ``rng.choice(ascii_uppercase)``
        draws it — five random bits, redrawn while they name no letter — so
        the stream consumed is the same, without a Python frame per letter."""
        getrandbits = rng.getrandbits
        letters = []
        for _ in range(rng.randint(lo, hi)):
            index = getrandbits(5)
            while index >= 26:
                index = getrandbits(5)
            letters.append(_LETTERS[index])
        return "".join(letters)

    @staticmethod
    def uname_of(c_id: int) -> str:
        """The deterministic TPC-W username for a customer id."""
        return f"USER{c_id:08d}"

    # -- per-table generators ---------------------------------------------------------
    def countries(self) -> Iterator[dict]:
        rng = self._rng("country")
        for co_id in range(1, self.scale.num_countries + 1):
            yield {
                "co_id": co_id,
                "co_name": f"COUNTRY{co_id:03d}",
                "co_exchange": round(rng.uniform(0.1, 10.0), 4),
                "co_currency": self._string(rng, 3, 3),
            }

    def authors(self) -> Iterator[dict]:
        rng = self._rng("author")
        for a_id in range(1, self.scale.num_authors + 1):
            yield {
                "a_id": a_id,
                "a_fname": self._string(rng, 3, 12),
                "a_lname": f"LNAME{a_id % max(1, self.scale.num_authors // 4):05d}",
                "a_mname": self._string(rng, 1, 1),
                "a_dob": _EPOCH_2000 - rng.randint(20 * 365, 80 * 365) * _DAY,
                "a_bio": self._string(rng, 20, 60),
            }

    def addresses(self) -> Iterator[dict]:
        rng = self._rng("address")
        for addr_id in range(1, self.scale.num_addresses + 1):
            yield {
                "addr_id": addr_id,
                "addr_street1": self._string(rng, 10, 30),
                "addr_street2": self._string(rng, 10, 30),
                "addr_city": self._string(rng, 4, 20),
                "addr_state": self._string(rng, 2, 2),
                "addr_zip": f"{rng.randint(10000, 99999)}",
                "addr_co_id": rng.randint(1, self.scale.num_countries),
            }

    def customers(self) -> Iterator[dict]:
        rng = self._rng("customer")
        now = _EPOCH_2000
        for c_id in range(1, self.scale.num_customers + 1):
            since = now - rng.randint(1, 730) * _DAY
            yield {
                "c_id": c_id,
                "c_uname": self.uname_of(c_id),
                "c_passwd": self.uname_of(c_id).lower(),
                "c_fname": self._string(rng, 4, 12),
                "c_lname": self._string(rng, 4, 12),
                "c_addr_id": rng.randint(1, self.scale.num_addresses),
                "c_phone": f"{rng.randint(10**9, 10**10 - 1)}",
                "c_email": f"user{c_id}@example.com",
                "c_since": since,
                "c_last_login": since + rng.randint(0, 60) * _DAY,
                "c_login": now,
                "c_expiration": now + 2 * 3600,
                "c_discount": rng.randint(0, 50) / 100.0,
                "c_balance": 0.0,
                "c_ytd_pmt": round(rng.uniform(0.0, 100000.0), 2),
                "c_birthdate": _EPOCH_2000 - rng.randint(18 * 365, 90 * 365) * _DAY,
                "c_data": self._string(rng, 40, 100),
            }

    def items(self) -> Iterator[dict]:
        rng = self._rng("item")
        n = self.scale.num_items
        for i_id in range(1, n + 1):
            srp = round(rng.uniform(1.0, 300.0), 2)
            related = [((i_id + k * 7) % n) + 1 for k in range(1, 6)]
            yield {
                "i_id": i_id,
                "i_title": f"BOOK{i_id:08d} {self._string(rng, 4, 14)}",
                "i_a_id": ((i_id - 1) % self.scale.num_authors) + 1,
                "i_pub_date": _EPOCH_2000 - rng.randint(1, 4000) * _DAY,
                "i_publisher": self._string(rng, 8, 16),
                "i_subject": SUBJECTS[rng.randint(0, len(SUBJECTS) - 1)],
                "i_desc": self._string(rng, 30, 80),
                "i_related1": related[0],
                "i_related2": related[1],
                "i_related3": related[2],
                "i_related4": related[3],
                "i_related5": related[4],
                "i_thumbnail": f"img/thumb/{i_id}.gif",
                "i_image": f"img/full/{i_id}.gif",
                "i_srp": srp,
                "i_cost": round(srp * rng.uniform(0.5, 1.0), 2),
                "i_avail": _EPOCH_2000 + rng.randint(1, 30) * _DAY,
                "i_stock": rng.randint(10, 30),
                "i_isbn": self._string(rng, 13, 13),
                "i_page": rng.randint(20, 9999),
                "i_backing": rng.choice(["HARDBACK", "PAPERBACK", "USED", "AUDIO", "LIMITED"]),
                "i_dimensions": f"{rng.randint(1, 99)}x{rng.randint(1, 99)}x{rng.randint(1, 99)}",
            }

    def orders(self) -> Iterator[dict]:
        rng = self._rng("orders")
        now = _EPOCH_2000
        for o_id in range(1, self.scale.num_orders + 1):
            date = now - rng.randint(0, 60) * _DAY
            subtotal = round(rng.uniform(10.0, 1000.0), 2)
            yield {
                "o_id": o_id,
                "o_c_id": rng.randint(1, self.scale.num_customers),
                "o_date": date,
                "o_sub_total": subtotal,
                "o_tax": round(subtotal * 0.0825, 2),
                "o_total": round(subtotal * 1.0825, 2),
                "o_ship_type": rng.choice(["AIR", "UPS", "FEDEX", "SHIP", "COURIER", "MAIL"]),
                "o_ship_date": date + rng.randint(0, 7) * _DAY,
                "o_bill_addr_id": rng.randint(1, self.scale.num_addresses),
                "o_ship_addr_id": rng.randint(1, self.scale.num_addresses),
                "o_status": rng.choice(["PROCESSING", "SHIPPED", "PENDING", "DENIED"]),
            }

    def order_lines(self) -> Iterator[dict]:
        rng = self._rng("order_line")
        for o_id in range(1, self.scale.num_orders + 1):
            for ol_id in range(1, rng.randint(1, 5) + 1):
                yield {
                    "ol_id": ol_id,
                    "ol_o_id": o_id,
                    "ol_i_id": rng.zipf_index(self.scale.num_items, skew=0.6) + 1,
                    "ol_qty": rng.randint(1, 300),
                    "ol_discount": rng.randint(0, 30) / 100.0,
                    "ol_comments": self._string(rng, 20, 60),
                }

    def cc_xacts(self) -> Iterator[dict]:
        rng = self._rng("cc_xacts")
        now = _EPOCH_2000
        for o_id in range(1, self.scale.num_orders + 1):
            yield {
                "cx_o_id": o_id,
                "cx_type": rng.choice(["VISA", "MASTERCARD", "DISCOVER", "AMEX", "DINERS"]),
                "cx_num": f"{rng.randint(10**15, 10**16 - 1)}",
                "cx_name": self._string(rng, 8, 24),
                "cx_expiry": now + rng.randint(10, 730) * _DAY,
                "cx_auth_id": self._string(rng, 15, 15),
                "cx_xact_amt": round(rng.uniform(10.0, 1100.0), 2),
                "cx_xact_date": now - rng.randint(0, 60) * _DAY,
                "cx_co_id": rng.randint(1, self.scale.num_countries),
            }


def datagen_tables(datagen):
    """Yield (table, rows-iterable) pairs from a TPC-W data generator."""
    yield ("country", list(datagen.countries()))
    yield ("author", list(datagen.authors()))
    yield ("address", list(datagen.addresses()))
    yield ("customer", list(datagen.customers()))
    yield ("item", list(datagen.items()))
    yield ("orders", list(datagen.orders()))
    yield ("order_line", list(datagen.order_lines()))
    yield ("cc_xacts", list(datagen.cc_xacts()))
    yield ("shopping_cart", [])
    yield ("shopping_cart_line", [])


# Generated row sets are deterministic per (scale, seed): cache them so a
# sweep of runs does not regenerate the database for every run.
_ROW_CACHE: Dict[Tuple[TpcwScale, int], List[Tuple[str, list]]] = {}


def cached_rows(scale: TpcwScale, seed: int = 42) -> List[Tuple[str, list]]:
    """:func:`datagen_tables` of ``TpcwDataGenerator(scale, seed)``, generated once."""
    rows = _ROW_CACHE.get((scale, seed))
    if rows is None:
        rows = _ROW_CACHE[scale, seed] = list(datagen_tables(TpcwDataGenerator(scale, seed)))
    return rows
