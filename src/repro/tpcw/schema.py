"""TPC-W schema: the bookstore tables, indexes and conflict classes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from repro.core.conflictclass import ConflictClassMap
from repro.engine.schema import Column, IndexDef, TableSchema


@dataclass(frozen=True)
class TpcwScale:
    """Database scale knobs (the standard is 100K items / 288K customers).

    All derived cardinalities follow the TPC-W ratios: 2.88 customers per
    item, 0.9 orders per customer, ~3 order lines per order, one author per
    four items, 92 countries.
    """

    num_items: int = 1000
    num_customers: int = 2880

    @property
    def num_authors(self) -> int:
        return max(1, self.num_items // 4)

    @property
    def num_orders(self) -> int:
        return max(1, int(self.num_customers * 0.9))

    @property
    def num_addresses(self) -> int:
        return self.num_customers * 2

    @property
    def num_countries(self) -> int:
        return 92

    @property
    def bestseller_depth(self) -> int:
        """How many recent orders BestSellers aggregates over.

        The TPC-W standard uses the most recent 3333 orders; scaled-down
        databases use the same 1/27 fraction of the initial order count so
        the query's relative weight is preserved.
        """
        return min(3333, max(20, self.num_orders // 27))

    @classmethod
    def paper_standard(cls) -> "TpcwScale":
        """The paper's §5.1 configuration (100K items, 288K customers)."""
        return cls(num_items=100_000, num_customers=288_000)

    @classmethod
    def paper_large(cls) -> "TpcwScale":
        """The paper's §6.3 larger configuration (400K customers)."""
        return cls(num_items=100_000, num_customers=400_000)


#: The 23 standard book subjects.
SUBJECTS = [
    "ARTS", "BIOGRAPHIES", "BUSINESS", "CHILDREN", "COMPUTERS", "COOKING",
    "HEALTH", "HISTORY", "HOME", "HUMOR", "LITERATURE", "MYSTERY",
    "NON-FICTION", "PARENTING", "POLITICS", "REFERENCE", "RELIGION",
    "ROMANCE", "SELF-HELP", "SCIENCE-NATURE", "SCIENCE-FICTION", "SPORTS",
    "YOUTH",
]

TPCW_SCHEMAS: List[TableSchema] = [
    TableSchema(
        "customer",
        [
            Column("c_id", "int", nullable=False),
            Column("c_uname", "str", nullable=False),
            Column("c_passwd", "str"),
            Column("c_fname", "str"),
            Column("c_lname", "str"),
            Column("c_addr_id", "int"),
            Column("c_phone", "str"),
            Column("c_email", "str"),
            Column("c_since", "float"),
            Column("c_last_login", "float"),
            Column("c_login", "float"),
            Column("c_expiration", "float"),
            Column("c_discount", "float"),
            Column("c_balance", "float"),
            Column("c_ytd_pmt", "float"),
            Column("c_birthdate", "float"),
            Column("c_data", "str"),
        ],
        primary_key=("c_id",),
        indexes=[IndexDef("ix_customer_uname", ("c_uname",))],
    ),
    TableSchema(
        "address",
        [
            Column("addr_id", "int", nullable=False),
            Column("addr_street1", "str"),
            Column("addr_street2", "str"),
            Column("addr_city", "str"),
            Column("addr_state", "str"),
            Column("addr_zip", "str"),
            Column("addr_co_id", "int"),
        ],
        primary_key=("addr_id",),
        indexes=[IndexDef("ix_address_street1", ("addr_street1",))],
    ),
    TableSchema(
        "country",
        [
            Column("co_id", "int", nullable=False),
            Column("co_name", "str"),
            Column("co_exchange", "float"),
            Column("co_currency", "str"),
        ],
        primary_key=("co_id",),
        indexes=[IndexDef("ix_country_name", ("co_name",))],
    ),
    TableSchema(
        "orders",
        [
            Column("o_id", "int", nullable=False),
            Column("o_c_id", "int", nullable=False),
            Column("o_date", "float"),
            Column("o_sub_total", "float"),
            Column("o_tax", "float"),
            Column("o_total", "float"),
            Column("o_ship_type", "str"),
            Column("o_ship_date", "float"),
            Column("o_bill_addr_id", "int"),
            Column("o_ship_addr_id", "int"),
            Column("o_status", "str"),
        ],
        primary_key=("o_id",),
        indexes=[
            IndexDef("ix_orders_cust", ("o_c_id", "o_date")),
            IndexDef("ix_orders_id", ("o_id",)),
        ],
    ),
    TableSchema(
        "order_line",
        [
            Column("ol_id", "int", nullable=False),
            Column("ol_o_id", "int", nullable=False),
            Column("ol_i_id", "int", nullable=False),
            Column("ol_qty", "int"),
            Column("ol_discount", "float"),
            Column("ol_comments", "str"),
        ],
        primary_key=("ol_o_id", "ol_id"),
        indexes=[
            IndexDef("ix_ol_order", ("ol_o_id",)),
            IndexDef("ix_ol_item", ("ol_i_id",)),
        ],
    ),
    TableSchema(
        "cc_xacts",
        [
            Column("cx_o_id", "int", nullable=False),
            Column("cx_type", "str"),
            Column("cx_num", "str"),
            Column("cx_name", "str"),
            Column("cx_expiry", "float"),
            Column("cx_auth_id", "str"),
            Column("cx_xact_amt", "float"),
            Column("cx_xact_date", "float"),
            Column("cx_co_id", "int"),
        ],
        primary_key=("cx_o_id",),
    ),
    TableSchema(
        "item",
        [
            Column("i_id", "int", nullable=False),
            Column("i_title", "str"),
            Column("i_a_id", "int"),
            Column("i_pub_date", "float"),
            Column("i_publisher", "str"),
            Column("i_subject", "str"),
            Column("i_desc", "str"),
            Column("i_related1", "int"),
            Column("i_related2", "int"),
            Column("i_related3", "int"),
            Column("i_related4", "int"),
            Column("i_related5", "int"),
            Column("i_thumbnail", "str"),
            Column("i_image", "str"),
            Column("i_srp", "float"),
            Column("i_cost", "float"),
            Column("i_avail", "float"),
            Column("i_stock", "int"),
            Column("i_isbn", "str"),
            Column("i_page", "int"),
            Column("i_backing", "str"),
            Column("i_dimensions", "str"),
        ],
        primary_key=("i_id",),
        indexes=[
            IndexDef("ix_item_subject_date", ("i_subject", "i_pub_date")),
            IndexDef("ix_item_title", ("i_title",)),
            IndexDef("ix_item_author", ("i_a_id",)),
        ],
    ),
    TableSchema(
        "author",
        [
            Column("a_id", "int", nullable=False),
            Column("a_fname", "str"),
            Column("a_lname", "str"),
            Column("a_mname", "str"),
            Column("a_dob", "float"),
            Column("a_bio", "str"),
        ],
        primary_key=("a_id",),
        indexes=[IndexDef("ix_author_lname", ("a_lname",))],
    ),
    TableSchema(
        "shopping_cart",
        [
            Column("sc_id", "int", nullable=False),
            Column("sc_time", "float"),
            Column("sc_total", "float"),
        ],
        primary_key=("sc_id",),
    ),
    TableSchema(
        "shopping_cart_line",
        [
            Column("scl_sc_id", "int", nullable=False),
            Column("scl_i_id", "int", nullable=False),
            Column("scl_qty", "int"),
        ],
        primary_key=("scl_sc_id", "scl_i_id"),
        indexes=[IndexDef("ix_scl_cart", ("scl_sc_id",))],
    ),
]

TABLE_NAMES = [schema.name for schema in TPCW_SCHEMAS]

#: Write-sets of the update transaction templates (for conflict classes).
UPDATE_TEMPLATES: List[Set[str]] = [
    {"shopping_cart", "shopping_cart_line"},          # ShoppingCart
    {"customer", "address"},                          # CustomerRegistration
    {"shopping_cart"},                                # BuyRequest
    {"orders", "order_line", "cc_xacts", "item",
     "shopping_cart", "shopping_cart_line"},          # BuyConfirm
    {"item"},                                         # AdminConfirm
]


def tpcw_conflict_map(multi_master: bool = False) -> ConflictClassMap:
    """The TPC-W conflict classes.

    With ``multi_master`` the two disjoint write classes (ordering tables
    vs. customer registration) can go to different masters; otherwise the
    single-master fallback is used.
    """
    if multi_master:
        return ConflictClassMap(TABLE_NAMES, UPDATE_TEMPLATES)
    return ConflictClassMap.single_class(TABLE_NAMES)
