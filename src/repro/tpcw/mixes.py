"""The three TPC-W workload mixes.

Interaction frequencies follow the official TPC-W mix tables (stationary
distributions of the browse/shop/order Markov chains).  The paper
characterises them by their update-transaction fractions: browsing ~5 %,
shopping ~20 %, ordering ~50 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.common.rng import RngStream

#: Interactions classified as update transactions (they write the DB).
UPDATE_INTERACTIONS = frozenset(
    ["shopping_cart", "customer_registration", "buy_request", "buy_confirm", "admin_confirm"]
)

_BROWSING: List[Tuple[str, float]] = [
    ("home", 29.00),
    ("new_products", 11.00),
    ("best_sellers", 11.00),
    ("product_detail", 21.00),
    ("search_request", 12.00),
    ("search_results", 11.00),
    ("shopping_cart", 2.00),
    ("customer_registration", 0.82),
    ("buy_request", 0.75),
    ("buy_confirm", 0.69),
    ("order_inquiry", 0.30),
    ("order_display", 0.25),
    ("admin_request", 0.10),
    ("admin_confirm", 0.09),
]

_SHOPPING: List[Tuple[str, float]] = [
    ("home", 16.00),
    ("new_products", 5.00),
    ("best_sellers", 5.00),
    ("product_detail", 17.00),
    ("search_request", 20.00),
    ("search_results", 17.00),
    ("shopping_cart", 11.60),
    ("customer_registration", 3.00),
    ("buy_request", 2.60),
    ("buy_confirm", 1.20),
    ("order_inquiry", 0.75),
    ("order_display", 0.66),
    ("admin_request", 0.21),
    ("admin_confirm", 0.10),
]

_ORDERING: List[Tuple[str, float]] = [
    ("home", 9.12),
    ("new_products", 0.46),
    ("best_sellers", 0.46),
    ("product_detail", 12.35),
    ("search_request", 14.53),
    ("search_results", 13.08),
    ("shopping_cart", 13.53),
    ("customer_registration", 12.86),
    ("buy_request", 12.73),
    ("buy_confirm", 10.18),
    ("order_inquiry", 0.25),
    ("order_display", 0.22),
    ("admin_request", 0.12),
    ("admin_confirm", 0.11),
]


@dataclass(frozen=True)
class Mix:
    """A named distribution over the fourteen interactions."""

    name: str
    weights: Tuple[Tuple[str, float], ...]

    def pick(self, rng: RngStream) -> str:
        names = [n for n, _w in self.weights]
        probs = [w for _n, w in self.weights]
        return rng.weighted_choice(names, probs)

    def update_fraction(self) -> float:
        total = sum(w for _n, w in self.weights)
        updates = sum(w for n, w in self.weights if n in UPDATE_INTERACTIONS)
        return updates / total


MIXES: Dict[str, Mix] = {
    "browsing": Mix("browsing", tuple(_BROWSING)),
    "shopping": Mix("shopping", tuple(_SHOPPING)),
    "ordering": Mix("ordering", tuple(_ORDERING)),
}
