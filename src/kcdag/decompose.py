"""Canonicalization: finest bounded factorings.

decompose() turns any ordered raw diagram into the canonical form for its
store's order and the given bound.
"""

from __future__ import annotations

from .engine import DiagramStore
from .store import Bound, parse_bound


def decompose(store: DiagramStore, u: int, bound: Bound) -> int:
    """Canonical form of u at the given bound.

    u may be any ordered raw diagram (make_decision/make_conj enforce the
    order); conjunction children that exceed the bound are merged.
    """
    return store.decompose(u, parse_bound(bound))

