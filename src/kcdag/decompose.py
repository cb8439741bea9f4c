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
    order); conjunction children that exceed the bound are merged.  The
    pass rebuilds every vertex below u, children first, and holds each
    conjunction pending: its literals as a rank mask and a value mask, its
    other factors as a tuple.  A conjunction vertex, and a literal in it, is
    interned only when it is kept: as the result, or as a branch of a
    decision vertex the pass builds.  A vertex's rebuilt form is dropped
    once its last parent has read it, and the pass keeps nothing after it
    returns, so a repeated call rebuilds u again.
    """
    return store.decompose(u, parse_bound(bound))

