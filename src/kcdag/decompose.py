"""Canonicalization: finest bounded factorings.

decompose() turns any ordered raw diagram into the canonical form for its
store's order and the given bound; finest() factors a conjunction of
canonical parts.
"""

from __future__ import annotations

from typing import Iterable

from .engine import DiagramStore
from .store import Bound, parse_bound


def decompose(store: DiagramStore, u: int, bound: Bound) -> int:
    """Canonical form of u at the given bound.

    u may be any ordered raw diagram (make_decision/make_conj enforce the
    order); conjunction children that exceed the bound are merged.
    """
    return store.decompose(u, parse_bound(bound))


def finest(store: DiagramStore, parts: Iterable[int], bound: Bound) -> tuple[int, ...]:
    """Parts of the finest bounded factoring of a conjunction.

    `parts` are canonical vertices over pairwise disjoint variables (nested
    conjunction vertices are allowed and flattened).  Returns the canonical
    factor tuple; a single tuple entry means the conjunction does not factor
    at this bound.
    """
    i = parse_bound(bound)
    r = store._conj_parts(list(parts), i)
    if store.is_conj(r):
        return tuple(store.children(r))
    return (r,)

