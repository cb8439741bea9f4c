"""Canonicalization: finest bounded factorings.

decompose() turns any in-bound raw diagram into the canonical form for its
store's order and the given bound; finest() factors a conjunction of
canonical parts.
"""

from __future__ import annotations

from typing import Iterable

from .engine import DiagramStore
from .store import Bound, parse_bound


def decompose(store: DiagramStore, u: int, bound: Bound) -> int:
    """Canonical form of u at the given bound.

    The input must be ordered (make_decision/make_conj enforce that) and
    every conjunction vertex may keep at most one child with more than
    `bound` essential variables; otherwise BoundViolationError is raised.
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

