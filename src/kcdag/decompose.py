"""Canonicalization: finest bounded factorings and the extraction rules.

decompose() turns any in-bound raw diagram into the canonical form for its
store's order and the given bound.  The extract_* functions expose the three
rewrite rules decompose applies at decision vertices; each validates that its
rule actually applies before building anything.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .engine import FALSE, TRUE, DiagramStore
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


def _check_common(store: DiagramStore, var: int, lo: int, hi: int, bound: Bound):
    i = parse_bound(bound)
    if i == 0:
        raise ValueError("bound 0 admits no conjunction vertices; nothing to extract")
    if var not in store.rank:
        raise ValueError(f"variable {var} is not in this store's order")
    if lo == hi:
        raise ValueError("branches are identical; the vertex collapses instead")
    r = store.rank[var]
    if r >= store.min_rank(lo) or r >= store.min_rank(hi):
        raise ValueError(f"variable {var} does not precede both branches")
    return i


def extract_leaf(store: DiagramStore, var: int, lo: int, hi: int, bound: Bound) -> int:
    """Factor a literal out of a decision vertex with a false branch."""
    i = _check_common(store, var, lo, hi, bound)
    if FALSE not in (lo, hi):
        raise ValueError("applies only when one branch is the false leaf")
    if TRUE in (lo, hi):
        raise ValueError("a single-variable vertex has nothing to extract")
    return store._decision(var, lo, hi, i)


def extract_part(store: DiagramStore, var: int, lo: int, hi: int, bound: Bound) -> int:
    """Factor out a branch that reappears among the other branch's children."""
    i = _check_common(store, var, lo, hi, bound)
    if not (store.is_conj(hi) and lo in store.children(hi)
            or store.is_conj(lo) and hi in store.children(lo)):
        raise ValueError("neither branch is a child of the other branch")
    return store._decision(var, lo, hi, i)


def extract_share(store: DiagramStore, var: int, lo: int, hi: int, bound: Bound) -> int:
    """Factor the children common to two conjunction branches out of a vertex."""
    i = _check_common(store, var, lo, hi, bound)
    if not (store.is_conj(lo) and store.is_conj(hi)):
        raise ValueError("both branches must be conjunction vertices")
    if not set(store.children(lo)) & set(store.children(hi)):
        raise ValueError("the branches share no children")
    return store._decision(var, lo, hi, i)
