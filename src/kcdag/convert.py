"""Conversion between bounds without recompiling.

convert_down moves a canonical diagram to any smaller (or equal) bound; the
result is exactly what compiling at the smaller bound would have produced.
Raising the bound is decompose()'s job: any canonical diagram is a valid
decompose input at every larger bound.
"""

from __future__ import annotations

from .engine import DiagramStore
from .store import Bound, parse_bound


def convert_down(store: DiagramStore, u: int, bound: Bound) -> int:
    """Canonical form of u at `bound`, given u canonical at some bound >= it.

    Factors small enough for the target bound are reused as-is; the
    oversized ones are merged top-down straight from their source form, so
    the conversion interns little beyond the vertices of its result.  The
    merge's keys, one int each, live for the call; the store keeps only the
    result.
    """
    return store.convert_down(u, parse_bound(bound))


def convert(store: DiagramStore, u: int, source: Bound, target: Bound) -> int:
    """Convert between two explicit bounds, in either direction."""
    src = parse_bound(source)
    dst = parse_bound(target)
    if dst <= src:
        return store.convert_down(u, dst)
    return store.decompose(u, dst)
