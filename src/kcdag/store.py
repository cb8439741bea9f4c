"""Bound handling around the engine.

Vertex construction and every diagram operation live on
kcdag.engine.DiagramStore; this module parses and formats bounds.
"""

from __future__ import annotations

import math
from typing import Union

from .errors import InputError

INF = math.inf

Bound = Union[int, float]


def parse_bound(value) -> Bound:
    """Normalize a bound given as int, float or string; 'inf' is unbounded."""
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("inf", "infinity"):
            return INF
        try:
            value = int(text)
        except ValueError:
            raise InputError(f"bound must be a non-negative integer or 'inf', not {value!r}")
    if isinstance(value, float):
        if value == INF:
            return INF
        if not value.is_integer():
            raise InputError(f"bound must be an integer or infinite, not {value!r}")
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise InputError(f"bound must be a non-negative integer or 'inf', not {value!r}")
    return value


def format_bound(bound: Bound) -> str:
    return "inf" if bound == INF else str(int(bound))

