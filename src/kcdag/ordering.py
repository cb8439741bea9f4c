"""Variable orders and the min-fill heuristic."""

from __future__ import annotations

from typing import Sequence

from .cnf import CNF
from .errors import InputError


class VariableOrder:
    """An immutable total order on a set of variables.

    rank(v) is v's position (0-based); smaller rank = earlier = nearer the
    root of a diagram.
    """

    __slots__ = ("vars", "rank")

    def __init__(self, variables: Sequence[int]):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise InputError("duplicate variable in order")
        self.vars: tuple[int, ...] = vs
        self.rank: dict[int, int] = {v: k for k, v in enumerate(vs)}

    def __len__(self) -> int:
        return len(self.vars)

    def __contains__(self, v: int) -> bool:
        return v in self.rank

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VariableOrder) and self.vars == other.vars

    def __repr__(self) -> str:
        return f"VariableOrder({list(self.vars)})"


def natural_order(num_vars: int) -> VariableOrder:
    return VariableOrder(range(1, num_vars + 1))


def min_fill_order(cnf: CNF) -> VariableOrder:
    """Min-fill elimination order on the primal graph of the formula.

    Repeatedly eliminates the variable whose neighborhood needs the fewest
    fill edges to become a clique (ties: smallest variable index), adding
    those fill edges.  Variables that appear in no clause come last, in index
    order.  The result is deterministic and invariant under clause
    permutation.
    """
    adj: dict[int, set[int]] = {}
    for cl in cnf.clauses:
        vs = sorted(cl.variables)
        for v in vs:
            adj.setdefault(v, set())
        for i, a in enumerate(vs):
            for b in vs[i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)

    order: list[int] = []
    remaining = set(adj)
    while remaining:
        best_v, best_fill = None, None
        for v in sorted(remaining):
            nbrs = adj[v] & remaining
            nl = sorted(nbrs)
            fill = 0
            for i, a in enumerate(nl):
                for b in nl[i + 1 :]:
                    if b not in adj[a]:
                        fill += 1
            if best_fill is None or fill < best_fill:
                best_v, best_fill = v, fill
        assert best_v is not None
        nbrs = sorted(adj[best_v] & remaining)
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
        order.append(best_v)
        remaining.discard(best_v)

    used = set(order)
    tail = [v for v in range(1, cnf.num_vars + 1) if v not in used]
    return VariableOrder(order + tail)
