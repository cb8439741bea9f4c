"""Bottom-up CNF compilation into canonical diagrams."""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable

from .cnf import CNF, Clause, Literal
from .engine import FALSE, TRUE, DiagramStore
from .errors import InputError
from .ordering import VariableOrder, min_fill_order
from .store import INF, Bound, parse_bound


def clause_diagram(store: DiagramStore, clause: Clause | Iterable) -> int:
    """Decision chain for a single clause; canonical at every bound.

    A clause over two or more variables has no factoring into disjoint
    conjuncts, so the chain needs no decomposition work at any bound.
    """
    if not isinstance(clause, Clause):
        clause = Clause(lit if isinstance(lit, Literal) else Literal.from_int(lit)
                        for lit in clause)
    lits = list(clause)
    if not lits:
        return FALSE
    phase = {lit.var: lit.positive for lit in lits}
    if len(phase) != len(lits):
        raise InputError("clause repeats a variable")
    acc = FALSE
    for var in sorted(phase, key=store.rank.__getitem__, reverse=True):
        if phase[var]:
            acc = store.make_decision(var, acc, TRUE)
        else:
            acc = store.make_decision(var, TRUE, acc)
    return acc


SCHEDULES = ("bucket", "balanced", "ordered")


def compile_cnf(cnf: CNF, bound: Bound, order: VariableOrder | None = None,
                schedule: str = "bucket",
                store: DiagramStore | None = None) -> tuple[DiagramStore, int]:
    """Compile a CNF to its canonical diagram at the given bound.

    Returns (store, root).  With no explicit order, min-fill over the
    formula's primal graph is used.  `schedule` (one of SCHEDULES) picks how
    the per-clause diagrams are conjoined; every schedule gives the same
    vertex.  "bucket" (the default) sorts the clauses by the rank of their
    earliest variable, which lays the buckets of the order end to end, and
    conjoins that list pair by pair, smallest union of variables first; its
    result and the vertices it interns do not depend on clause order.
    "balanced" conjoins the clauses as given in pairwise rounds, and
    "ordered" is a left fold over the same sorted list, so the top of the
    order gets constrained first.  Tautological and repeated clauses are
    dropped.  The compile is one operation of the store: its conjoins share
    its one computed table, and of the vertices it interns only the root's
    stay.
    """
    i = parse_bound(bound)
    if store is None:
        if order is None:
            order = min_fill_order(cnf)
        store = DiagramStore(order)
    elif order is not None and tuple(order.vars) != tuple(store.order.vars):
        raise InputError("explicit order conflicts with the store's order")
    for v in cnf.variables:
        if v not in store.rank:
            raise InputError(f"variable {v} is not in the compilation order")
    if schedule not in SCHEDULES:
        raise InputError(f"unknown schedule {schedule!r}")

    return store, store._run(_compile, store, cnf, i, schedule)


def _compile(store: DiagramStore, cnf: CNF, i: Bound, schedule: str) -> int:
    """The root of compile_cnf, built in one operation of the store."""
    seen: set[frozenset] = set()
    clauses = []
    for cl in cnf.clauses:
        if cl.is_empty():
            return FALSE
        if cl.literals in seen or cl.is_tautological():
            continue
        seen.add(cl.literals)
        clauses.append(cl)
    if schedule != "balanced":
        # deterministic: top-variable rank first, literal tuple as tiebreak
        clauses.sort(key=lambda cl: (min(store.rank[l.var] for l in cl),
                                     sorted((l.var, l.positive) for l in cl)))
    diagrams = [clause_diagram(store, cl) for cl in clauses]

    if not diagrams:
        return TRUE
    if schedule == "bucket":
        return _by_union(store, diagrams, i)
    if schedule == "balanced":
        return _pairwise(store, diagrams, i)
    root = diagrams[0]
    for d in diagrams[1:]:
        root = store.conjoin(root, d, i)
        if root == FALSE:
            return FALSE
    return root


def _pairwise(store: DiagramStore, diagrams: list[int], i: int) -> int:
    """Conjoin in rounds of neighbouring pairs; FALSE as soon as one is."""
    while len(diagrams) > 1:
        nxt = []
        for k in range(0, len(diagrams) - 1, 2):
            d = store.conjoin(diagrams[k], diagrams[k + 1], i)
            if d == FALSE:
                return FALSE
            nxt.append(d)
        if len(diagrams) % 2:
            nxt.append(diagrams[-1])
        diagrams = nxt
    return diagrams[0]


def _by_union(store: DiagramStore, diagrams: list[int], i: int) -> int:
    """Conjoin a list, always the adjacent pair whose union of variables is
    smallest, the earlier pair on ties; FALSE as soon as one is.

    Only neighbours are paired: in a rank-sorted clause list they share
    their earliest variables, and on equal supports, as on a chain, the
    rule falls back to balanced rounds, where a fold would take quadratic
    time.

    The list is linked through nxt (n is its end) and the heap holds one
    entry (union size, left, right) per adjacent pair.  An entry whose
    pair is no longer adjacent, or whose size is no longer the union's, is
    stale and skipped when popped, since each conjoin pushes fresh entries
    for the pairs it changes: O(n log n) for n diagrams.
    """
    vs = store._vs
    ds: list[int | None] = list(diagrams)
    n = len(ds)
    nxt = list(range(1, n + 1))
    prv = list(range(-1, n - 1))
    heap = [((vs[ds[a]] | vs[ds[a + 1]]).bit_count(), a, a + 1)
            for a in range(n - 1)]
    heapify(heap)
    while heap:
        size, a, b = heappop(heap)
        x = ds[a]
        if x is None or nxt[a] != b or (vs[x] | vs[ds[b]]).bit_count() != size:
            continue
        d = store.conjoin(x, ds[b], i)
        if d == FALSE:
            return FALSE
        ds[a], ds[b] = d, None
        c = nxt[a] = nxt[b]
        if c < n:
            prv[c] = a
            heappush(heap, ((vs[d] | vs[ds[c]]).bit_count(), a, c))
        p = prv[a]
        if p >= 0:
            heappush(heap, ((vs[ds[p]] | vs[d]).bit_count(), p, a))
    return ds[0]


def compile_via(cnf: CNF, bound: Bound, order: VariableOrder | None = None,
                store: DiagramStore | None = None) -> tuple[DiagramStore, int]:
    """Alternative compilation route used for cross-checking canonicity.

    Compiles at bound 1 (cheap literal extraction), re-canonicalizes with no
    bound, then converts down to the requested bound.  Canonicity makes the
    result identical to compile_cnf's.
    """
    i = parse_bound(bound)
    store, root = compile_cnf(cnf, 1, order=order, store=store)
    root = store.decompose(root, INF)
    return store, store.convert_down(root, i)
