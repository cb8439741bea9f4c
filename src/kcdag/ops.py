"""Queries and transformations on canonical diagrams.

All transformations take and return canonical vertices at the stated bound.
The pure queries (consistency, validity, entailment checks, counting,
enumeration) never build new vertices beyond memoization.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .cnf import Literal
from .engine import FALSE, TRUE, DiagramStore
from .errors import InputError
from .store import INF, Bound, parse_bound


def _check_vars(store: DiagramStore, variables: Iterable[int]) -> None:
    for v in variables:
        if v not in store.rank:
            raise InputError(f"variable {v} is not in this store's order")


def _literal_assignment(store: DiagramStore, lits: Iterable[int | Literal],
                        value: bool) -> dict[int, bool] | None:
    """Each literal's variable set so that the literal takes `value`; None
    as soon as two literals on one variable ask for different values."""
    assignment: dict[int, bool] = {}
    for lit in lits:
        if not isinstance(lit, Literal):
            lit = Literal.from_int(lit)
        _check_vars(store, (lit.var,))
        b = lit.positive == value
        if assignment.setdefault(lit.var, b) != b:
            return None
    return assignment


def _check_scope(store: DiagramStore, own: frozenset[int],
                 scope: Iterable[int]) -> set[int]:
    """scope as a set, checked to name only known variables and to cover
    own, the diagram's variables."""
    sc = set(scope)
    _check_vars(store, sc)
    missing = own - sc
    if missing:
        raise InputError(f"scope is missing diagram variables {sorted(missing)}")
    return sc


def conjoin(store: DiagramStore, u: int, v: int, bound: Bound) -> int:
    return store.conjoin(u, v, parse_bound(bound))


def disjoin(store: DiagramStore, u: int, v: int, bound: Bound) -> int:
    return store.disjoin(u, v, parse_bound(bound))


def negate(store: DiagramStore, u: int, bound: Bound) -> int:
    return store.negate(u, parse_bound(bound))


def condition(store: DiagramStore, u: int, assignment: Mapping[int, bool],
              bound: Bound) -> int:
    _check_vars(store, assignment)
    return store.condition(u, dict(assignment), parse_bound(bound))


def forget(store: DiagramStore, u: int, variables: Iterable[int],
           bound: Bound) -> int:
    """Existentially quantify the given variables out of u.

    One walk over u: a decision vertex on a forgotten variable becomes the
    disjunction of its branches' results, and a factor without one passes
    through as it is.  Only the result and the disjunctions' vertices are
    interned.
    """
    vs = list(variables)
    _check_vars(store, vs)
    return store.forget(u, vs, parse_bound(bound))


def is_consistent(store: DiagramStore, u: int) -> bool:
    """Every stored vertex except the false leaf is satisfiable."""
    return u != FALSE


def is_valid(store: DiagramStore, u: int) -> bool:
    return u == TRUE


def entails_clause(store: DiagramStore, u: int,
                   clause: Iterable[int | Literal]) -> bool:
    """Does u entail the given clause?  Linear in the diagram.

    Equivalent to conditioning u on the negation of every literal and
    checking for the false leaf.
    """
    assignment = _literal_assignment(store, clause, False)
    if assignment is None:
        return True  # clause is tautological over some variable
    return not store.sat_under(u, assignment)


def implied_by_term(store: DiagramStore, u: int,
                    term: Iterable[int | Literal]) -> bool:
    """Does the given term (conjunction of literals) entail u?"""
    assignment = _literal_assignment(store, term, True)
    if assignment is None:
        return True  # contradictory term entails everything
    return store.valid_under(u, assignment)


def equivalent(store: DiagramStore, u: int, v: int) -> bool:
    """Semantic equivalence of any two ordered diagrams in one store.

    Equal ids are equivalent.  Two diagrams whose model counts over the
    store's variables differ are not; the count is exact for raw diagrams
    too, and memoised.  Only a pair with equal counts is decomposed to
    bound inf, where equivalent diagrams are one vertex.
    """
    if u == v:
        return True
    scope = store.order.vars
    if model_count(store, u, scope) != model_count(store, v, scope):
        return False
    return store.decompose(u, INF) == store.decompose(v, INF)


def entails(store: DiagramStore, u: int, v: int, bound: Bound) -> bool:
    """Sentential entailment u |= v, decided as u AND v equivalent to u.

    One conjoin and no negation: the negation of a conjunction has no
    compact form at any bound >= 1.  equivalent compares ids and model
    counts first and decomposes both only when neither settles it, so u
    need not be canonical at `bound`.
    """
    i = parse_bound(bound)
    return equivalent(store, store.conjoin(u, v, i), u)


def model_count(store: DiagramStore, u: int,
                scope: Iterable[int] | None = None) -> int:
    """Exact model count over `scope` (default: the diagram's own variables)."""
    base = store.model_count(u)
    if scope is None:
        return base
    own = store.vars_of(u)
    return base << len(_check_scope(store, own, scope) - own)


def enumerate_models(store: DiagramStore, u: int,
                     scope: Iterable[int] | None = None,
                     limit: int | None = None) -> Iterator[dict[int, bool]]:
    """Yield total assignments over `scope` satisfying u, deterministically.

    Free variables (in scope but undecided on a path) are expanded false
    first, in ascending variable order.  At most `limit` models are
    yielded; a negative limit raises InputError.
    """
    if limit is not None and limit < 0:
        raise InputError(f"limit must be at least 0, not {limit}")
    own = store.vars_of(u)
    sc = sorted(own if scope is None else _check_scope(store, own, scope))

    def partials() -> Iterator[dict[int, bool]]:
        # depth first over (vertices still to satisfy, choices so far), both
        # as linked pairs; a decision vertex takes its false branch now and
        # leaves the true branch on the stack, so the choices made last
        # vary fastest
        stack = [((u, None), None)]
        while stack:
            todo, chosen = stack.pop()
            while todo is not None:
                w, todo = todo
                if w == FALSE:
                    break
                if store.is_decision(w):
                    x = store.var_of(w)
                    stack.append(((store.hi(w), todo), ((x, True), chosen)))
                    todo = (store.lo(w), todo)
                    chosen = ((x, False), chosen)
                else:
                    for c in reversed(store.children(w)):
                        todo = (c, todo)
            else:  # no false leaf reached: the choices form a model
                partial = {}
                while chosen is not None:
                    (x, b), chosen = chosen
                    partial[x] = b
                yield partial

    if limit == 0:
        return
    emitted = 0
    for partial in partials():
        free = [v for v in sc if v not in partial]
        for mask in range(1 << len(free)):
            model = dict(partial)
            for pos, v in enumerate(free):
                model[v] = bool((mask >> pos) & 1)
            yield {v: model[v] for v in sc}
            emitted += 1
            if limit is not None and emitted >= limit:
                return
