"""Every diagram operation on a diagram far deeper than the recursion limit.

The all-equal chain x_1 <-> x_2 <-> ... <-> x_N has two models, all false
and all true, and in the natural order its diagram is a path of about N
vertices at every bound.  Each test runs with Python's recursion limit at
100 frames above the test's own depth, so a walk that recursed once per
level would fail.  The limit is only ever lowered: raising it far can crash
the interpreter instead of raising RecursionError.
"""

import contextlib
import random
import sys

import pytest

from kcdag import FALSE, TRUE
from kcdag.compiler import clause_diagram, compile_cnf
from kcdag.convert import convert_down
from kcdag.decompose import decompose
from kcdag.diagram_io import deserialize, serialize
from kcdag.engine import DiagramStore
from kcdag.families import chain_family
from kcdag.ops import (
    condition,
    conjoin,
    disjoin,
    entails_clause,
    enumerate_models,
    equivalent,
    forget,
    implied_by_term,
    model_count,
    negate,
)
from kcdag.ordering import natural_order
from kcdag.store import INF
from kcdag.validate import validate

N = 1000
BOUNDS = (0, 1, INF)

ALL_FALSE = dict.fromkeys(range(1, N + 1), False)
ALL_TRUE = dict.fromkeys(range(1, N + 1), True)
# the two models, then three non-models
POINTS = (ALL_FALSE, ALL_TRUE, {**ALL_FALSE, N // 2: True},
          {**ALL_TRUE, 1: False}, {**ALL_TRUE, N: False})


@contextlib.contextmanager
def shallow_stack():
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(min(old, depth + 100))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def chain():
    return chain_family(1, N - 2, mode="all-equal")


def compiled(bound):
    return compile_cnf(chain(), bound, order=natural_order(N))


def truth(store, u):
    return [store.evaluate(u, p) for p in POINTS]


@pytest.mark.parametrize("bound", BOUNDS)
def test_compile_convert_and_decompose(bound):
    with shallow_stack():
        store, root = compiled(bound)
        assert truth(store, root) == [True, True, False, False, False]
        for lower in (b for b in BOUNDS if b < bound):
            down = convert_down(store, root, lower)
            assert down == compile_cnf(chain(), lower, store=store)[1]
            assert truth(store, down) == [True, True, False, False, False]
        up = decompose(store, root, INF)
        assert up == compile_cnf(chain(), INF, store=store)[1]


@pytest.mark.parametrize("bound", BOUNDS)
def test_transformations(bound):
    with shallow_stack():
        store, root = compiled(bound)
        neg = negate(store, root, bound)
        assert truth(store, neg) == [False, False, True, True, True]
        assert model_count(store, neg) == (1 << N) - 2
        fixed = condition(store, root, {1: True}, bound)
        assert truth(store, fixed)[:2] == [False, True]
        assert model_count(store, fixed) == 1
        # three variables set true force all others true, one at a time or
        # all at once; setting the ends apart leaves no model
        ends = {1: True, N // 2: True, N: True}
        cube = condition(store, root, ends, bound)
        assert store.vars_of(cube) == frozenset(range(1, N + 1)) - set(ends)
        assert model_count(store, cube) == 1
        assert condition(store, condition(store, fixed, {N: True}, bound),
                         {N // 2: True}, bound) == cube
        assert condition(store, root, {1: True, N: False}, bound) == FALSE
        assert condition(store, root, ALL_TRUE, bound) == TRUE
        gone = forget(store, root, [1], bound)
        assert truth(store, gone) == [True, True, False, True, False]
        # the even variables stay all equal
        evens = forget(store, root, range(1, N + 1, 2), bound)
        assert model_count(store, evens) == 2
        both_ends = conjoin(store, root, clause_diagram(store, [1, N]), bound)
        assert truth(store, both_ends) == [False, True, False, False, False]
        either = disjoin(store, root, store.literal(1), bound)
        assert truth(store, either) == [True, True, False, False, True]
        assert model_count(store, either) == (1 << (N - 1)) + 1


@pytest.mark.parametrize("bound", BOUNDS)
def test_queries(bound):
    with shallow_stack():
        store, root = compiled(bound)
        assert model_count(store, root, scope=store.order.vars) == 2
        assert list(enumerate_models(store, root)) == [ALL_FALSE, ALL_TRUE]
        assert entails_clause(store, root, [1, -N])
        assert not entails_clause(store, root, [1, N])
        assert implied_by_term(store, root, range(1, N + 1))
        assert not implied_by_term(store, root, [1])
        neg = negate(store, root, bound)
        assert equivalent(store, root, negate(store, neg, bound))
        assert not equivalent(store, root, neg)
        other = 1 if bound == 0 else 0
        assert equivalent(store, root, compile_cnf(chain(), other, store=store)[1])


@pytest.mark.parametrize("bound", BOUNDS)
def test_validate_and_round_trip(bound):
    with shallow_stack():
        store, root = compiled(bound)
        assert validate(store, root, bound).ok
        text = serialize(store, root, bound)
        assert deserialize(text, store) == (store, root, bound)
        fresh = DiagramStore(natural_order(N))
        store2, root2, bound2 = deserialize(text, fresh)
        assert serialize(store2, root2, bound2) == text


@pytest.mark.parametrize("schedule", ["bucket", "balanced"])
@pytest.mark.parametrize("bound", BOUNDS)
def test_shuffled_chain_compiles(schedule, bound):
    cnf = chain()
    random.Random(5).shuffle(cnf.clauses)
    with shallow_stack():
        store, root = compiled(bound)
        assert compile_cnf(cnf, bound, store=store, schedule=schedule)[1] == root
