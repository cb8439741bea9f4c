"""Variable orders and the min-fill heuristic.

The min-fill expectations below are worked out by hand from the definition:
eliminate the variable needing the fewest fill edges, ties to the smallest
index, fill edges added as you go, clause-free variables appended last.
"""

import random

import pytest

from kcdag.cnf import CNF
from kcdag.families import random_cnf
from kcdag.ordering import (
    VariableOrder,
    min_fill_order,
    natural_order,
)


def cnf_of(num_vars, *clauses):
    cnf = CNF(num_vars)
    for cl in clauses:
        cnf.add_clause(cl)
    return cnf


def test_variable_order_basics():
    o = VariableOrder([3, 1, 2])
    assert len(o) == 3
    assert o.rank == {3: 0, 1: 1, 2: 2}
    assert 1 in o and 4 not in o
    assert o != natural_order(3)
    assert "3, 1, 2" in repr(o)
    with pytest.raises(ValueError):
        VariableOrder([1, 2, 1])


def test_natural_order():
    assert natural_order(4).vars == (1, 2, 3, 4)


def test_min_fill_path():
    # path 1-2-3: endpoints have zero fill, 1 wins the tie, then the rest
    cnf = cnf_of(3, [1, 2], [2, 3])
    assert min_fill_order(cnf).vars == (1, 2, 3)


def test_min_fill_clique_breaks_ties_by_index():
    cnf = cnf_of(3, [1, 2, 3])
    assert min_fill_order(cnf).vars == (1, 2, 3)


def test_min_fill_star_defers_the_center():
    # center 1 needs 3 fill edges, the leaves none, so leaves go first;
    # once only the edge 1-4 remains both ends tie at zero fill and the
    # smaller index wins
    cnf = cnf_of(4, [1, 2], [1, 3], [1, 4])
    assert min_fill_order(cnf).vars == (2, 3, 1, 4)


def test_min_fill_appends_unused_variables_last():
    cnf = cnf_of(3, [1, 3])
    assert min_fill_order(cnf).vars == (1, 3, 2)


def test_min_fill_invariant_under_clause_permutation():
    base = random_cnf(12, 30, seed=5)
    want = min_fill_order(base).vars
    rng = random.Random(99)
    for _ in range(5):
        clauses = list(base.clauses)
        rng.shuffle(clauses)
        cnf = CNF(12, clauses)
        assert min_fill_order(cnf).vars == want
