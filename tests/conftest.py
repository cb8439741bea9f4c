"""Shared test helpers: truth-table oracles over bitmask tables.

Everything here evaluates formulas by enumeration semantics only; nothing
goes through the diagram engine, so these are independent ground truth.

A "table" for a scope of n variables is a Python int of 2^n bits; bit m is
the formula's value under the assignment where variable k of the sorted
scope takes bit k of m.  That matches kcdag.cnf.iter_assignments.

parity_pairs builds one CNF family that several test modules share.
"""

from __future__ import annotations

import pytest

from kcdag import ops
from kcdag.cnf import CNF


def parity_pairs(half):
    """CNF of x_k <-> x_{2 half + 1 - k} for k = 1..half.

    Under the natural order every pair spans the middle, so the bound-0
    diagram has 3 * 2^half - 1 vertices while the bound-1 diagram is a
    conjunction of `half` two-variable factors.
    """
    cnf = CNF(2 * half)
    for k in range(1, half + 1):
        cnf.add_clause([-k, 2 * half + 1 - k])
        cnf.add_clause([k, -(2 * half + 1 - k)])
    return cnf


def cnf_of(n, clauses):
    """The CNF over variables 1..n of clauses given as lists of literals."""
    cnf = CNF(n)
    for c in clauses:
        cnf.add_clause(c)
    return cnf


def var_tables(scope):
    """{(var, phase): table} for each variable of the sorted scope."""
    vs = sorted(scope)
    n = len(vs)
    full = (1 << (1 << n)) - 1
    out = {}
    for k, v in enumerate(vs):
        t = 0
        for m in range(1 << n):
            if (m >> k) & 1:
                t |= 1 << m
        out[(v, True)] = t
        out[(v, False)] = full & ~t
    return out


def cnf_table(cnf: CNF, scope, vt=None):
    """Truth table of the formula over the sorted scope."""
    vs = sorted(scope)
    assert set(cnf.variables) <= set(vs)
    if vt is None:
        vt = var_tables(vs)
    full = (1 << (1 << len(vs))) - 1
    table = full
    for cl in cnf.clauses:
        sat = 0
        for lit in cl:
            sat |= vt[(lit.var, lit.positive)]
        table &= sat
    return table


def term_table(lits, scope, vt):
    """Table of a conjunction of literals given as signed ints."""
    vs = sorted(scope)
    t = (1 << (1 << len(vs))) - 1
    for code in lits:
        t &= vt[(abs(code), code > 0)]
    return t


def clause_sat_table(lits, scope, vt):
    """Table of a disjunction of literals given as signed ints."""
    t = 0
    for code in lits:
        t |= vt[(abs(code), code > 0)]
    return t


def diagram_table(store, root, scope):
    """Truth table of a diagram by streaming its models. Engine-assisted,
    so only use it to compare two engine results or against a cnf_table."""
    vs = sorted(scope)
    pos = {v: k for k, v in enumerate(vs)}
    t = 0
    for model in ops.enumerate_models(store, root, scope=vs):
        m = 0
        for v, b in model.items():
            if b:
                m |= 1 << pos[v]
        t |= 1 << m
    return t


def project_table(table, scope, assignment):
    """Table of the formula conditioned on `assignment`, over the remaining
    variables of the scope (sorted)."""
    vs = sorted(scope)
    rest = [v for v in vs if v not in assignment]
    fixed = 0
    for v, b in assignment.items():
        if b:
            fixed |= 1 << vs.index(v)
    spread = [vs.index(v) for v in rest]
    out = 0
    for m in range(1 << len(rest)):
        full_mask = fixed
        for k, p in enumerate(spread):
            if (m >> k) & 1:
                full_mask |= 1 << p
        if (table >> full_mask) & 1:
            out |= 1 << m
    return out


@pytest.fixture(scope="session")
def vt12():
    return var_tables(range(1, 13))


def exists_table(table, n, side):
    """∃side.f over a table of n variables (bit k of the index is variable
    k); `side` is a bitmask of variable indices.  The result is still a
    table over all n variables, constant along the quantified ones."""
    for k in range(n):
        if (side >> k) & 1:
            w = 1 << k
            pos = 0
            for m in range(1 << n):
                if (m >> k) & 1:
                    pos |= 1 << m
            either = (table & ~pos) | ((table & pos) >> w)
            table = either | (either << w)
    return table


def is_factor_side(table, n, side):
    """f == ∃S̄.f ∧ ∃S.f: the variables of `side` form an independent factor."""
    rest = ((1 << n) - 1) ^ side
    return table == exists_table(table, n, rest) & exists_table(table, n, side)


def finest_reference(table, n, bound):
    """Is a decision vertex with this table over its n variables canonical
    at `bound`, by definition?  It must depend on every variable, and no
    proper side of at most `bound` variables may be an independent factor:
    exhaustive over all 2^n sides, so only for small n."""
    if any(exists_table(table, n, 1 << k) == table for k in range(n)):
        return False
    return not any(side.bit_count() <= bound
                   and is_factor_side(table, n, side)
                   for side in range(1, (1 << n) - 1))
