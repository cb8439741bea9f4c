"""Canonicalization and the three extraction rules it applies.

Each rule is exercised through decompose() of a raw decision vertex.
Semantic expectations are pinned with truth tables (conftest helpers); the
structural expectations are worked out from the rules themselves.
"""

import pytest

from kcdag import FALSE, TRUE
from kcdag.cnf import CNF
from kcdag.compiler import compile_cnf
from kcdag.decompose import decompose
from kcdag.diagram_io import deserialize, serialize
from kcdag.engine import DiagramStore
from kcdag.families import random_cnf
from kcdag.ordering import natural_order
from kcdag.store import INF
from kcdag.validate import validate

from conftest import (cnf_of, cnf_table, diagram_table, parity_pairs,
                      var_tables)


@pytest.fixture
def store():
    return DiagramStore(natural_order(6))


def xor_vertex(store, a, b):
    """a XOR b as a plain two-variable decision diagram."""
    return store.make_decision(a, store.literal(b), store.literal(b, False))


def test_extract_leaf_factors_the_guard_literal(store):
    hi = store.literal(2)
    u = decompose(store, store.make_decision(1, FALSE, hi), 1)
    assert store.is_conj(u)
    assert set(store.children(u)) == {store.literal(1), store.literal(2)}
    # mirrored: the true branch being false factors a negative literal
    v = decompose(store, store.make_decision(1, hi, FALSE), 1)
    assert set(store.children(v)) == {store.literal(1, False), store.literal(2)}


def test_extract_part_pulls_out_the_shared_branch(store):
    part = store.literal(2)
    whole = store.make_conj([part, store.literal(3)])
    u = decompose(store, store.make_decision(1, part, whole), INF)
    # <x1, p, p AND r>  =  p AND <x1, true, r>
    assert store.is_conj(u)
    kids = set(store.children(u))
    assert part in kids
    inner = next(k for k in kids if k != part)
    assert store.var_of(inner) == 1
    assert store.lo(inner) == TRUE
    assert store.hi(inner) == store.literal(3)


def test_extract_part_respects_the_bound(store):
    # both factors exceed bound 1, so the vertex must stay a plain decision;
    # whole has two 2-variable children, so it is not canonical at bound 1
    # and the rule is applied to the branches directly
    part = xor_vertex(store, 2, 3)
    whole = store.make_conj([part, xor_vertex(store, 4, 5)])
    u = store._decision(1, part, whole, 1)
    assert store.is_decision(u)
    assert store.var_of(u) == 1
    at2 = decompose(store, store.make_decision(1, part, whole), 2)
    assert store.is_conj(at2)


def test_extract_share_factors_common_children(store):
    a, b, c = store.literal(2), store.literal(3), store.literal(4)
    lo = store.make_conj([a, b])
    hi = store.make_conj([a, c])
    u = decompose(store, store.make_decision(1, lo, hi), INF)
    assert store.is_conj(u)
    kids = set(store.children(u))
    assert a in kids
    residual = next(k for k in kids if k != a)
    assert store.is_decision(residual)
    assert store.var_of(residual) == 1
    assert store.lo(residual) == b and store.hi(residual) == c


def cnf_and(true_vars):
    cnf = CNF(max(true_vars))
    for v in true_vars:
        cnf.add_clause([v])
    return cnf


def test_extract_share_on_subset_children_keeps_the_decision(store):
    # Ch(lo) strictly inside Ch(hi): the result is NOT lo; the residual
    # keeps the extra child behind the decision variable.
    a, b, c = store.literal(2), store.literal(3), store.literal(4)
    lo = store.make_conj([a, b])
    hi = store.make_conj([a, b, c])
    u = decompose(store, store.make_decision(1, lo, hi), INF)
    assert u != lo
    vt = var_tables(range(1, 5))
    scope = range(1, 5)
    # truth table of (not x1 -> lo) and (x1 -> hi)
    want = ((vt[(1, False)] & cnf_table(cnf_and([2, 3]), scope, vt))
            | (vt[(1, True)] & cnf_table(cnf_and([2, 3, 4]), scope, vt)))
    assert diagram_table(store, u, scope) == want
    assert diagram_table(store, lo, scope) != want


def test_decompose_splits_a_conjunction_of_literals(store):
    raw = store.make_decision(1, FALSE, store.literal(2))
    for bound in (1, 2, INF):
        u = decompose(store, raw, bound)
        assert store.is_conj(u)
        assert set(store.children(u)) == {store.literal(1), store.literal(2)}
    assert decompose(store, raw, 0) == raw


def test_decompose_interns_only_its_result():
    # the walk keeps each conjunction pending until it is kept, so raising
    # the bound-0 parity pairs to a bound already compiled interns nothing
    cnf = parity_pairs(8)
    store = DiagramStore(natural_order(16))
    r0 = compile_cnf(cnf, 0, store=store)[1]
    want = {b: compile_cnf(cnf, b, store=store)[1] for b in (INF, 1)}
    for bound, root in want.items():
        before = store.num_vertices
        assert decompose(store, r0, bound) == root
        assert store.num_vertices == before
    # in a store holding only the bound-0 form, it interns no more vertices
    # than its result has, and the same ids come back once the memo is gone
    fresh, q0, _ = deserialize(serialize(store, r0, 0))
    got = {}
    for bound in want:
        before = fresh.num_vertices
        got[bound] = decompose(fresh, q0, bound)
        assert fresh.num_vertices - before <= fresh.vertex_count(got[bound])
    before = fresh.num_vertices
    fresh.clear_memo()
    for bound in want:
        assert decompose(fresh, q0, bound) == got[bound]
    assert fresh.num_vertices == before


@pytest.mark.parametrize("interned_first", [False, True])
def test_decision_between_two_forms_of_one_conjunction(store, interned_first):
    # both branches are x2 AND x3, one as a raw conjunction and one as a
    # decision chain, so the decision on x1 reduces to that conjunction,
    # whether or not decompose has already rebuilt the conjunction
    a, b = store.literal(2), store.literal(3)
    conj = store.make_conj([a, b])
    chain = store.make_decision(2, FALSE, b)
    raw = store.make_decision(1, conj, chain)
    for bound in (1, INF):
        if interned_first:
            assert decompose(store, conj, bound) == conj
        assert decompose(store, raw, bound) == conj
        assert decompose(store, store.make_decision(1, chain, conj),
                         bound) == conj


def test_decision_modes_agree():
    # _decision's rules build one vertex whether the branches are vertices
    # (the apply) or pending conjunctions (decompose's walk); the bound-2
    # forms of seeds 12 and 23 keep a shared factor larger than the bound
    def pend(r):
        # a conjunction as the walk holds it: its other children in order,
        # and its literals as a rank mask and the mask of the positive ones
        if not store.is_conj(r):
            return r
        factors = []
        mask = values = 0
        for c in store.children(r):
            if len(store.vars_of(c)) > 1:
                factors.append(c)
                continue
            bit = 1 << store.rank[store.var_of(c)]
            mask |= bit
            if store.lo(c) == FALSE:
                values |= bit
        return tuple(factors), mask, values

    checked = 0
    kept_big = set()
    for seed in range(30):
        store, root = compile_cnf(random_cnf(12, 36, seed=seed), 0)
        for u in store.topological(root):
            if not store.is_decision(u):
                continue
            x = store.var_of(u)
            for bound in (1, 2, 3, INF):
                lo = decompose(store, store.lo(u), bound)
                hi = decompose(store, store.hi(u), bound)
                want = decompose(store, u, bound)
                assert store._decision(x, lo, hi, bound) == want
                assert store._kept(store._decision(
                    x, pend(lo), pend(hi), bound, pending=True)) == want
                checked += 1
                if any(len(store.vars_of(c)) > bound
                       and c in store._parts(lo) and c in store._parts(hi)
                       for c in store.children(want)):
                    kept_big.add((seed, bound))
    assert checked > 7000
    assert {(12, 2), (23, 2)} <= kept_big


def test_decompose_is_idempotent_on_random_instances():
    for seed in range(12):
        cnf = random_cnf(8, 14, seed=seed)
        for bound in (0, 1, 2, INF):
            store, root = compile_cnf(cnf, bound, order=natural_order(8))
            assert store.decompose(root, bound) == root


def test_two_big_blocks_merge_below_their_bound(store):
    # (x2 xor x3) and (x4 xor x5): two 2-variable factors
    f = store.conjoin(xor_vertex(store, 2, 3), xor_vertex(store, 4, 5), 2)
    assert store.is_conj(f)
    assert len(store.children(f)) == 2
    g = store.convert_down(f, 1)
    assert store.is_decision(g)  # neither factor fits bound 1
    assert store.model_count(g) == store.model_count(f) == 4
    assert validate(store, g, 1).ok
    assert validate(store, f, 2).ok


def test_conjoin_of_disjoint_operands_is_their_finest_factoring(store):
    a, b, c = store.literal(1), store.literal(2), store.literal(3)
    assert store.children(store.conjoin(a, b, 1)) == (a, b)
    nested = store.make_conj([a, b])
    assert store.children(store.conjoin(nested, c, INF)) == (a, b, c)
    merged = store.conjoin(xor_vertex(store, 2, 3), xor_vertex(store, 4, 5), 1)
    assert store.is_decision(merged)


def test_decompose_validates_against_oracle_fuzz():
    vt = var_tables(range(1, 9))
    for seed in range(8):
        cnf = random_cnf(8, 16, seed=100 + seed)
        want = cnf_table(cnf, range(1, 9), vt)
        for bound in (0, 1, 3, INF):
            store, root = compile_cnf(cnf, bound, order=natural_order(8))
            assert diagram_table(store, root, range(1, 9)) == want
            assert validate(store, root, bound).ok


def _parity_clauses(variables):
    """CNF clauses of: an even number of the variables is false."""
    n = len(variables)
    return [[v if (bits >> k) & 1 else -v for k, v in enumerate(variables)]
            for bits in range(1 << n) if bin(bits).count("1") % 2 != n % 2]


def _branch_cases():
    # (lo, hi): the clauses of each branch of a decision on x1; the first
    # two hold one literal on x3 in one phase (shared), the next two in
    # opposite phases (not shared), the last two only literals
    p45 = _parity_clauses([4, 5])
    yield [[3]] + p45, [[3], [4, 5]]
    yield [[-3], [6]] + p45, [[-3], [-6]] + p45
    yield [[-3]] + p45, [[3], [4, 5]]
    yield [[3], [6]] + p45, [[-3], [6]] + p45
    yield [[3], [-4]], [[3], [4]]
    yield [[3], [-4]], [[-3], [4]]


def _decision_cnf(lo, hi, n):
    # (not x1 -> lo) and (x1 -> hi) as clauses
    return cnf_of(n, [[1, *c] for c in lo] + [[-1, *c] for c in hi])


def _check_decompose(store, raw, cnf, bound, vt):
    u = decompose(store, raw, bound)
    scope = range(1, cnf.num_vars + 1)
    assert diagram_table(store, u, scope) == cnf_table(cnf, scope, vt)
    assert u == compile_cnf(cnf, bound, store=store)[1]
    assert validate(store, u, bound).ok
    return u


def test_decompose_literal_branches_shared_or_not():
    # raw decisions whose branches each hold one literal on x3: in one
    # phase the literal comes out of the decision, in opposite phases not
    vt = var_tables(range(1, 7))
    for lo, hi in _branch_cases():
        store = DiagramStore(natural_order(6))
        raw = store.make_decision(
            1, compile_cnf(cnf_of(6, lo), INF, store=store)[1],
            compile_cnf(cnf_of(6, hi), INF, store=store)[1])
        cnf = _decision_cnf(lo, hi, 6)
        shared = [3] in lo and [3] in hi
        for bound in (1, 2, 3, INF):
            u = _check_decompose(store, raw, cnf, bound, vt)
            assert (store.literal(3) in store.children(u)) == shared


@pytest.mark.parametrize("bound", [2, 3])
def test_shared_literal_beside_an_oversized_shared_factor(bound):
    # <x1, x2 AND B AND R0, x2 AND B AND R1>: B, the parity of bound + 1
    # variables, exceeds the bound and is kept out of the decision only
    # because the residual decision on x1 and R's bound - 1 variables fits
    # it, once x2, shared in the masks, is not counted in the residue
    n = 2 * bound + 2
    b_vars = list(range(3, bound + 4))
    r_vars = list(range(bound + 4, n + 1))
    common = [[2]] + _parity_clauses(b_vars)
    lo = common + [[v] for v in r_vars]
    hi = common + [[-v] for v in r_vars]
    store = DiagramStore(natural_order(n))
    raw = store.make_decision(
        1, compile_cnf(cnf_of(n, lo), 0, store=store)[1],
        compile_cnf(cnf_of(n, hi), 0, store=store)[1])
    u = _check_decompose(store, raw, _decision_cnf(lo, hi, n), bound,
                         var_tables(range(1, n + 1)))
    big = compile_cnf(cnf_of(n, _parity_clauses(b_vars)), bound,
                      store=store)[1]
    assert set(store.children(u)) >= {store.literal(2), big}
    assert len(store.children(u)) == 3
