"""Operations and queries, checked against bigint truth tables."""

import random

import pytest

from kcdag import FALSE, TRUE
from kcdag.cnf import CNF
from kcdag.compiler import compile_cnf
from kcdag.engine import DiagramStore
from kcdag.errors import InputError
from kcdag.families import random_cnf
from kcdag.ops import (
    condition,
    conjoin,
    disjoin,
    enumerate_models,
    entails,
    entails_clause,
    equivalent,
    forget,
    implied_by_term,
    is_consistent,
    is_valid,
    model_count,
    negate,
)
from kcdag.ordering import natural_order
from kcdag.store import INF

from conftest import (
    clause_sat_table,
    cnf_table,
    diagram_table,
    parity_pairs,
    project_table,
    term_table,
    var_tables,
)

SCOPE = range(1, 9)
FULL = (1 << (1 << 8)) - 1
BOUNDS = [0, 1, 2, INF]


def forget_table(table, scope, variables):
    vs = sorted(variables)
    out = 0
    for mask in range(1 << len(vs)):
        asg = {v: bool((mask >> k) & 1) for k, v in enumerate(vs)}
        out |= project_table(table, scope, asg)
    return out


@pytest.fixture(scope="module")
def vt8():
    return var_tables(SCOPE)


def _compiled_pair(seed, vt8):
    bound = BOUNDS[seed % len(BOUNDS)]
    store = DiagramStore(natural_order(8))
    a = random_cnf(8, 12, seed=seed)
    b = random_cnf(8, 10, seed=1000 + seed)
    u = compile_cnf(a, bound, store=store)[1]
    v = compile_cnf(b, bound, store=store)[1]
    return store, u, v, cnf_table(a, SCOPE, vt8), cnf_table(b, SCOPE, vt8), bound


def test_binary_ops_match_tables(vt8):
    for seed in range(12):
        store, u, v, tu, tv, bound = _compiled_pair(seed, vt8)
        assert diagram_table(store, conjoin(store, u, v, bound), SCOPE) == tu & tv
        assert diagram_table(store, disjoin(store, u, v, bound), SCOPE) == tu | tv
        assert diagram_table(store, negate(store, u, bound), SCOPE) == FULL ^ tu


def test_conjoin_equals_compiling_the_union():
    # canonicity: conjoining two compiled formulas, or a formula and a
    # literal in either operand position, gives the vertex of compiling
    # all their clauses at once
    for seed in range(8):
        a = random_cnf(8, 10, seed=seed)
        b = random_cnf(8, 8, seed=100 + seed)
        for bound in BOUNDS:
            store = DiagramStore(natural_order(8))
            u = compile_cnf(a, bound, store=store)[1]
            v = compile_cnf(b, bound, store=store)[1]
            both = CNF(8, list(a.clauses) + list(b.clauses))
            assert conjoin(store, u, v, bound) == \
                compile_cnf(both, bound, store=store)[1]
            for x in SCOPE:
                for positive in (True, False):
                    unit = CNF(8, list(a.clauses))
                    unit.add_clause([x if positive else -x])
                    want = compile_cnf(unit, bound, store=store)[1]
                    lit = store.literal(x, positive)
                    assert conjoin(store, lit, u, bound) == want
                    assert conjoin(store, u, lit, bound) == want


def test_split_passes_factors_through(vt8):
    # u's factors x1|x2 and x4|x5 both overlap v, x7|x8 meets no factor of
    # v; at bounds 2 and up every clause here is a factor of its own
    A, B, C = [1, 2], [4, 5], [7, 8]
    D, E = [-2, 3], [-5, 6]

    def cnf(*clauses):
        out = CNF(8)
        for cl in clauses:
            out.add_clause(cl)
        return out

    for bound in (2, 3, INF):
        store = DiagramStore(natural_order(8))

        def comp(*clauses):
            return compile_cnf(cnf(*clauses), bound, store=store)[1]

        def check(r, *clauses):
            assert diagram_table(store, r, SCOPE) == \
                cnf_table(cnf(*clauses), SCOPE, vt8)
            assert r == comp(*clauses)

        u = comp(A, B, C)
        for v in (comp(D, E), comp(D, E, C)):  # the second shares x7|x8
            check(conjoin(store, u, v, bound), A, B, C, D, E)
            check(conjoin(store, v, u, bound), A, B, C, D, E)
        # every factor passes through: no core pair is left
        ab, ac = comp(A, B), comp(A, C)
        check(conjoin(store, ab, ac, bound), A, B, C)
        # the shared factor comes out of the disjunction
        check(disjoin(store, ab, ac, bound), A, B + C)
        # every factor of ab is one of u's, so all of u passes through
        assert conjoin(store, u, ab, bound) == u
        assert conjoin(store, ab, u, bound) == u


def test_condition_matches_projection(vt8):
    for seed in range(10):
        store, u, _, tu, _, bound = _compiled_pair(seed, vt8)
        rng = random.Random(seed)
        picked = rng.sample(list(SCOPE), 3)
        asg = {v: rng.random() < 0.5 for v in picked}
        res = condition(store, u, asg, bound)
        remaining = [v for v in SCOPE if v not in asg]
        assert store.vars_of(res).isdisjoint(asg)
        assert diagram_table(store, res, remaining) == \
            project_table(tu, SCOPE, asg)
        # one variable at a time, in either order, lands on the same vertex
        for seq in (picked, picked[::-1]):
            w = u
            for v in seq:
                w = condition(store, w, {v: asg[v]}, bound)
            assert w == res


def test_forget_matches_existential_projection(vt8):
    for seed in range(8):
        store, u, _, tu, _, bound = _compiled_pair(seed, vt8)
        rng = random.Random(100 + seed)
        gone = rng.sample(list(SCOPE), 2)
        res = forget(store, u, gone, bound)
        remaining = [v for v in SCOPE if v not in gone]
        want = 0
        for a0 in (False, True):
            for a1 in (False, True):
                want |= project_table(tu, SCOPE, {gone[0]: a0, gone[1]: a1})
        assert diagram_table(store, res, remaining) == want
        # duplicates in the variable list are harmless
        assert forget(store, u, [gone[0], gone[0], gone[1]], bound) == res


def _old_condition(store, u, asg, bound):
    # one variable at a time, deepest first, through the conjoin's peel, in
    # one operation of the store, whose tables the peel uses
    def peel(u):
        for x in sorted(asg, key=store.rank.__getitem__, reverse=True):
            u = store._restrict1(u, store.rank[x], asg[x], bound)
        return u
    return store._run(peel, u)


def _old_forget(store, u, gone, bound):
    # deepest variable first, each the disjunction of its two conditions
    for x in sorted(gone, key=store.rank.__getitem__, reverse=True):
        u = disjoin(store, _old_condition(store, u, {x: False}, bound),
                    _old_condition(store, u, {x: True}, bound), bound)
    return u


def _old_negate(store, u, bound):
    # the Shannon walk that interns every cofactor it visits, in one
    # operation of the store, whose tables the cofactors' merges use
    memo = {FALSE: TRUE, TRUE: FALSE}

    def walk(u):
        if u not in memo:
            u0, u1 = store._cofactor_top(u, bound)
            memo[u] = store._decision(store._minrank[u], walk(u0), walk(u1),
                                      bound)
        return memo[u]
    return store._run(walk, u)


def _one_walk_cases():
    # per pinned formula and bound: the diagram, an assignment to 3 of its
    # variables and 3 variables to forget; seeds 4 to 6 add 5 unit clauses,
    # so most conjunctions list literals
    for seed in range(7):
        cnf = random_cnf(12, 30 if seed < 4 else 18, seed=seed)
        rng = random.Random(seed)
        if seed >= 4:
            for x in rng.sample(range(1, 13), 5):
                cnf.add_clause([x if rng.random() < 0.5 else -x])
        asg = {x: rng.random() < 0.5 for x in rng.sample(range(1, 13), 3)}
        gone = rng.sample(range(1, 13), 3)
        for bound in BOUNDS:
            yield cnf, bound, asg, gone


def test_one_walk_transformations_match_their_old_routes():
    for cnf, bound, asg, gone in _one_walk_cases():
        store = DiagramStore(natural_order(12))
        u = compile_cnf(cnf, bound, store=store)[1]
        cond = condition(store, u, asg, bound)
        gone_u = forget(store, u, gone, bound)
        neg = negate(store, u, bound)
        assert cond == _old_condition(store, u, asg, bound)
        assert gone_u == _old_forget(store, u, gone, bound)
        store.clear_memo()
        assert negate(store, u, bound) == neg
        assert neg == _old_negate(store, u, bound)


def test_one_walk_transformations_intern_less():
    # random_cnf(12, 30, seed=0) at bound 1: the one walk against the old
    # route, each in a fresh store
    cnf, bound, asg, gone = next(
        case for case in _one_walk_cases() if case[1] == 1)

    def interned(op):
        store = DiagramStore(natural_order(12))
        u = compile_cnf(cnf, bound, store=store)[1]
        before = store.num_vertices
        op(store, u)
        return store.num_vertices - before

    pairs = [
        (lambda s, u: condition(s, u, asg, bound),
         lambda s, u: _old_condition(s, u, asg, bound)),
        (lambda s, u: forget(s, u, gone, bound),
         lambda s, u: _old_forget(s, u, gone, bound)),
        (lambda s, u: negate(s, u, bound),
         lambda s, u: _old_negate(s, u, bound)),
    ]
    for new, old in pairs:
        assert interned(new) < interned(old)


def test_model_count_and_scope(vt8):
    for seed in range(10):
        store, u, _, tu, _, _ = _compiled_pair(seed, vt8)
        assert model_count(store, u, SCOPE) == tu.bit_count()
        own = store.vars_of(u)
        assert model_count(store, u) == store.model_count(u)
        assert model_count(store, u, SCOPE) == \
            model_count(store, u, own) << (8 - len(own))
    store = DiagramStore(natural_order(8))
    root = compile_cnf(random_cnf(8, 12, seed=0), 1, store=store)[1]
    with pytest.raises(ValueError):
        model_count(store, root, [1, 2])  # scope misses diagram variables
    with pytest.raises(ValueError):
        model_count(store, root, range(1, 10))  # 9 not in the order


def test_enumerate_models_contract(vt8):
    store, u, _, tu, _, _ = _compiled_pair(4, vt8)
    scope = sorted(SCOPE)
    models = list(enumerate_models(store, u, scope))
    assert models == list(enumerate_models(store, u, scope))
    assert len(models) == tu.bit_count()
    seen = set()
    for m in models:
        assert sorted(m) == scope
        idx = sum(1 << k for k, v in enumerate(scope) if m[v])
        assert (tu >> idx) & 1
        seen.add(idx)
    assert len(seen) == len(models)
    assert len(list(enumerate_models(store, u, scope, limit=5))) == 5
    assert list(enumerate_models(store, u, scope, limit=0)) == []
    assert list(enumerate_models(store, TRUE, [1, 2], limit=0)) == []
    with pytest.raises(InputError):
        list(enumerate_models(store, u, scope, limit=-1))
    assert list(enumerate_models(store, FALSE, scope)) == []
    assert len(list(enumerate_models(store, TRUE, [1, 2]))) == 4


def test_clause_entailment_against_tables(vt8):
    for seed in range(8):
        store, u, _, tu, _, _ = _compiled_pair(seed, vt8)
        rng = random.Random(200 + seed)
        for _ in range(10):
            lits = rng.sample(list(SCOPE), 3)
            clause = [v if rng.random() < 0.5 else -v for v in lits]
            want = tu & ~clause_sat_table(clause, SCOPE, vt8) == 0
            assert entails_clause(store, u, clause) == want
    store, u, *_ = _compiled_pair(0, vt8)
    assert entails_clause(store, u, [1, -1])  # tautology
    with pytest.raises(ValueError):
        entails_clause(store, u, [99])


def test_term_implication_against_tables(vt8):
    for seed in range(8):
        store, u, _, tu, _, _ = _compiled_pair(seed, vt8)
        rng = random.Random(300 + seed)
        for _ in range(10):
            lits = rng.sample(list(SCOPE), 3)
            term = [v if rng.random() < 0.5 else -v for v in lits]
            want = term_table(term, SCOPE, vt8) & ~tu == 0
            assert implied_by_term(store, u, term) == want
    store, u, *_ = _compiled_pair(0, vt8)
    assert implied_by_term(store, u, [2, -2])  # contradictory term
    with pytest.raises(ValueError):
        implied_by_term(store, u, [-99])


def test_equivalence_and_entailment(vt8):
    cnf = random_cnf(8, 14, seed=9)
    store = DiagramStore(natural_order(8))
    u0 = compile_cnf(cnf, 0, store=store)[1]
    # a diagram and its negation differ in model count, so nothing is
    # decomposed and nothing is interned
    nu0 = negate(store, u0, 0)
    before = store.num_vertices
    assert not equivalent(store, u0, nu0)
    assert store.num_vertices == before
    # equal counts leave the answer to the canonical forms
    x1, x2 = store.literal(1), store.literal(2)
    assert model_count(store, x1, SCOPE) == model_count(store, x2, SCOPE)
    assert not equivalent(store, x1, x2)
    u3 = compile_cnf(cnf, 3, store=store)[1]
    assert equivalent(store, u0, u3)
    assert entails(store, u0, u3, 3)
    assert entails(store, conjoin(store, u0, store.literal(5), 0), u0, 0)
    assert entails(store, u0, disjoin(store, u3, store.literal(5), 3), 3)
    assert not entails(store, TRUE, u0, 0) or u0 == TRUE


def test_equivalence_with_an_inessential_variable():
    # both branches of the raw decision on x1 are x2 AND x3, so x1 is
    # inessential; counting over the store's variables still matches the
    # compiled x2 AND x3
    store = DiagramStore(natural_order(3))
    a, b = store.literal(2), store.literal(3)
    raw = store.make_decision(1, store.make_conj([a, b]),
                              store.make_decision(2, FALSE, b))
    both = CNF(3)
    both.add_clause([2])
    both.add_clause([3])
    for bound in (0, 1, INF):
        w = compile_cnf(both, bound, store=store)[1]
        assert equivalent(store, raw, w)
        assert equivalent(store, w, raw)


def test_entailment_interns_no_negation():
    # ten pairs x_k <-> x_{21-k} against the same pairs less one clause: the
    # negation of either is exponential at every bound, their conjunction is
    # not, whichever way the entailment goes
    strong, weak = parity_pairs(10), parity_pairs(10)
    weak.clauses.pop()
    store = DiagramStore(natural_order(20))
    u = compile_cnf(strong, INF, store=store)[1]
    v = compile_cnf(weak, INF, store=store)[1]
    before = store.num_vertices
    assert entails(store, u, v, INF)
    assert not entails(store, v, u, INF)
    assert store.num_vertices - before < 100


def test_consistency_validity_flags():
    store = DiagramStore(natural_order(2))
    assert is_consistent(store, TRUE)
    assert not is_consistent(store, FALSE)
    assert is_valid(store, TRUE)
    lit = store.literal(1)
    assert is_consistent(store, lit) and not is_valid(store, lit)


def test_variable_checks_on_transformations():
    store = DiagramStore(natural_order(3))
    with pytest.raises(ValueError):
        condition(store, TRUE, {7: True}, 0)
    with pytest.raises(ValueError):
        forget(store, TRUE, [7], 0)
