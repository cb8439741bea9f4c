"""CNF compilation: clause diagrams, schedules, and route independence."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcdag import FALSE, TRUE
from kcdag.cnf import CNF
from kcdag.compiler import SCHEDULES, clause_diagram, compile_cnf, compile_via
from kcdag.convert import convert_down
from kcdag.decompose import decompose
from kcdag.engine import DiagramStore
from kcdag.families import chain_family, random_cnf
from kcdag.ordering import VariableOrder, natural_order
from kcdag.ops import model_count
from kcdag.store import INF

from conftest import cnf_table, diagram_table, var_tables


def test_clause_diagram_unit_and_binary():
    store = DiagramStore(natural_order(3))
    assert clause_diagram(store, [2]) == store.literal(2)
    assert clause_diagram(store, [-2]) == store.literal(2, False)
    # x1 or not x3: decide x1 first, low branch carries the x3 test
    d = clause_diagram(store, [1, -3])
    assert store.var_of(d) == 1
    assert store.hi(d) == TRUE
    assert store.lo(d) == store.literal(3, False)


def test_clause_diagram_respects_store_rank():
    store = DiagramStore(VariableOrder([3, 1, 2]))
    d = clause_diagram(store, [1, 3])
    assert store.var_of(d) == 3
    assert store.lo(d) == store.literal(1)


def test_clause_diagram_edge_cases():
    store = DiagramStore(natural_order(3))
    assert clause_diagram(store, []) == FALSE
    assert clause_diagram(store, [1, 1]) == store.literal(1)
    with pytest.raises(ValueError):
        clause_diagram(store, [1, -1])  # tautological input
    with pytest.raises(Exception):
        clause_diagram(store, [9])


def test_degenerate_formulas():
    empty = CNF(3)
    store, root = compile_cnf(empty, 1, order=natural_order(3))
    assert root == TRUE
    falsum = CNF(3)
    falsum.add_clause([])
    assert compile_cnf(falsum, INF, order=natural_order(3))[1] == FALSE
    dup = CNF(2)
    dup.add_clause([1, 2])
    dup.add_clause([2, 1])
    store, root = compile_cnf(dup, 0, order=natural_order(2))
    assert root == clause_diagram(store, [1, 2])


def test_tautological_clause_is_dropped():
    taut = CNF(2)
    taut.add_clause([1, -1])
    taut.add_clause([2])
    unit = CNF(2)
    unit.add_clause([2])
    for bound in (0, 1, INF):
        store = DiagramStore(natural_order(2))
        want = compile_cnf(unit, bound, store=store)[1]
        for s in SCHEDULES:
            assert compile_cnf(taut, bound, store=store, schedule=s)[1] == want


def test_shuffled_chain_compiles_under_the_default_limit():
    # x_k <-> x_{k+1} for k < 1000 in shuffled clause order: the default
    # schedule adds the links along the order whatever the clause order,
    # where the balanced schedule exceeds the default recursion limit
    cnf = chain_family(1, 998, mode="all-equal")
    random.Random(5).shuffle(cnf.clauses)
    for bound in (1, INF):
        store, root = compile_cnf(cnf, bound, order=natural_order(1000))
        assert model_count(store, root, scope=store.order.vars) == 2


def test_default_schedule_pairs_by_smallest_union():
    # the adjacent pair with the smallest union of variables goes first:
    # on this formula balanced pairing interns 57,692 vertices at bound 0
    cnf = random_cnf(30, 90, seed=0)
    store, root = compile_cnf(cnf, 0)
    assert store.num_vertices <= 16_000
    assert compile_cnf(cnf, 0, store=store, schedule="balanced")[1] == root
    # the clauses are sorted before pairing, so clause order changes neither
    # the root id nor what a fresh store interns
    for seed in range(4):
        cnf = random_cnf(20, 60, seed=seed)
        shuffled = CNF(cnf.num_vars, list(cnf.clauses))
        random.Random(seed).shuffle(shuffled.clauses)
        for bound in (0, 1, INF):
            store, root = compile_cnf(cnf, bound)
            other, other_root = compile_cnf(shuffled, bound)
            assert (other.num_vertices, other_root) == (store.num_vertices, root)


def test_uniform_supports_keep_balanced_rounds():
    # every link of a chain has the same support size, so the pairing falls
    # back to balanced rounds; folding the chain would intern quadratically
    cnf = chain_family(1, 998, mode="all-equal")
    random.Random(5).shuffle(cnf.clauses)
    store, root = compile_cnf(cnf, 0, order=natural_order(1000))
    assert store.num_vertices <= 20_000
    assert model_count(store, root, scope=store.order.vars) == 2


def test_unknown_schedule_rejected():
    with pytest.raises(ValueError):
        compile_cnf(CNF(2), 0, order=natural_order(2), schedule="random")


def test_order_conflict_rejected():
    store = DiagramStore(natural_order(3))
    with pytest.raises(ValueError):
        compile_cnf(CNF(3), 0, order=VariableOrder([3, 2, 1]), store=store)
    with pytest.raises(ValueError):
        compile_cnf(random_cnf(5, 5, seed=1), 0, store=store)


def test_schedules_agree():
    for seed in range(8):
        cnf = random_cnf(10, 25, seed=seed)
        store = DiagramStore(natural_order(10))
        for bound in (0, 1, 2, INF):
            roots = {
                s: compile_cnf(cnf, bound, store=store, schedule=s)[1]
                for s in SCHEDULES
            }
            assert len(set(roots.values())) == 1


def test_compile_via_matches_compile():
    for seed in range(6):
        cnf = random_cnf(9, 20, seed=50 + seed)
        store = DiagramStore(natural_order(9))
        for bound in (0, 1, 2, 3, INF):
            direct = compile_cnf(cnf, bound, store=store)[1]
            via = compile_via(cnf, bound, store=store)[1]
            assert via == direct


def _literals(n):
    return st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))


_small_cnfs = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(_literals(n), min_size=1, max_size=3), max_size=3 * n),
    st.permutations(range(1, n + 1))))


@settings(max_examples=60, deadline=None)
@given(_small_cnfs)
def test_every_route_gives_one_vertex(case):
    # canonicity: each schedule, compile_via, convert_down from any larger
    # bound (directly or stepwise) and decompose from any smaller one land
    # on the same vertex, whose models are the formula's
    n, clauses, perm = case
    cnf = CNF(n)
    for lits in clauses:
        cnf.add_clause(lits)
    store = DiagramStore(VariableOrder(perm))
    scope = range(1, n + 1)
    want = cnf_table(cnf, scope)
    bounds = (0, 1, 2, 3, INF)
    roots = {}
    for bound in bounds:
        ids = {compile_cnf(cnf, bound, store=store, schedule=s)[1]
               for s in SCHEDULES}
        ids.add(compile_via(cnf, bound, store=store)[1])
        assert len(ids) == 1
        roots[bound] = ids.pop()
        assert diagram_table(store, roots[bound], scope) == want
    for k, bound in enumerate(bounds):
        for src in bounds[k:]:
            assert convert_down(store, roots[src], bound) == roots[bound]
        for src in bounds[:k + 1]:
            assert decompose(store, roots[src], bound) == roots[bound]
    stepwise = roots[INF]
    for bound in reversed(bounds):
        stepwise = convert_down(store, stepwise, bound)
        assert stepwise == roots[bound]


def test_compiled_semantics_against_tables():
    vt = var_tables(range(1, 9))
    for seed in range(8):
        cnf = random_cnf(8, 16, seed=seed)
        want = cnf_table(cnf, range(1, 9), vt)
        for bound in (0, 1, INF):
            store, root = compile_cnf(cnf, bound, order=natural_order(8))
            assert diagram_table(store, root, range(1, 9)) == want


def test_chain_instance_shapes():
    # chain_family(1, 0) is x1 <-> x2; with no bound the root is a single
    # decision with literal branches.
    store, root = compile_cnf(chain_family(1, 0), INF, order=natural_order(2))
    assert store.var_of(root) == 1
    assert store.lo(root) == store.literal(2, False)
    assert store.hi(root) == store.literal(2)
    # two interleaved biconditionals split into independent halves once the
    # bound admits both 2-var factors; below that the root stays a decision
    cnf = chain_family(2, 0)
    store, root = compile_cnf(cnf, 2, order=natural_order(cnf.num_vars))
    assert store.is_conj(root)
    assert len(store.children(root)) == 2
    low = compile_cnf(cnf, 1, store=store)[1]
    assert not store.is_conj(low) and low != root


def test_default_order_is_min_fill():
    cnf = random_cnf(8, 18, seed=77)
    store, _ = compile_cnf(cnf, 1)
    from kcdag.ordering import min_fill_order

    assert tuple(store.order.vars) == tuple(min_fill_order(cnf).vars)
