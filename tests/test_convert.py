"""Bound conversion.

The bound-0 form is pinned against an independent reduced-OBDD size oracle
computed straight from truth tables (distinct dependent subfunctions per
level), so convert_down(.., 0) and compile(.., 0) are both checked against
something that never touches the diagram code.
"""

import pytest

from kcdag import FALSE, TRUE
from kcdag.compiler import compile_cnf
from kcdag.convert import convert, convert_down
from kcdag.engine import DiagramStore
from kcdag.families import chain_family, random_cnf
from kcdag.ops import disjoin, negate
from kcdag.ordering import natural_order
from kcdag.store import INF

from conftest import cnf_table, diagram_table, parity_pairs, var_tables


def robdd_vertex_count_oracle(table, n):
    """Reduced-OBDD vertex count for a truth table over n natural-order vars.

    Level k holds one vertex per distinct subfunction (over variables
    k..n after fixing 1..k-1) that actually depends on variable k; the
    leaves contribute one vertex per value the function takes.
    """
    width = 1 << n
    decisions = 0
    for k in range(n):
        subs = set()
        rest = n - k
        for prefix in range(1 << k):
            bits = tuple(
                (table >> (prefix | (r << k))) & 1 for r in range(1 << rest)
            )
            if any(bits[2 * j] != bits[2 * j + 1] for j in range(1 << (rest - 1))):
                subs.add(bits)
        decisions += len(subs)
    leaves = len({(table >> m) & 1 for m in range(width)})
    return decisions + leaves


def test_bound_zero_matches_the_obdd_size_oracle():
    vt = var_tables(range(1, 7))
    for seed in range(15):
        cnf = random_cnf(6, 11, seed=seed)
        table = cnf_table(cnf, range(1, 7), vt)
        store, root = compile_cnf(cnf, 0, order=natural_order(6))
        assert store.vertex_count(root) == robdd_vertex_count_oracle(table, 6)
        assert diagram_table(store, root, range(1, 7)) == table


def test_convert_down_equals_direct_compile():
    bounds = [0, 1, 2, 3, INF]
    for seed in range(10):
        cnf = random_cnf(8, 15, seed=40 + seed)
        store = DiagramStore(natural_order(8))
        roots = {b: compile_cnf(cnf, b, store=store)[1] for b in bounds}
        for j, upper in enumerate(bounds):
            for lower in bounds[: j + 1]:
                assert convert_down(store, roots[upper], lower) == roots[lower]


def test_convert_down_composes():
    for seed in range(6):
        cnf = random_cnf(8, 18, seed=70 + seed)
        store, top = compile_cnf(cnf, INF, order=natural_order(8))
        direct1 = convert_down(store, top, 1)
        assert convert_down(store, convert_down(store, top, 3), 1) == direct1
        assert convert_down(store, convert_down(store, top, 2), 0) == \
            convert_down(store, top, 0)


def test_convert_raises_bound_via_decompose():
    cnf = random_cnf(8, 15, seed=3)
    store = DiagramStore(natural_order(8))
    low = compile_cnf(cnf, 1, store=store)[1]
    high = compile_cnf(cnf, INF, store=store)[1]
    assert convert(store, low, 1, INF) == high
    assert convert(store, high, INF, 1) == low
    assert convert(store, low, 1, 1) == low


def test_convert_down_recurses_into_an_oversized_child():
    # g = not x1 or ((x2 xor x3) and (x4 xor x5)); at bound 2 the high
    # branch is a conjunction of two 2-var factors, which bound 1 forbids
    # anywhere in the diagram, not just at the root.
    store = DiagramStore(natural_order(5))
    xor23 = store.make_decision(2, store.literal(3), store.literal(3, False))
    xor45 = store.make_decision(4, store.literal(5), store.literal(5, False))
    f = store.conjoin(xor23, xor45, 2)
    g2 = disjoin(store, negate(store, store.literal(1), 2), f, 2)
    hi2 = store.hi(g2)
    assert store.is_conj(hi2)
    g1 = convert_down(store, g2, 1)
    g1_direct = disjoin(store, negate(store, store.literal(1), 1),
                        store.convert_down(f, 1), 1)
    assert g1 == g1_direct
    seen = [u for u in store.topological(g1) if store.is_conj(u)]
    for u in seen:
        big = [c for c in store.children(u) if len(store.vars_of(c)) > 1]
        assert len(big) <= 1


def test_chain_family_conversion_chain():
    # each chain spans 3 variables, so the split first appears at bound 3
    cnf = chain_family(2, 1)
    store = DiagramStore(natural_order(cnf.num_vars))
    roots = {b: compile_cnf(cnf, b, store=store)[1] for b in (0, 1, 2, 3, INF)}
    assert not store.is_conj(roots[2])
    assert store.is_conj(roots[3])
    assert len(store.children(roots[3])) == 2
    for b in (3, 2, 1, 0):
        assert convert_down(store, roots[INF], b) == roots[b]


def test_leaves_convert_to_themselves():
    store = DiagramStore(natural_order(3))
    for b in (0, 1, INF):
        assert convert_down(store, TRUE, b) == TRUE
        assert convert_down(store, FALSE, b) == FALSE


def test_convert_down_builds_no_dead_vertices():
    # merging the eight oversized factors top-down interns only vertices of
    # the result; converting each factor on its own first would intern
    # about twice as many
    cnf = parity_pairs(8)
    store, r1 = compile_cnf(cnf, 1, order=natural_order(16))
    before = store.num_vertices
    r0 = convert_down(store, r1, 0)
    interned = store.num_vertices - before
    assert store.vertex_count(r0) == 3 * 2 ** 8 - 1
    assert interned <= store.vertex_count(r0)
    # the merge's keys live for the operation: the store keeps no merge
    # entry, and converting again interns nothing
    assert not store._memo_merge
    before = store.num_vertices
    assert convert_down(store, r1, 0) == r0
    assert store.num_vertices == before
    assert compile_cnf(cnf, 0, store=store)[1] == r0


@pytest.mark.parametrize("bound", [0, 1, 2])
def test_convert_down_shares_the_merge_table_with_conjoin(bound):
    # within an operation one table maps factor tuples to their canonical
    # conjunction: the keys of merges of canonical factors, and the keys of
    # convert_down's merges of source-bound ones; compiling and converting
    # must still give one vertex, whichever runs first
    vt = var_tables(range(1, 11))
    for seed in range(8):
        cnf = random_cnf(10, 22, seed=90 + seed)
        store = DiagramStore(natural_order(10))
        low = compile_cnf(cnf, bound, store=store)[1]
        high = compile_cnf(cnf, INF, store=store)[1]
        assert convert_down(store, high, bound) == low
        # converting first, then compiling
        store = DiagramStore(natural_order(10))
        high = compile_cnf(cnf, INF, store=store)[1]
        down = convert_down(store, high, bound)
        assert compile_cnf(cnf, bound, store=store)[1] == down
        assert diagram_table(store, down, range(1, 11)) == \
            cnf_table(cnf, range(1, 11), vt)
