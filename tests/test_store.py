"""Vertex store: hash consing, reduction, structural accessors."""

import random
import tracemalloc

import pytest

from kcdag import FALSE, TRUE
from kcdag.engine import (
    _MEMO_TABLES,
    DiagramStore,
    _name,
    KIND_CONJ,
    KIND_DECISION,
    KIND_FALSE,
    KIND_TRUE,
)
from kcdag.cnf import CNF, iter_assignments, oracle_count, oracle_eval
from kcdag.compiler import clause_diagram, compile_cnf
from kcdag.diagram_io import serialize
from kcdag.errors import (
    DecompositionError,
    InputError,
    OrderViolationError,
    ResourceLimitError,
)
from kcdag.families import chain_family, random_cnf
from kcdag.ordering import VariableOrder, natural_order
from kcdag.store import INF
from kcdag.validate import validate


@pytest.fixture
def store():
    return DiagramStore(natural_order(6))


def test_leaves_are_preinterned(store):
    assert FALSE == 0 and TRUE == 1
    assert store.kind(FALSE) == KIND_FALSE
    assert store.kind(TRUE) == KIND_TRUE
    assert store.vars_of(TRUE) == frozenset()


def test_decision_hash_consing(store):
    a = store.make_decision(2, FALSE, TRUE)
    b = store.make_decision(2, FALSE, TRUE)
    c = store.make_decision(2, TRUE, FALSE)
    assert a == b
    assert a != c
    assert store.is_decision(a)
    assert store.var_of(a) == 2
    assert store.lo(a) == FALSE and store.hi(a) == TRUE
    assert store.vars_of(a) == frozenset({2})


def test_decision_collapses_equal_branches(store):
    inner = store.literal(3)
    assert store.make_decision(2, inner, inner) == inner


def test_decision_rejects_order_violations(store):
    x3 = store.literal(3)
    with pytest.raises(OrderViolationError):
        store.make_decision(3, x3, TRUE)  # same variable as the branch
    with pytest.raises(OrderViolationError):
        store.make_decision(5, x3, TRUE)  # deeper than the branch
    with pytest.raises(OrderViolationError):
        store.make_decision(9, FALSE, TRUE)  # not in the order at all


def test_literal_cache(store):
    assert store.literal(4) == store.literal(4)
    assert store.literal(4, False) == store.make_decision(4, TRUE, FALSE)


def test_conj_construction_and_consing(store):
    a, b = store.literal(1), store.literal(2)
    u = store.make_conj([a, b])
    assert store.is_conj(u)
    assert store.kind(u) == KIND_CONJ
    assert store.children(u) == (a, b)
    assert store.vars_of(u) == frozenset({1, 2})
    assert store.make_conj([b, a]) == u  # children order is canonical
    assert store._minrank[u] == 0


def test_conj_collapses_constants(store):
    a, b = store.literal(1), store.literal(2)
    assert store.make_conj([]) == TRUE
    assert store.make_conj([a]) == a
    assert store.make_conj([a, TRUE, b]) == store.make_conj([a, b])
    assert store.make_conj([a, FALSE, b]) == FALSE


def test_conj_rejects_nested_and_overlapping(store):
    a, b, c = store.literal(1), store.literal(2), store.literal(3)
    u = store.make_conj([a, b])
    with pytest.raises(DecompositionError):
        store.make_conj([u, c])  # callers must flatten
    two_var = store.make_decision(1, store.literal(2), store.literal(2, False))
    with pytest.raises(DecompositionError):
        store.make_conj([two_var, b])  # shares variable 2


def test_parts_views(store):
    a, b = store.literal(1), store.literal(2)
    u = store.make_conj([a, b])
    assert store._parts(u) == (a, b)
    assert store._parts(a) == (a,)


def test_topological_children_first(store):
    a, b = store.literal(1), store.literal(5)
    u = store.make_conj([a, b])
    topo = store.topological(u)
    assert topo[-1] == u
    assert len(topo) == len(set(topo))
    pos = {v: k for k, v in enumerate(topo)}
    for v in topo:
        if store.is_decision(v):
            assert pos[store.lo(v)] < pos[v]
            assert pos[store.hi(v)] < pos[v]
        elif store.is_conj(v):
            for c in store.children(v):
                assert pos[c] < pos[v]


def test_counts_on_a_known_diagram(store):
    # x1 <-> x2 under natural order: root, both x2 literals, both leaves
    lo = store.literal(2, False)
    hi = store.literal(2, True)
    root = store.make_decision(1, lo, hi)
    assert store.vertex_count(root) == 5
    assert store.size(root) == 6  # three decision vertices, two edges each
    assert store.vertex_count(TRUE) == 1
    assert store.size(TRUE) == 0


def test_min_rank_tracks_topmost_variable(store):
    assert store._minrank[store.literal(3)] == 2
    assert store._minrank[TRUE] == 6  # leaf sentinel sits past the last rank


def test_clear_memo_keeps_vertices(store):
    a, b = store.literal(1), store.literal(2)
    u = store.conjoin(a, b, 1)
    store.clear_memo()
    assert store.conjoin(a, b, 1) == u

    def every_op(bound):
        u = compile_cnf(random_cnf(6, 10, seed=3), bound, store=store)[1]
        v = compile_cnf(random_cnf(6, 9, seed=4), bound, store=store)[1]
        down = store.convert_down(u, 0)
        out = [store.conjoin(u, v, bound), store.disjoin(u, v, bound),
               store.negate(u, bound), store.condition(u, {2: True, 5: False}, bound),
               down, store.decompose(down, bound)]
        return out, [store.model_count(w) for w in out]

    for bound in (1, INF):
        before = every_op(bound)
        store.clear_memo()
        assert every_op(bound) == before

    # the unique tables are the store's only index; between operations every
    # other table is a computed one that clear_memo drops, as an operation's
    # own tables end with it
    assert all(getattr(store, name) for name in _MEMO_TABLES)
    store.clear_memo()
    tables = {name for name, value in vars(store).items() if isinstance(value, dict)}
    assert tables == {"rank", "_unique", "_uconj", *_MEMO_TABLES}
    for name in _MEMO_TABLES:
        assert getattr(store, name) == ({FALSE: 0, TRUE: 1} if name == "_memo_count"
                                        else {}), name


def test_evaluate_deep_chain():
    # x1 AND ... AND x5000 as a raw decision chain, far deeper than the
    # recursion limit
    n = 5000
    store = DiagramStore(natural_order(n))
    u = TRUE
    for x in range(n, 0, -1):
        u = store.make_decision(x, FALSE, u)
    every = {x: True for x in range(1, n + 1)}
    assert store.evaluate(u, every)
    for x in (1, 2, 2500, n - 1, n):
        assert not store.evaluate(u, {**every, x: False})
    # a variable missing on the walked path is named, not a bare KeyError
    store, r = compile_cnf(random_cnf(6, 8, seed=1), 1)
    with pytest.raises(InputError, match="variable 3$"):
        store.evaluate(r, {1: True})


def test_condition_rejects_unknown_variable(store):
    u = store.conjoin(store.literal(1), store.literal(2), 1)
    with pytest.raises(OrderViolationError):
        store.condition(u, {99: True}, 1)


def test_permuted_order_keeps_ranks_and_names_apart():
    # ranks 5:0, 2:1, 9:2, 7:3, so no variable's rank is its name minus 1
    store = DiagramStore(VariableOrder([5, 2, 9, 7]))
    d = store.make_decision(2, store.literal(9, False), store.literal(7))
    assert store.vars_of(d) == frozenset({2, 9, 7})
    c = store.make_conj([store.literal(5), store.literal(7, False)])
    assert store.vars_of(c) == frozenset({5, 7})
    with pytest.raises(DecompositionError):
        store.make_conj([store.literal(9),
                         store.make_decision(2, store.literal(9), TRUE)])

    # x2 AND (x5 OR NOT x9) AND (x9 OR x7): x2 must hold; x9 true forces
    # x5 and frees x7, x9 false forces x7 and frees x5; 4 models
    cnf = CNF(9)
    for clause in ([2], [5, -9], [9, 7]):
        cnf.add_clause(clause)
    lit2, lit5 = store.literal(2), store.literal(5)
    for bound in (0, 1, INF):
        u = compile_cnf(cnf, bound, store=store)[1]
        assert store.vars_of(u) == frozenset({2, 5, 7, 9})
        assert store.model_count(u) == 4
        # under x9 = true only x5 AND x2 is left, over {5, 2}
        if bound == 0:
            expect = store.make_decision(5, FALSE, lit2)
        else:
            expect = store.make_conj([lit5, lit2])
        got = store.condition(u, {9: True}, bound)
        assert got == expect
        assert store.vars_of(got) == frozenset({2, 5})
        assert store.model_count(got) == 1
        # under x5 = false, x9 must be false and then x7 true: one model
        got = store.condition(u, {5: False}, bound)
        assert store.vars_of(got) == frozenset({2, 7, 9})
        assert store.model_count(got) == 1


def _settle_cases():
    # per pinned formula and bound: a second formula, three assignments to
    # 2 variables each and 3 variables to forget
    for seed in range(4):
        rng = random.Random(seed)
        asgs = [{x: rng.random() < 0.5 for x in rng.sample(range(1, 13), 2)}
                for _ in range(3)]
        gone = rng.sample(range(1, 13), 3)
        for bound in (0, 1, 2, INF):
            yield (random_cnf(12, 30, seed=seed), random_cnf(12, 30, seed=seed + 10),
                   bound, asgs, gone)


def test_operations_leave_only_their_results():
    # every vertex at or above the store's size before a transformation is
    # reachable from its result, and the roots made earlier keep their bytes
    for cnf, other, bound, asgs, gone in _settle_cases():
        store = DiagramStore(natural_order(12))
        made = []

        def run(op, *args):
            n0 = len(store._kind)
            r = op(*args)
            if op is compile_cnf:
                r = r[1]
            assert set(range(n0, len(store._kind))) <= set(store.topological(r)), op
            made.append((r, serialize(store, r, bound)))
            return r

        u = run(compile_cnf, cnf, bound, None, "bucket", store)
        v = run(compile_cnf, other, bound, None, "bucket", store)
        run(store.conjoin, u, v, bound)
        run(store.disjoin, u, v, bound)
        run(store.negate, u, bound)
        for asg in asgs:
            run(store.condition, u, asg, bound)
        run(store.forget, u, gone, bound)
        down = run(store.convert_down, u, 0)
        run(store.decompose, down, bound)
        for r, text in made:
            assert serialize(store, r, bound) == text


def test_model_counts_after_reused_ids():
    # writes on one store drop dead vertices, so later vertices take their
    # ids; _memo_count, the one id-keyed table that outlives an operation,
    # holds only ids below the store's size, and every count stays exact
    scope = range(1, 13)
    rng = random.Random(7)
    dropped = False
    for bound in (0, 1, INF):
        store = DiagramStore(natural_order(12))
        cnf = random_cnf(12, 24, seed=5)
        u = compile_cnf(cnf, bound, store=store)[1]
        for _ in range(6):
            clause = [x if rng.random() < 0.5 else -x for x in rng.sample(scope, 3)]
            cnf = CNF(12, list(cnf.clauses))
            cnf.add_clause(clause)
            u = store.conjoin(u, clause_diagram(store, clause), bound)
            asg = {x: rng.random() < 0.5 for x in rng.sample(scope, 2)}
            fixed = CNF(12, list(cnf.clauses))
            for x, b in asg.items():
                fixed.add_clause([x if b else -x])
            cond = store.condition(u, asg, bound)
            neg = store.negate(u, bound)
            want = oracle_count(cnf)
            for w, count in ((u, want), (neg, 2 ** 12 - want),
                             (cond, oracle_count(fixed) << len(asg))):
                assert store.model_count(w) << 12 - len(store.vars_of(w)) == count
            assert all(k < len(store._kind) for k in store._memo_count)
        dropped |= store.num_vertices > len(store._kind)
    assert dropped


def test_forget_inside_its_own_operation():
    # forget's walk calls disjoin, which runs inside forget's operation and
    # drops nothing of the walk; the result still equals the old route,
    # deepest variable first, each the disjunction of its two conditions
    for cnf, _, bound, _, gone in _settle_cases():
        store = DiagramStore(natural_order(12))
        u = compile_cnf(cnf, bound, store=store)[1]
        got = store.forget(u, gone, bound)
        want = u
        for x in sorted(gone, reverse=True):
            want = store.disjoin(store.condition(want, {x: False}, bound),
                                 store.condition(want, {x: True}, bound), bound)
        assert got == want


def test_an_operation_that_raises_drops_what_it_interned():
    # the tables go and the vertices the operation made are dropped, so the
    # next operation runs on its own and settles again
    store, u = compile_cnf(random_cnf(12, 30, seed=0), 1)
    v = compile_cnf(random_cnf(12, 30, seed=10), 1, store=store)[1]
    n0 = len(store._kind)

    def build():
        store.conjoin(u, v, 1)
        assert len(store._kind) > n0  # inside build, nothing is dropped yet
        raise InputError("stop")

    with pytest.raises(InputError, match="stop"):
        store._run(build)
    assert len(store._kind) == n0 and store._memo_and is None
    w = store.conjoin(u, v, 1)
    assert set(range(n0, len(store._kind))) <= set(store.topological(w))


def test_new_vertices_retain_few_bytes():
    # converting the 15 interleaved parity pairs from bound 1 to 0 interns
    # 98,299 decision vertices; each keeps its packed key, a byte of kind
    # and a slot per column, and most share their mask with a neighbour.
    # With a tuple key and a mask per vertex each retained about 236 bytes
    cnf = chain_family(15, 0)
    store, u = compile_cnf(cnf, 1, order=natural_order(30))
    n0 = len(store._kind)
    tracemalloc.start()
    try:
        r = store.convert_down(u, 0)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    new = len(store._kind) - n0
    assert new == 98299
    assert kept / new <= 175, kept / new
    # while it runs, the merge holds one int per key, its name, where a
    # triple of a tuple and two masks per key took about 195 bytes a vertex
    assert (peak - kept) / new <= 130, (peak - kept) / new
    assert r == compile_cnf(cnf, 0, store=store)[1]

    # decomposing the result back drops each vertex's rebuilt form once its
    # last parent has read it; holding all 98,303 took about 205 bytes each
    size = store.vertex_count(r)
    tracemalloc.start()
    try:
        back = store.decompose(r, INF)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / size <= 170, peak / size
    assert back == compile_cnf(cnf, INF, store=store)[1]


def test_merge_key_names():
    # a merge key's name is injective over triples whose value mask lies in
    # the rank mask, ids at least 2: every such triple of up to two factors
    # and three literal ranks gets a name of its own
    triples = []
    for factors in ((), (2,), (3,), (2, 3), (3, 2), (7, 2)):
        for mask in range(8):
            for values in range(8):
                if values & ~mask == 0:
                    triples.append((factors, mask, values))
    names = [_name(*t) for t in triples]
    assert len(set(names)) == len(triples)
    # a cube whose value bits run on where another key's factor field
    # begins: above the width field the bits line up, and the width keeps
    # the names apart
    cube, factored = ((), 0b11, 0b10), ((2,), 0b1, 0b1)
    assert _name(*cube) >> 32 == _name(*factored) >> 32
    assert _name(*cube) != _name(*factored)
    # a name is built from the triple's values alone, so equal triples
    # share it: lowest first the width, the masks, the factors' fields; a
    # key without literals has an empty width
    wide = 1 << 70000 | 1 << 65537
    w = wide.bit_length()
    assert _name((5, 9), wide, 1 << 65537) \
        == (((9 << 32 | 5) << w | 1 << 65537) << w | wide) << 32 | w
    assert _name((5, 9), 0, 0) == (9 << 32 | 5) << 32


def test_wide_order_keys_keep_ranks_apart():
    # 70,000 variables need a 17-bit rank field in a decision vertex's key;
    # an 8-variable formula renamed into ranks from 65,536 on compiles to
    # the small formula's function, and the compile drops vertices, so
    # _settle decodes keys at those ranks too
    n = 70000
    store = DiagramStore(natural_order(n))
    small = random_cnf(8, 20, seed=2)
    wide = {x: 65537 + 400 * (x - 1) for x in range(1, 9)}
    cnf = CNF(n)
    for cl in small.clauses:
        cnf.add_clause([wide[l.var] if l.positive else -wide[l.var] for l in cl])
    scope = sorted(wide.values())
    roots = {}
    for bound in (0, 1, INF):
        u = roots[bound] = compile_cnf(cnf, bound, store=store)[1]
        assert store.model_count(u) << len(scope) - len(store.vars_of(u)) \
            == oracle_count(small)
        assert validate(store, u, bound).ok
        for a in iter_assignments(range(1, 9)):
            assert store.evaluate(u, {wide[x]: b for x, b in a.items()}) \
                == oracle_eval(small, a)
    assert store.num_vertices > len(store._kind)
    # the conversions name merge keys by masks over those ranks
    assert store.convert_down(roots[INF], 1) == roots[1]
    assert store.convert_down(roots[1], 0) == roots[0]
    assert store.decompose(roots[0], INF) == roots[INF]

    # triples that differ in one field only, ranks 2**16 apart included
    a, b, c = store.literal(69001), store.literal(69002), store.literal(69003, False)
    base = store.make_decision(4, a, b)
    others = [store.make_decision(4 + 2 ** 16, a, b), store.make_decision(4, c, b),
              store.make_decision(4, a, c)]
    assert len({base, *others}) == 4
    for w, (x, lo, hi) in zip([base, *others], [(4, a, b), (4 + 2 ** 16, a, b),
                                                (4, c, b), (4, a, c)]):
        assert (store.var_of(w), store.lo(w), store.hi(w)) == (x, lo, hi)
        assert store.make_decision(x, lo, hi) == w


def test_ids_past_32_bits_raise(store):
    # a decision vertex's key holds each child id in 32 bits, so no id past
    # them is handed out, for either kind of vertex
    class Full(bytearray):
        def __len__(self):
            return 2 ** 32

    a, b = store.literal(1), store.literal(2)
    store._kind = Full(store._kind)
    with pytest.raises(ResourceLimitError):
        store.make_decision(3, FALSE, TRUE)
    with pytest.raises(ResourceLimitError):
        store.make_conj([a, b])
    assert store.literal(1) == a  # an interned vertex is still found
