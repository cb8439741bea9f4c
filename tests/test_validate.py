"""Canonicity validation: structural flags and the exact semantic pass."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcdag import FALSE, TRUE
from kcdag.compiler import compile_cnf
from kcdag.decompose import decompose
from kcdag.engine import DiagramStore
from kcdag.errors import InputError
from kcdag.families import random_cnf
from kcdag.ordering import natural_order
from kcdag.store import INF
from kcdag.validate import DEFAULT_SEMANTIC_LIMIT, validate

from conftest import finest_reference


def _xor(store, a, b):
    return store.make_decision(a, store.literal(b), store.literal(b, False))


def _inner(store, root):
    return [u for u in store.topological(root)
            if store.is_decision(u) or store.is_conj(u)]


def _raw_diagram(store, table, vs):
    """Bound-0 diagram of a table over the ascending variables vs, where
    bit k of the index is variable vs[k]."""
    if not vs:
        return TRUE if table & 1 else FALSE
    halves = [0, 0]
    for m in range(1 << len(vs)):
        if (table >> m) & 1:
            halves[m & 1] |= 1 << (m >> 1)
    lo, hi = (_raw_diagram(store, t, vs[1:]) for t in halves)
    return store.make_decision(vs[0], lo, hi)


def _vertex_table(store, u):
    """(table, n) of u over its own variables, by evaluation."""
    vs = sorted(store.vars_of(u))
    table = 0
    for m in range(1 << len(vs)):
        if store.evaluate(u, {v: (m >> k) & 1 for k, v in enumerate(vs)}):
            table |= 1 << m
    return table, len(vs)


def _blocks_rebuild(store, u, blocks):
    """Do the blocks validate cached for u conjoin back to u's function?
    A block's table has its deepest variable at index bit 0."""
    vs = sorted(store.vars_of(u), key=store.rank.__getitem__)
    for m in range(1 << len(vs)):
        value = {v: (m >> k) & 1 for k, v in enumerate(vs)}
        product = True
        for bmask, table in blocks:
            bvs = [v for v in vs if (bmask >> store.rank[v]) & 1]
            index = 0
            for v in bvs:
                index = (index << 1) | value[v]
            product = product and bool((table >> index) & 1)
        if product != store.evaluate(u, value):
            return False
    return True


def test_leaves_validate():
    store = DiagramStore(natural_order(2))
    for leaf in (TRUE, FALSE):
        report = validate(store, leaf, 0)
        assert report.ok
        assert report.vertex_count == 1
        assert report.decomposition_finest_ok is True


def test_compiled_diagrams_validate_at_their_bound():
    for seed in range(6):
        cnf = random_cnf(8, 16, seed=seed)
        store = DiagramStore(natural_order(8))
        caches: dict = {}
        for bound in (0, 1, 2, INF):
            root = compile_cnf(cnf, bound, store=store)[1]
            report = validate(store, root, bound, caches=caches)
            assert report.ok, report.summary()
            assert report.decomposition_finest_ok is True
            assert report.vertex_count == store.vertex_count(root)
            assert report.offending == {}
            assert report.exact_checked == len(_inner(store, root))
            assert report.skipped == 0


def test_undecomposed_conjunction_fails_the_finest_check():
    # x1 and x2 as a bare decision chain is canonical at bound 0 but hides
    # a factoring every positive bound must surface.
    store = DiagramStore(natural_order(2))
    chain = store.make_decision(1, FALSE, store.literal(2))
    assert validate(store, chain, 0).ok
    report = validate(store, chain, INF)
    assert report.ordered_ok and report.reduced_ok and report.bounded_ok
    assert report.decomposition_finest_ok is False
    assert not report.ok
    assert report.offending.get("finest") == chain


def test_shared_factor_under_a_decision_is_found():
    # (x2 xor x3) and (x1 xor x4) is a decision on x1 at bound 1, its two
    # 2-variable factors being too big to split off there.  Every vertex
    # below it is canonical at bound 2 too, but the root is not: its
    # branches share the x2-x3 factor.
    store = DiagramStore(natural_order(4))
    xor23 = _xor(store, 2, 3)
    lo = store.make_conj([xor23, store.literal(4)])
    hi = store.make_conj([xor23, store.literal(4, False)])
    root = store.make_decision(1, lo, hi)
    assert validate(store, root, 1).ok
    report = validate(store, root, 2)
    assert report.ordered_ok and report.reduced_ok and report.bounded_ok
    assert report.decomposition_finest_ok is False
    assert report.offending == {"finest": root}


def test_parity_is_finest_everywhere():
    store = DiagramStore(natural_order(3))
    xor23 = _xor(store, 2, 3)
    xnor23 = store.make_decision(2, store.literal(3, False), store.literal(3))
    root = store.make_decision(1, xor23, xnor23)
    for bound in (0, 1, 2, INF):
        assert validate(store, root, bound).ok


def test_bound_violation_is_reported():
    store = DiagramStore(natural_order(4))
    conj = store.conjoin(_xor(store, 1, 2), _xor(store, 3, 4), 2)
    assert store.is_conj(conj)
    assert validate(store, conj, 2).ok
    assert validate(store, conj, INF).ok
    report = validate(store, conj, 1)
    assert report.bounded_ok is False
    assert report.decomposition_finest_ok is False  # not separately checked
    assert "bound" in report.offending
    assert not report.ok


def test_semantic_limit_gates_the_exact_pass():
    cnf = random_cnf(8, 14, seed=3)
    store, root = compile_cnf(cnf, 1, order=natural_order(8))
    assert DEFAULT_SEMANTIC_LIMIT >= 8
    report = validate(store, root, 1, semantic_limit=0)
    assert report.decomposition_finest_ok == "skipped"
    assert report.ok  # skipped is not a failure
    assert report.exact_checked == 0
    assert report.skipped == len(_inner(store, root))
    literal = store.literal(1)
    report = validate(store, literal, 1, semantic_limit=0)
    assert (report.exact_checked, report.skipped) == (0, 1)
    report = validate(store, literal, 1, semantic_limit=1)
    assert (report.exact_checked, report.skipped) == (1, 0)
    assert report.decomposition_finest_ok is True
    # a negative limit would skip every vertex and report ok
    with pytest.raises(InputError):
        validate(store, root, 1, semantic_limit=-1)


def test_summary_mentions_every_flag():
    store = DiagramStore(natural_order(2))
    text = validate(store, store.literal(1), 0).summary()
    for part in ("ordered=True", "reduced=True", "bounded=True", "finest=True"):
        assert part in text


@st.composite
def _tables(draw):
    """(n, table, groups): a uniform table with groups None, or a
    conjunction of random functions on a random partition of the
    variables, so that factorings are common; groups then lists each
    function as (members, part), bit j of part's index being members[j]."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return n, draw(st.integers(0, (1 << (1 << n)) - 1)), None
    group = [draw(st.integers(0, 2)) for _ in range(n)]
    table = (1 << (1 << n)) - 1
    groups = []
    for g in set(group):
        members = [k for k in range(n) if group[k] == g]
        part = draw(st.integers(0, (1 << (1 << len(members))) - 1))
        groups.append((members, part))
        for m in range(1 << n):
            sub = sum(((m >> k) & 1) << j for j, k in enumerate(members))
            if not (part >> sub) & 1:
                table &= ~(1 << m)
    return n, table, groups


@settings(max_examples=150, deadline=None)
@given(_tables())
def test_finest_matches_the_definition(case):
    # every table's raw bound-0 diagram and its canonical forms, each
    # validated at every bound: where the structure passes, the finest
    # verdict is the exhaustive factor-side test of every decision vertex.
    # A partition's table also gets a raw conjunction of its groups' raw
    # diagrams, canonical at no bound in general, which must decompose as
    # the plain raw diagram does
    n, table, groups = case
    store = DiagramStore(natural_order(n))
    raw = _raw_diagram(store, table, list(range(1, n + 1)))
    made = {0: raw}
    made.update((b, decompose(store, raw, b)) for b in (1, 2, INF))
    if groups is not None:
        conj = store.make_conj([
            _raw_diagram(store, part, [k + 1 for k in members])
            for members, part in groups])
        for b in (1, 2, INF):
            assert decompose(store, conj, b) == made[b]
        made[None] = conj
    tables: dict = {}
    blocks: dict = {}
    for made_at, root in made.items():
        for bound in (0, 1, 2, INF):
            report = validate(store, root, bound, caches=blocks)
            if bound == made_at:
                assert report.ok, report.summary()
            if not (report.ordered_ok and report.reduced_ok
                    and report.bounded_ok):
                continue
            assert report.exact_checked == len(_inner(store, root))
            assert report.skipped == 0
            want = True
            for u in _inner(store, root):
                if store.is_decision(u):
                    if u not in tables:
                        tables[u] = _vertex_table(store, u)
                    want = want and finest_reference(*tables[u], bound)
            assert report.decomposition_finest_ok is want, report.summary()
    for u, bs in blocks.items():
        assert _blocks_rebuild(store, u, bs)
