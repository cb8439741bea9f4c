"""Canonicity validation: structural flags and the exact semantic pass."""

from kcdag import FALSE, TRUE
from kcdag.compiler import compile_cnf
from kcdag.engine import DiagramStore
from kcdag.families import random_cnf
from kcdag.ordering import natural_order
from kcdag.store import INF
from kcdag.validate import DEFAULT_SEMANTIC_LIMIT, validate


def _xor(store, a, b):
    return store.make_decision(a, store.literal(b), store.literal(b, False))


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


def test_summary_mentions_every_flag():
    store = DiagramStore(natural_order(2))
    text = validate(store, store.literal(1), 0).summary()
    for part in ("ordered=True", "reduced=True", "bounded=True", "finest=True"):
        assert part in text
