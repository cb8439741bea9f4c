"""Diagram file format and DOT export."""

import hashlib

import pytest

from kcdag import FALSE, TRUE
from kcdag.compiler import compile_cnf, compile_via
from kcdag.diagram_io import deserialize, export_dot, serialize
from kcdag.engine import DiagramStore
from kcdag.errors import SerializationError
from kcdag.families import chain_family, random_cnf
from kcdag.ops import forget
from kcdag.ordering import natural_order
from kcdag.store import INF


def biconditional_store():
    store = DiagramStore(natural_order(2))
    root = store.make_decision(1, store.literal(2, False), store.literal(2))
    return store, root


GOLDEN = """kdag 1 2 5 inf
order 1 2
T
F
D 2 0 1
D 2 1 0
D 1 2 3
"""


def test_serialize_golden_text():
    store, root = biconditional_store()
    assert serialize(store, root, INF) == GOLDEN


def test_round_trip_same_store():
    store, root = biconditional_store()
    text = serialize(store, root, 2)
    store2, root2, bound = deserialize(text, store=store)
    assert store2 is store
    assert root2 == root
    assert bound == 2


def test_round_trip_fresh_store():
    store, root = biconditional_store()
    text = serialize(store, root, INF)
    store2, root2, bound = deserialize(text)
    assert bound == INF
    assert store2.order.vars == (1, 2)
    assert serialize(store2, root2, INF) == text


def test_round_trip_conjunction_and_leaves():
    store = DiagramStore(natural_order(3))
    u = store.make_conj([store.literal(1), store.literal(3, False)])
    for root in (u, TRUE, FALSE):
        text = serialize(store, root, 1)
        _, back, _ = deserialize(text, store=store)
        assert back == root


def test_deserialize_rejects_order_mismatch():
    store, root = biconditional_store()
    text = serialize(store, root, 0)
    other = DiagramStore(natural_order(3))
    with pytest.raises(SerializationError):
        deserialize(text, store=other)


@pytest.mark.parametrize("text", [
    "",                                           # empty
    "kdag 1 2 1 0\n",                             # no order line
    "kdag 2 2 3 0\norder 1 2\nF\nT\nD 1 0 1\n",   # unknown version
    "bogus 1 2 3 0\norder 1 2\nF\nT\nD 1 0 1\n",  # bad magic
    "kdag 1 2 3 x\norder 1 2\nF\nT\nD 1 0 1\n",   # bad bound
    "kdag 1 2 2 0\norder 1 2\nF\nT\nD 1 0 1\n",   # vertex count mismatch
    "kdag 1 1 3 0\norder 1 2\nF\nT\nD 1 0 1\n",   # order length mismatch
    "kdag 1 2 3 0\norder 1 2\nF\nT\nD 1 0 5\n",   # forward reference
    "kdag 1 2 3 0\norder 1 2\nF\nT\nQ 1 0 1\n",   # unknown tag
    "kdag 1 2 4 0\norder 1 2\nF\nT\nD 2 0 1\nC 1 2\n",   # conj arity < 2
    "kdag 1 2 3 0\norder 1 2\nF\nT\nD 9 0 1\n",   # variable outside order
])
def test_deserialize_rejects_malformed(text):
    with pytest.raises(SerializationError):
        deserialize(text)


def test_export_dot_shape():
    store, root = biconditional_store()
    dot = export_dot(store, root)
    assert dot.startswith("digraph kdag {")
    assert dot.rstrip().endswith("}")
    assert dot.count('label="x2"') == 2
    assert dot.count('label="x1"') == 1
    assert "style=dashed" in dot
    assert export_dot(store, root) == dot


CANONICAL_DIGEST = "b97167fff6d95b980210cfc1a1f55241dfde10615cd61577f4eb3b8e2d3e111f"


def test_canonical_output_digest():
    # one sha256 over the serialized results of every route and operation
    # on a fixed corpus; any change to canonical output changes it
    digest = hashlib.sha256()
    texts = 0

    def add(store, root, bound):
        nonlocal texts
        digest.update(serialize(store, root, bound).encode())
        texts += 1

    for seed in range(8):
        cnf = random_cnf(14, 40, seed=seed)
        for bound in (0, 1, 2, INF):
            store, root = compile_cnf(cnf, bound)
            add(store, root, bound)
            down = store.convert_down(root, 0)
            add(store, down, 0)
            add(store, store.decompose(down, bound), bound)
            neg = store.negate(root, bound)
            add(store, neg, bound)
            cnd = store.condition(root, {1: True, 5: False, 9: True}, bound)
            add(store, cnd, bound)
            add(store, forget(store, root, [2, 3, 7], bound), bound)
            add(store, store.disjoin(cnd, neg, bound), bound)
    for n in range(2, 6):
        cnf = chain_family(n, 1)
        for bound in (0, 1, INF):
            add(*compile_cnf(cnf, bound), bound)
            add(*compile_via(cnf, bound), bound)
    assert texts == 248
    assert digest.hexdigest() == CANONICAL_DIGEST
