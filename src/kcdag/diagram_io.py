"""Diagram file format and Graphviz export.

Text format (kdag version 1):

    kdag 1 <num_vars> <num_vertices> <bound>
    order <v1> <v2> ... <vn>
    F                     false leaf
    T                     true leaf
    D <var> <lo> <hi>     decision vertex; lo/hi are 0-based line indices
    C <k> <c1> ... <ck>   conjunction vertex with k children

Vertices are listed children-first, each exactly once, root last; indices
refer to earlier lines only.  The bound is an integer or "inf" and records
what the diagram was compiled or converted to.
"""

from __future__ import annotations

from .engine import (
    FALSE, KIND_CONJ, KIND_DECISION, KIND_FALSE, KIND_TRUE, TRUE, DiagramStore)
from .errors import KcdagError, SerializationError
from .ordering import VariableOrder
from .store import Bound, format_bound, parse_bound

FORMAT_VERSION = 1


def serialize(store: DiagramStore, root: int, bound: Bound) -> str:
    order = store.order
    topo = store.topological(root)
    index = {}
    lines = []
    for u in topo:
        index[u] = len(index)
        k = store.kind(u)
        if k == KIND_FALSE:
            lines.append("F")
        elif k == KIND_TRUE:
            lines.append("T")
        elif k == KIND_DECISION:
            lines.append(
                f"D {store.var_of(u)} {index[store.lo(u)]} {index[store.hi(u)]}")
        else:
            kids = store.children(u)
            lines.append("C " + str(len(kids)) + " "
                         + " ".join(str(index[c]) for c in kids))
    header = (f"kdag {FORMAT_VERSION} {len(order.vars)} {len(lines)} "
              f"{format_bound(parse_bound(bound))}")
    order_line = "order " + " ".join(str(v) for v in order.vars)
    return "\n".join([header, order_line] + lines) + "\n"


def deserialize(text: str, store: DiagramStore | None = None):
    """Parse a kdag file.  Returns (store, root, bound).

    With an explicit store, the file's order must match the store's and the
    vertices are interned there; otherwise a fresh store is created.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise SerializationError("truncated file")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "kdag":
        raise SerializationError(f"bad header: {lines[0]!r}")
    try:
        version = int(head[1])
        num_vars = int(head[2])
        num_vertices = int(head[3])
    except ValueError as exc:
        raise SerializationError(f"bad header: {lines[0]!r}") from exc
    if version != FORMAT_VERSION:
        raise SerializationError(f"unsupported format version {version}")
    try:
        bound = parse_bound(head[4])
    except ValueError as exc:
        raise SerializationError(str(exc)) from exc

    order_parts = lines[1].split()
    if not order_parts or order_parts[0] != "order":
        raise SerializationError("missing order line")
    try:
        order_vars = [int(t) for t in order_parts[1:]]
    except ValueError as exc:
        raise SerializationError("bad order line") from exc
    if len(order_vars) != num_vars:
        raise SerializationError(
            f"header declares {num_vars} variables, order line has {len(order_vars)}")

    if store is None:
        try:
            store = DiagramStore(VariableOrder(order_vars))
        except ValueError as exc:
            raise SerializationError(str(exc)) from exc
    elif tuple(store.order.vars) != tuple(order_vars):
        raise SerializationError("file order does not match the store's order")

    body = lines[2:]
    if len(body) != num_vertices:
        raise SerializationError(
            f"header declares {num_vertices} vertices, found {len(body)}")
    if not body:
        raise SerializationError("no vertices")

    ids: list[int] = []

    def ref(token: str) -> int:
        try:
            k = int(token)
        except ValueError as exc:
            raise SerializationError(f"bad vertex reference {token!r}") from exc
        if not 0 <= k < len(ids):
            raise SerializationError(
                f"vertex reference {k} is not an earlier line")
        return ids[k]

    for ln in body:
        parts = ln.split()
        tag = parts[0]
        try:
            if tag == "F" and len(parts) == 1:
                ids.append(FALSE)
            elif tag == "T" and len(parts) == 1:
                ids.append(TRUE)
            elif tag == "D" and len(parts) == 4:
                var = int(parts[1])
                ids.append(store.make_decision(var, ref(parts[2]), ref(parts[3])))
            elif tag == "C" and len(parts) >= 2:
                k = int(parts[1])
                if len(parts) != 2 + k or k < 2:
                    raise SerializationError(f"bad conjunction line: {ln!r}")
                ids.append(store.make_conj([ref(t) for t in parts[2:]]))
            else:
                raise SerializationError(f"bad vertex line: {ln!r}")
        except SerializationError:
            raise
        except (KcdagError, ValueError) as exc:
            raise SerializationError(f"invalid vertex {ln!r}: {exc}") from exc
    return store, ids[-1], bound


def export_dot(store: DiagramStore, root: int) -> str:
    """Graphviz source: dashed edge to the low branch, solid to the high."""
    topo = store.topological(root)
    index = {u: k for k, u in enumerate(topo)}
    out = ["digraph kdag {"]
    for u in topo:
        k = store.kind(u)
        name = f"n{index[u]}"
        if k == KIND_FALSE:
            out.append(f'  {name} [shape=box, label="F"];')
        elif k == KIND_TRUE:
            out.append(f'  {name} [shape=box, label="T"];')
        elif k == KIND_DECISION:
            out.append(f'  {name} [shape=circle, label="x{store.var_of(u)}"];')
            out.append(f"  {name} -> n{index[store.lo(u)]} [style=dashed];")
            out.append(f"  {name} -> n{index[store.hi(u)]};")
        else:
            out.append(f'  {name} [shape=box, label="AND"];')
            for c in store.children(u):
                out.append(f"  {name} -> n{index[c]};")
    out.append("}")
    return "\n".join(out) + "\n"
