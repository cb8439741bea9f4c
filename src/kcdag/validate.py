"""Structural and semantic validation of canonical diagrams.

The structural pass is linear and always runs: ordering, reduction,
uniqueness, flat/disjoint/sorted conjunctions, and the bound on oversized
children.  The semantic pass proves canonicity outright for vertices of at
most `semantic_limit` variables: it computes each vertex's finest
disjoint-support partition from its cofactors' partitions, on truth tables
held as ints, and a decision vertex must expose no in-bound block.  Larger
vertices are skipped, and the report counts both kinds.

Both passes read only the vertices' fields and the store's ranks; no engine
operation is called, so a bug in the engine cannot hide itself here.
"""

from __future__ import annotations

from functools import cache
from typing import Union

from .engine import FALSE, KIND_CONJ, KIND_DECISION, TRUE, DiagramStore
from .errors import InputError
from .store import Bound, parse_bound

# exact-check gate on a vertex's variable count
DEFAULT_SEMANTIC_LIMIT = 12


class ValidationReport:
    __slots__ = ("bound", "root", "vertex_count", "ordered_ok", "reduced_ok",
                 "bounded_ok", "decomposition_finest_ok", "exact_checked",
                 "skipped", "offending")

    def __init__(self, bound: Bound, root: int, vertex_count: int,
                 ordered_ok: bool = True, reduced_ok: bool = True,
                 bounded_ok: bool = True,
                 decomposition_finest_ok: Union[bool, str] = True,
                 exact_checked: int = 0, skipped: int = 0,
                 offending: dict | None = None):
        self.bound = bound
        self.root = root
        self.vertex_count = vertex_count
        self.ordered_ok = ordered_ok
        self.reduced_ok = reduced_ok
        self.bounded_ok = bounded_ok
        # True / False / "skipped"
        self.decomposition_finest_ok = decomposition_finest_ok
        # decision/conjunction vertices within the limit, and above it
        self.exact_checked = exact_checked
        self.skipped = skipped
        self.offending = {} if offending is None else offending

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not ValidationReport:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._fields()))
        return f"ValidationReport({fields})"

    @property
    def ok(self) -> bool:
        return (self.ordered_ok and self.reduced_ok and self.bounded_ok
                and self.decomposition_finest_ok is not False)

    def summary(self) -> str:
        flags = [
            f"ordered={self.ordered_ok}",
            f"reduced={self.reduced_ok}",
            f"bounded={self.bounded_ok}",
            f"finest={self.decomposition_finest_ok}",
        ]
        return f"root {self.root} @bound {self.bound}: " + " ".join(flags)


# A block is (rank mask, table).  The table is an int of 2^n bits over the
# block's n variables: bit m is the value under the assignment whose bit j
# sets the variable j places from the deepest one, so the top variable is
# the index's high bit and its cofactors are the table's two halves.

@cache
def _runs(width: int, run: int) -> int:
    """`width` bits of `run` ones then `run` zeros, repeating from bit 0."""
    return ((1 << width) - 1) // ((1 << 2 * run) - 1) * ((1 << run) - 1)


def _insert(t: int, n: int, p: int) -> int:
    """Table over n variables -> n+1, with a don't-care at index bit p."""
    w = 1 << p
    # spread the 2^(n-p) chunks of w bits to stride 2w, halving the
    # shift each step, then copy every chunk into the gap above it
    for k in range(n - p - 1, -1, -1):
        s = w << k
        t = (t | (t << s)) & _runs(2 << n, s)
    return t | (t << w)


def _embed(t: int, bmask: int, mask: int) -> int:
    """A block's table re-expressed over the larger variable set `mask`."""
    n = bmask.bit_count()
    missing = mask & ~bmask
    while missing:
        # deepest first: every variable below has its index bit already
        b = missing.bit_length() - 1
        t = _insert(t, n, (mask >> (b + 1)).bit_count())
        n += 1
        missing ^= 1 << b
    return t


def _conjoin_into(blocks, mask: int) -> int:
    half = (1 << (1 << mask.bit_count())) - 1
    for bmask, t in blocks:
        half &= _embed(t, bmask, mask)
    return half


def _shannon_blocks(xbit: int, lo_blocks: tuple, hi_blocks: tuple) -> tuple:
    """Finest partition of <x, lo, hi> from its non-false branches' ones.

    Blocks common to both branches factor out; x and everything else form
    one indecomposable block (a factor not containing x would be common).
    If every block is common, x is inessential and the function is lo's.
    """
    common = set(lo_blocks).intersection(hi_blocks)
    lo_rest = [b for b in lo_blocks if b not in common]
    hi_rest = [b for b in hi_blocks if b not in common]
    if not lo_rest and not hi_rest:
        return lo_blocks
    rest = 0
    for bmask, _ in lo_rest + hi_rest:
        rest |= bmask
    table = (_conjoin_into(lo_rest, rest)
             | _conjoin_into(hi_rest, rest) << (1 << rest.bit_count()))
    return tuple(b for b in lo_blocks if b in common) + ((xbit | rest, table),)


def validate(store: DiagramStore, root: int, bound: Bound,
             semantic_limit: int = DEFAULT_SEMANTIC_LIMIT,
             caches: dict | None = None) -> ValidationReport:
    """Check that the diagram rooted at `root` is canonical for `bound`.

    `caches` maps vertex -> finest blocks.  Blocks do not depend on the
    bound, so one dict may be shared across calls on the same store.
    A negative `semantic_limit` raises InputError: it would skip every
    vertex and report the diagram as ok.
    """
    if semantic_limit < 0:
        raise InputError(f"semantic limit must be >= 0, got {semantic_limit}")
    i = parse_bound(bound)
    topo = store.topological(root)
    report = ValidationReport(bound=i, root=root, vertex_count=len(topo))
    rank = store.rank
    masks: dict = {}
    seen_keys: dict = {}

    for u in topo:
        k = store.kind(u)
        if k == KIND_DECISION:
            x = store.var_of(u)
            lo, hi = store.lo(u), store.hi(u)
            below = masks[lo] | masks[hi]
            r = rank.get(x)
            if r is None or below & ((2 << r) - 1):
                report.ordered_ok = False
                report.offending.setdefault("ordered", u)
            masks[u] = below if r is None else below | (1 << r)
            if lo == hi:
                report.reduced_ok = False
                report.offending.setdefault("reduced", u)
            key = (KIND_DECISION, x, lo, hi)
        elif k == KIND_CONJ:
            kids = store.children(u)
            if len(kids) < 2:
                report.bounded_ok = False
                report.offending.setdefault("conj-arity", u)
            union = nbig = last_low = 0
            for c in kids:
                if store.kind(c) != KIND_DECISION:
                    report.bounded_ok = False
                    report.offending.setdefault("conj-child-kind", u)
                cm = masks[c]
                if union & cm:
                    report.bounded_ok = False
                    report.offending.setdefault("conj-overlap", u)
                union |= cm
                nbig += cm.bit_count() > i
                # a child's lowest rank bit is its top variable
                if (cm & -cm) <= last_low:
                    report.bounded_ok = False
                    report.offending.setdefault("conj-child-order", u)
                last_low = cm & -cm
            if nbig > 1:
                report.bounded_ok = False
                report.offending.setdefault("bound", u)
            masks[u] = union
            key = (KIND_CONJ, kids)
        else:
            masks[u] = 0
            continue
        if seen_keys.setdefault(key, u) != u:
            report.reduced_ok = False
            report.offending.setdefault("duplicate", u)

    if not (report.ordered_ok and report.reduced_ok and report.bounded_ok):
        report.decomposition_finest_ok = False
        return report

    blocks_of = caches if caches is not None else {}
    blocks_of[TRUE] = ()
    for u in topo:
        k = store.kind(u)
        if k != KIND_DECISION and k != KIND_CONJ:
            continue
        mask = masks[u]
        if mask.bit_count() > semantic_limit:
            report.skipped += 1
            continue
        report.exact_checked += 1
        if k == KIND_CONJ:
            # No verdict of its own: the structural pass gave it decision
            # children on disjoint variables with at most one above i, and
            # each child's own verdict says a child of at most i variables
            # is one block and the big child merges only blocks above i.
            # So the children are the finest in-bound factoring.
            if u not in blocks_of:
                blocks_of[u] = sum(
                    (blocks_of[c] for c in store.children(u)), ())
            continue
        blocks = blocks_of.get(u)
        if blocks is None:
            lo, hi = store.lo(u), store.hi(u)
            xbit = 1 << rank[store.var_of(u)]
            if lo == FALSE:
                blocks = ((xbit, 2),) + blocks_of[hi]
            elif hi == FALSE:
                blocks = ((xbit, 1),) + blocks_of[lo]
            else:
                blocks = _shannon_blocks(xbit, blocks_of[lo], blocks_of[hi])
            blocks_of[u] = blocks
        essential = 0
        for bmask, _ in blocks:
            essential |= bmask
        # canonical at i: every variable matters, and the vertex is one
        # block or its blocks are all too big to split off at this bound
        if essential != mask or (len(blocks) > 1 and any(
                bmask.bit_count() <= i for bmask, _ in blocks)):
            report.decomposition_finest_ok = False
            report.offending.setdefault("finest", u)
    if report.skipped and report.decomposition_finest_ok is True:
        report.decomposition_finest_ok = "skipped"
    return report
