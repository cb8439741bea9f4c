"""Hash-consed decision diagram store with bounded conjunctive decomposition.

Stdlib only.  Vertices are ints local to a store.  Kind codes: 0 false leaf,
1 true leaf, 2 decision vertex, 3 conjunction vertex.  The leaves are
preinterned as ids 0 and 1 in every store.  A decision vertex <x, lo, hi>
branches on x (lo taken when x is false); a conjunction vertex is the AND of
two or more pairwise variable-disjoint decision vertices.

Each vertex's variable set is kept as one int, a bitmask over ranks: bit r is
set when order.vars[r] occurs in the vertex.  Size tests are popcounts,
disjointness is an AND, union an OR.  vars_of converts a mask back to the
set of variable names at the API boundary.

The bound i of a diagram caps the small factors a conjunction vertex may list
separately: in canonical form every conjunction vertex's children are exactly
the finest factors of its function with at most i variables plus at most one
remainder holding everything larger, and every decision vertex admits no such
factoring.  make_decision / make_conj build raw (ordered, reduced, flat)
vertices without canonicalizing; the canonicalizing constructors are the
internal _decision / _conj_parts, which is what decompose, convert_down and
the apply-style operations are built from.

A conjunction vertex is interned only when it is kept.  The rebuild walks of
decompose, condition and forget and the Shannon walk of negate carry a
conjunction as pending, the triple (factors, mask, values): its literals as
a cube (Bryant's restriction), a rank mask and the mask of the positive ones,
and its other factors in a tuple in the order of a conjunction vertex's
children, as _merge_bigs's keys do.  A walk interns it, literals too, only as
its result or as a branch of a decision vertex it builds.  The decision rules
live in _decision alone: its pending flag lets a branch be pending and
returns a conjunction result as pending; the apply and _merge_bigs leave it
clear.

Every public transformation is one operation of its store (DiagramStore._run).
Its computed tables, which hold results so that a repeated pair returns at
once, live for that operation alone.  When it ends, every vertex it interned
that its result does not reach is dropped, so an operation leaves only its
result's vertices.  Ids are dense and a child's id is below its parent's, so
dropping them takes the store's newest ids, and no older id changes.  While
it runs, an entry costs about a word where it can, as in BDD packages'
computed tables (Brace, Rudell and Bryant, DAC 1990): _merge_bigs, the merge
that convert_down and the conjoin share, keys its table by one int per key,
the key's name (see _name), not by the triple; and decompose, which rebuilds
every vertex of its input, drops a vertex's rebuilt form as soon as the last
of its parents has read it.

Every walk keeps its frames on an explicit stack, so no operation depends on
Python's recursion limit, however deep the diagram.

The vertex table is lean (Brace, Rudell and Bryant, DAC 1990).  A decision
vertex is keyed by one int, (lo << 32 | hi) << R | rank, where R is
len(order.vars).bit_length(): ids are capped at 32 bits, and allocating one
past that raises ResourceLimitError, so two triples never share a key.  Kind
codes are bytes; as a bytearray reads slower than a list, the hot walks tell
a conjunction by its _kids entry.  No column holds a decision vertex's
variable: its rank is its earliest rank, so the internal constructors and
walks take ranks.  A decision vertex reuses the mask of the last one
interned at its rank when the values are equal, as vertices at one rank
often share their support.
"""

from functools import wraps

from .errors import (
    DecompositionError,
    InputError,
    OrderViolationError,
    ResourceLimitError,
)
from .store import INF

FALSE = 0
TRUE = 1

KIND_FALSE = 0
KIND_TRUE = 1
KIND_DECISION = 2
KIND_CONJ = 3

# the computed tables that outlive an operation: clear_memo empties them at
# any time, as nothing else refers to their entries and every result is
# refilled on demand.  model_count runs between operations only, so no entry
# names an id that an operation drops or reuses.  The tables of an
# operation (see DiagramStore._run) are flat: it works at one bound.
_MEMO_TABLES = (
    "_memo_count",      # model_count: u -> its model count
)


def _operation(method):
    """The public transformation method, run as one operation of its store
    (see DiagramStore._run)."""
    @wraps(method)
    def run(self, *args):
        return self._run(method, self, *args)
    return run


def _walk(root, memo, step):
    """The result for root of a memoised walk, run on an explicit stack.

    step(key) is a generator for one key that memo, the walk's table, lacks:
    it yields the keys whose results it needs, reads them from memo once
    resumed, and stores its own result there.  Trivial keys such as leaves
    are in memo from the start or never yielded.  A step may start a walk
    of another kind (merging oversized factors) but never of its own.
    """
    if root not in memo:
        frames = [step(root)]
        while frames:
            # next() ends a returning step quietly, with no StopIteration
            key = next(frames[-1], None)
            if key is None:
                frames.pop()
            elif key not in memo:
                frames.append(step(key))
    return memo[root]


def _name(factors, mask, values):
    """The int that names a merge key (factors, mask, values).

    Lowest bits first: the rank mask's width w in 32 bits, the rank mask and
    the value mask in w bits each, then the factor ids in 32-bit fields,
    the first factor lowest.  Ids are below 2**32 and at least 2, so the
    number of fields follows from the bit length and two keys share a name
    only when they are equal.  A key with no literals costs no mask width.
    """
    if len(factors) == 1:
        n = factors[0]
    else:
        n = 0
        for p in reversed(factors):
            n = n << 32 | p
    if not mask:
        return n << 32
    w = mask.bit_length()
    return ((n << w | values) << w | mask) << 32 | w


class DiagramStore:
    """All vertices live in one store and are unique up to structure.

    `order` must expose .vars (tuple of variables, root end first) and .rank
    (dict variable -> position).  Vertices from different stores must never
    be mixed; nothing detects it.

    The store is its vertices and their index: one column per vertex field,
    indexed by vertex id (kinds in a bytearray, the rest in lists; a
    decision vertex's variable is order.vars[_minrank[u]]); the unique
    tables _unique, the packed int key of (lo, hi, rank) -> id, and _uconj,
    children -> id, which make every vertex unique; and rank.
    Canonicity makes these the only index needed.  Each unique table lists
    its keys in id order, as a vertex is interned after its children.
    Everything else is a computed table: those named in _MEMO_TABLES, which
    clear_memo may drop at any time without changing any later result or
    vertex id, and an operation's own, which live for the operation.  Of
    the vertices an operation interns, only those its result reaches stay.
    """

    def __init__(self, order):
        self.order = order
        self.rank = dict(order.rank)
        # rank sentinel for leaves: past every real variable
        self._leaf_rank = len(order.vars)
        self._kind = bytearray((KIND_FALSE, KIND_TRUE))
        self._lo = [0, 0]
        self._hi = [0, 0]
        self._kids = [None, None]
        self._vs = [0, 0]
        self._minrank = [self._leaf_rank, self._leaf_rank]
        # the rank field's width in a decision vertex's key, and per rank
        # the mask of the last decision vertex interned there, to share
        self._rbits = self._leaf_rank.bit_length()
        self._masks = [0] * self._leaf_rank
        self._unique = {}
        self._uconj = {}
        # vertices interned and then dropped by operations
        self._dropped = 0
        # an operation's computed tables, None between operations:
        # conjoin and disjoin map (u, v), u < v, to their result; the merge
        # maps a triple of factors to their AND; the literal peel maps
        # (rank, b) to {u: u with that variable fixed to b}
        self._memo_and = self._memo_or = None
        self._memo_merge = self._memo_restrict = None
        self.clear_memo()

    # ------------------------------------------------------------------
    # raw constructors

    def make_decision(self, var, lo, hi):
        """Ordered, reduced decision vertex; no decomposition is attempted."""
        r = self.rank.get(var)
        if r is None:
            raise OrderViolationError(f"variable {var} is not in this store's order")
        if r >= self._minrank[lo] or r >= self._minrank[hi]:
            raise OrderViolationError(
                f"variable {var} does not precede both branches")
        return self._node(r, lo, hi)

    def _node(self, x, lo, hi):
        # the reduced decision vertex on rank x, which precedes both branches
        if lo == hi:
            return lo
        key = (lo << 32 | hi) << self._rbits | x
        u = self._unique.get(key)
        if u is not None:
            return u
        u = len(self._kind)
        if u >> 32:
            raise ResourceLimitError("a store holds at most 2**32 vertices")
        self._kind.append(KIND_DECISION)
        self._lo.append(lo)
        self._hi.append(hi)
        self._kids.append(None)
        vs = self._vs[lo] | self._vs[hi] | 1 << x
        if self._masks[x] != vs:
            self._masks[x] = vs
        self._vs.append(self._masks[x])
        self._minrank.append(x)
        self._unique[key] = u
        return u

    def make_conj(self, children):
        """Flat conjunction vertex over variable-disjoint children.

        Constant children collapse (true dropped, false absorbs); a single
        survivor is returned as-is.  Children that are themselves
        conjunctions are rejected: callers flatten first.
        """
        kids = []
        for c in children:
            k = self._kind[c]
            if k == KIND_FALSE:
                return FALSE
            if k == KIND_TRUE:
                continue
            if k == KIND_CONJ:
                raise DecompositionError(
                    "conjunction children must be decision vertices")
            kids.append(c)
        if not kids:
            return TRUE
        if len(kids) == 1:
            return kids[0]
        return self._intern_conj(kids)

    def _intern_conj(self, kids):
        # kids: two or more decision vertices, constants already collapsed
        if len(kids) == 2:
            if self._minrank[kids[0]] > self._minrank[kids[1]]:
                kids.reverse()
        else:
            kids.sort(key=self._minrank.__getitem__)
        key = tuple(kids)
        u = self._uconj.get(key)
        if u is not None:
            return u
        union = 0
        vs = self._vs
        for c in kids:
            if union & vs[c]:
                raise DecompositionError("conjunction children share variables")
            union |= vs[c]
        u = len(self._kind)
        if u >> 32:
            raise ResourceLimitError("a store holds at most 2**32 vertices")
        self._kind.append(KIND_CONJ)
        self._lo.append(0)
        self._hi.append(0)
        self._kids.append(key)
        self._vs.append(union)
        self._minrank.append(self._minrank[kids[0]])
        self._uconj[key] = u
        return u

    def literal(self, var, positive=True):
        lo = FALSE if positive else TRUE
        return self.make_decision(var, lo, 1 - lo)

    # ------------------------------------------------------------------
    # accessors

    def kind(self, u):
        return self._kind[u]

    def is_decision(self, u):
        return self._kind[u] == KIND_DECISION

    def is_conj(self, u):
        return self._kind[u] == KIND_CONJ

    def var_of(self, u):
        """The variable a decision vertex branches on: no column holds it,
        as it is the variable at the vertex's earliest rank."""
        if self._kind[u] != KIND_DECISION:
            raise InputError(f"vertex {u} is not a decision vertex")
        return self.order.vars[self._minrank[u]]

    def lo(self, u):
        if self._kind[u] != KIND_DECISION:
            raise InputError(f"vertex {u} is not a decision vertex")
        return self._lo[u]

    def hi(self, u):
        if self._kind[u] != KIND_DECISION:
            raise InputError(f"vertex {u} is not a decision vertex")
        return self._hi[u]

    def children(self, u):
        """Children of a conjunction vertex; () for anything else."""
        kids = self._kids[u]
        return kids if kids is not None else ()

    def vars_of(self, u):
        """The variables occurring in u, as a frozenset of names."""
        names = self.order.vars
        mask = self._vs[u]
        out = []
        while mask:
            low = mask & -mask
            out.append(names[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    @property
    def num_vertices(self):
        """Vertices ever interned in this store, leaves included; those an
        operation dropped count too.  The store holds len(self._kind)."""
        return len(self._kind) + self._dropped

    def _parts(self, u):
        return self._kids[u] or (u,)

    # ------------------------------------------------------------------
    # traversal and measurement

    def topological(self, root):
        """Reachable vertices, children before parents, root last."""
        kind = self._kind
        seen = set()
        out = []
        # an expanded vertex goes back on the stack under a None, which is
        # popped once its children are placed: the stack holds the ids the
        # columns hold, and placing one allocates nothing
        stack = [root]
        while stack:
            u = stack.pop()
            if u is None:
                out.append(stack.pop())
            elif u not in seen:
                seen.add(u)
                stack.append(u)
                stack.append(None)
                k = kind[u]
                if k == KIND_DECISION:
                    stack.append(self._hi[u])
                    stack.append(self._lo[u])
                elif k == KIND_CONJ:
                    stack.extend(reversed(self._kids[u]))
        return out

    def vertex_count(self, root):
        return len(self.topological(root))

    def size(self, root):
        """Edge count of the reachable diagram."""
        edges = 0
        for u in self.topological(root):
            k = self._kind[u]
            if k == KIND_DECISION:
                edges += 2
            elif k == KIND_CONJ:
                edges += len(self._kids[u])
        return edges

    def evaluate(self, u, assignment):
        """Truth value under a total assignment of vars_of(u).

        Raises InputError naming a variable the walk needs and the
        assignment misses.
        """
        names = self.order.vars
        stack = [u]
        while stack:
            u = stack.pop()
            k = self._kind[u]
            if k == KIND_FALSE:
                return False
            if k == KIND_DECISION:
                x = names[self._minrank[u]]
                try:
                    value = assignment[x]
                except KeyError:
                    raise InputError(f"assignment misses variable {x}") from None
                stack.append(self._hi[u] if value else self._lo[u])
            elif k == KIND_CONJ:
                stack.extend(self._kids[u])
        return True

    def clear_memo(self):
        """Empty every computed table that outlives an operation; vertices
        and their ids are kept.  An operation's own tables are gone when it
        ends."""
        for name in _MEMO_TABLES:
            setattr(self, name, {})
        self._memo_count.update({FALSE: 0, TRUE: 1})

    # ------------------------------------------------------------------
    # operations: computed tables for one call, and only its result kept

    def _run(self, build, *args):
        """build(*args), a vertex, run as one operation of this store.

        The operation's computed tables live for it alone.  When it ends,
        or raises, the vertices it interned that its result does not reach
        are dropped (see _settle), so ids below the store's size at its
        start never change.  An operation run inside another is part of it.
        """
        if self._memo_and is not None:
            return build(*args)
        n0 = len(self._kind)
        self._memo_and = {}
        self._memo_or = {}
        self._memo_merge = {}
        self._memo_restrict = {}
        try:
            r = build(*args)
        except BaseException:
            self._settle(n0, None)
            raise
        return self._settle(n0, r)

    def _settle(self, n0, r):
        """End the operation begun at store size n0 with result r (None for
        no result) and return r's id after it.

        The operation's tables go.  Of the vertices from n0 on, the dead
        ones, those r does not reach, are dropped: from the first dead id
        on, the unique tables' keys are popped (they are the last ones
        inserted), the columns are truncated, and the live vertices are
        interned again, children first.  Only those live vertices, r among
        them, may get new ids.
        """
        self._memo_and = self._memo_or = None
        self._memo_merge = self._memo_restrict = None
        kind = self._kind
        end = len(kind)
        lo = self._lo
        hi = self._hi
        kids = self._kids
        # live[w - n0] is set for the vertices from n0 on that r reaches: a
        # child's id is below its parent's, so no older vertex leads to one
        live = bytearray(end - n0)
        stack = []
        if r is not None and r >= n0:
            live[r - n0] = 1
            stack.append(r)
        while stack:
            u = stack.pop()
            for c in kids[u] or (lo[u], hi[u]):
                if c >= n0 and not live[c - n0]:
                    live[c - n0] = 1
                    stack.append(c)
        first = live.find(0)
        if first < 0:
            return r
        first += n0
        keep = []
        for table in (self._unique, self._uconj):
            while table:
                key, w = table.popitem()
                if w < first:
                    table[key] = w
                    break
                if live[w - n0]:
                    keep.append((w, key, table is self._uconj))
        for column in (kind, lo, hi, kids, self._vs, self._minrank):
            del column[first:]
        self._dropped += end - first - len(keep)
        keep.sort()
        new = {}
        rbits = self._rbits
        for w, key, conj in keep:
            if conj:
                new[w] = self._intern_conj([new.get(c, c) for c in key])
            else:
                l = key >> rbits + 32
                h = key >> rbits & 0xFFFFFFFF
                new[w] = self._node(key & (1 << rbits) - 1, new.get(l, l),
                                    new.get(h, h))
        return new.get(r, r)

    # ------------------------------------------------------------------
    # canonicalizing constructors
    #
    # Contract for everything below: `i` is an int >= 0 or float('inf'),
    # child arguments are already canonical at bound i, and results are
    # canonical at bound i.  A variable is given by its rank.

    def _decision(self, x, lo, hi, i, pending=False):
        """Canonical vertex for (x ? hi : lo) given canonical branches.

        The rules apply in order: reduction, literal extraction, then
        extraction of the factors shared by both branches.  With pending
        set, a conjunction branch and result are pending triples (see
        _conj_parts), which share a literal when both masks hold it with one
        value; a branch is interned only as that of a decision vertex built.
        """
        if lo == hi:
            return lo
        if i == 0:
            # bound 0 has no conjunctions, so nothing is pending
            return self._node(x, lo, hi)
        if lo == FALSE or hi == FALSE:
            # the vertex is a literal AND the other branch
            rest = hi if lo == FALSE else lo
            if rest == TRUE or not pending:
                lead = (self._node(x, FALSE, TRUE) if lo == FALSE
                        else self._node(x, TRUE, FALSE))
                return (lead if rest == TRUE
                        else self._intern_conj([lead, *self._parts(rest)]))
            f, m, v = self._pend(rest, True)
            bit = 1 << x
            return f, m | bit, v | bit if lo == FALSE else v
        if (lo.__class__ is not tuple and hi.__class__ is not tuple
                and self._kids[lo] is None and self._kids[hi] is None):
            # two distinct single factors share none
            return self._node(x, lo, hi)
        # factors common to both branches come out of the decision, a
        # branch that is itself a factor of the other included:
        # <x, p, p AND R>  =  p AND <x, true, R>; pending branches share the
        # literals both masks hold with one value, the apply's are factors
        fl, ml, vl = self._pend(lo, True) if pending else (self._parts(lo), 0, 0)
        fh, mh, vh = self._pend(hi, True) if pending else (self._parts(hi), 0, 0)
        sm = ml & mh & ~(vl ^ vh)
        shared = set(fl).intersection(fh)
        vs = self._vs
        big = shared and i != INF and [c for c in shared
                                       if vs[c].bit_count() > i]
        if big:
            # keeping the big shared factor is only allowed when the
            # residual decision vertex stays within the bound
            union = (ml | mh) ^ sm
            for c in fl + fh:
                if c not in shared:
                    union |= vs[c]
            if 1 + union.bit_count() > i:
                # the big factor moves back into both residues
                shared.remove(big[0])
        if not shared and not sm:
            # no rule applies, so the vertex keeps its branches
            if pending:
                lo, hi = self._kept(lo), self._kept(hi)
            return self._node(x, lo, hi)
        # the residues share no factor, or only the big one moved back
        # into them, so no rule applies to their decision vertex
        lead = self._node(
            x, self._kept(([c for c in fl if c not in shared], ml ^ sm, vl)),
            self._kept(([c for c in fh if c not in shared], mh ^ sm, vh)))
        # x precedes every factor of both branches, so the decision vertex
        # on it comes first; at most one factor exceeds the bound, as lead
        # fits it whenever a big shared factor is kept, so none are merged
        r = (lead, *[c for c in fl if c in shared]), sm, vl & sm
        return r if pending else self._kept(r)

    def _kept(self, r):
        """r as a vertex: a pending conjunction is interned, literals too."""
        if r.__class__ is not tuple:
            return r
        kids = [*r[0]]
        mask = r[1]
        unique = self._unique
        # a literal's key as _node packs it, branches FALSE, TRUE or TRUE,
        # FALSE; most are interned, so a lookup skips _node's call
        pos = 1 << self._rbits
        neg = pos << 32
        while mask:
            low = mask & -mask
            mask ^= low
            x = low.bit_length() - 1
            if r[2] & low:
                kids.append(unique.get(pos | x) or self._node(x, FALSE, TRUE))
            else:
                kids.append(unique.get(neg | x) or self._node(x, TRUE, FALSE))
        if len(kids) > 1:
            return self._intern_conj(kids)
        return kids[0] if kids else TRUE

    def _cube(self, factors, mask=0, values=0):
        """factors, neither false nor conjunctions, as a pending triple."""
        vs = self._vs
        rest = []
        for p in factors:
            pvs = vs[p]
            if pvs & (pvs - 1):
                rest.append(p)
            else:
                mask |= pvs
                values |= pvs if self._lo[p] == FALSE else 0
        return tuple(rest), mask, values

    def _pend(self, r, always=False):
        """A triple for a conjunction vertex, or any vertex with always set."""
        if r.__class__ is tuple:
            return r
        kids = self._kids[r] or (always and (r,))
        return self._cube(kids) if kids else r

    def _peel(self, key):
        """(x, value, rest) for a triple led by the literal on rank x."""
        factors, mask, values = key
        low = mask & -mask
        if not low or factors and low.bit_length() > self._minrank[factors[0]]:
            return None
        return (low.bit_length() - 1, values & low,
                (factors, mask ^ low, values & ~low))

    def _conj_parts(self, parts, i, pending=False):
        """Canonical conjunction of canonical, variable-disjoint factors.

        Factors may be leaves, conjunction vertices or pending conjunctions;
        they are collapsed and flattened first.  If more than one surviving
        factor exceeds the bound, the oversized ones are merged into a
        single decision vertex.  With pending set, a conjunction result is
        returned as a pending conjunction: the triple of its literals' masks
        and its other factors, sorted like a conjunction vertex's children.
        """
        flat = []
        mask = values = 0
        kids = self._kids
        for p in parts:
            if p.__class__ is tuple:
                flat.extend(p[0])
                mask |= p[1]
                values |= p[2]
            elif kids[p]:
                flat.extend(kids[p])
            elif p > TRUE:
                flat.append(p)
            elif p == FALSE:
                return FALSE
        if len(flat) <= 1 and not mask:
            return flat[0] if flat else TRUE
        if pending or i == 0:
            flat, mask, values = self._cube(flat, mask, values)
            if len(flat) + mask.bit_count() <= 1:
                return self._kept((flat, mask, values))
        if i != INF:
            vs = self._vs
            bigs = [p for p in flat if vs[p].bit_count() > i]
            lits = 0 if i else mask  # literals exceed only bound 0
            if len(bigs) + lits.bit_count() >= 2:
                bigs.sort(key=self._minrank.__getitem__)
                # the merged decision vertex is the only oversized factor
                flat = [p for p in flat if vs[p].bit_count() <= i]
                flat.append(self._merge_bigs(
                    (tuple(bigs), lits, values & lits), i))
                mask ^= lits
                if len(flat) == 1 and not mask:
                    return flat[0]
        if pending:
            return (tuple(sorted(flat, key=self._minrank.__getitem__)),
                    mask, values)
        return self._intern_conj(flat)

    def _merge_bigs(self, key, i, lone=2):
        """Canonical vertex at bound i of the conjunction of key, a triple
        like a pending conjunction's of variable-disjoint decision vertices
        of more than i variables each; literals exceed only bound 0.

        The walk branches on the earliest variable and descends into the
        cofactors, building only vertices of the product (Bryant's Apply).
        A cofactor's oversized factors get a key of their own when there
        are at least `lone`: 2 for factors canonical at i, as one of them
        is canonical as it is; 1 for factors canonical only at a larger
        bound (convert_down).  A key maps to one vertex in either mode, so
        both keep their keys in the operation's _memo_merge.

        _memo_merge is keyed by a key's name (see _name), one int about as
        wide as the key's own masks.  A key's triple lives from its naming
        until its frame expands it, and a frame waiting for a cofactor's
        key holds only that key's name.  A key's leading literals peel off
        in its own frame, each rest named from the name before it.
        """
        memo = self._memo_merge
        root = _name(*key)
        r = memo.get(root)
        if r is not None:
            return r
        vs = self._vs
        lo = self._lo
        by_rank = self._minrank.__getitem__
        # the factors of a key's cofactors stay disjoint from the rest
        union = key[1]
        for p in key[0]:
            if union & vs[p]:
                raise DecompositionError("factors to merge share variables")
            union |= vs[p]
        # the triple of each named key whose frame has not yet expanded it
        todo = {root: key}
        del key

        def step(n):
            factors, m, v = todo.pop(n)
            # leading literals peel off in this frame, each <x, false, rest>
            # or <x, rest, false>, with rest named by n less the literal's
            # bits; peeled lists (name, x, value) from the outermost on
            peeled = []
            r = None
            low = m & -m
            while low and (not factors
                           or low.bit_length() <= by_rank(factors[0])):
                value = v & low
                m ^= low
                v ^= value
                peeled.append((n, low.bit_length() - 1, value != 0))
                if len(factors) + m.bit_count() < lone:
                    r = self._kept((factors, m, v))
                    break
                w = n & 0xFFFFFFFF
                n = (n ^ (low | value << w) << 32 if m
                     else n >> 32 + 2 * w << 32)
                r = memo.get(n)
                if r is not None:
                    break
                low = m & -m
            if r is None:
                # the key left branches on its first factor's variable
                first = factors[0]
                rest = factors[1:]
                halves = []
                for half in (lo[first], self._hi[first]):
                    if half == FALSE:
                        halves.append(FALSE)
                        continue
                    # a cofactor's oversized factors need a merge of their
                    # own
                    smalls = []
                    big = []
                    hm = m
                    hv = v
                    for p in self._kids[half] or (half,):
                        pvs = vs[p]
                        if pvs.bit_count() <= i:
                            smalls.append(p)
                        elif pvs & (pvs - 1):
                            big.append(p)
                        else:
                            hm |= pvs
                            hv |= pvs if lo[p] == FALSE else 0
                    hf = (tuple(sorted(rest + tuple(big), key=by_rank))
                          if rest and big else rest + tuple(big))
                    if len(hf) + hm.bit_count() < lone:
                        smalls.append(self._kept((hf, hm, hv)))
                    else:
                        s = _name(hf, hm, hv)
                        if s not in memo:
                            todo[s] = hf, hm, hv
                            del hf, hm, hv
                            yield s
                        smalls.append(memo[s])
                    halves.append(self._conj_parts(smalls, i) if smalls[1:]
                                  else smalls[0])
                r = memo[n] = self._decision(by_rank(first), halves[0],
                                             halves[1], i)
            for n, x, value in reversed(peeled):
                r = memo[n] = (self._node(x, FALSE, r) if value
                               else self._node(x, r, FALSE))

        return _walk(root, memo, step)

    # ------------------------------------------------------------------
    # canonicalization of raw diagrams

    def _rebuild(self, u, i, memo, keep, pending=False):
        """Walk step that rebuilds u from its rebuilt children through the
        canonicalizing constructors and stores the result in memo.

        keep(c) is what child c becomes without a frame of its own, or None
        when c must be rebuilt first.  pending goes to _decision and
        _conj_parts: with it set, a child's result may be pending and a
        conjunction result is stored as pending.
        """
        dec = self._kind[u] == KIND_DECISION
        parts = []
        for c in (self._lo[u], self._hi[u]) if dec else self._kids[u]:
            k = keep(c)
            if k is None:
                yield c
                k = memo[c]
            parts.append(k)
        if dec:
            memo[u] = self._decision(self._minrank[u], parts[0], parts[1], i,
                                     pending)
        else:
            memo[u] = self._conj_parts(parts, i, pending)

    @_operation
    def decompose(self, u, i):
        """Canonical form at bound i of any ordered raw diagram.

        Every vertex below u is rebuilt, children first, and only what is
        kept is interned: a conjunction stays pending until it is the result
        or a branch of a decision vertex built.  The depth-first search that
        orders the vertices counts each one's parents, and a vertex's
        rebuilt form is dropped once its last parent has read it, so the
        pass holds the forms of a frontier of the diagram, not of all of it.
        """
        # every conjunction in the pass is pending, so _decision never meets
        # one as a vertex and as pending; a loop needs no frame per vertex
        kids = self._kids
        lo = self._lo
        hi = self._hi
        # the search of topological; refs[w] counts how often it met w,
        # once per parent (u once)
        refs = {}
        order = []
        stack = [u]
        while stack:
            w = stack.pop()
            if w is None:
                order.append(stack.pop())
                continue
            n = refs.get(w)
            if n is not None:
                refs[w] = n + 1
                continue
            refs[w] = 1
            stack.append(w)
            stack.append(None)
            if kids[w]:
                stack.extend(reversed(kids[w]))
            elif w > TRUE:
                stack.append(hi[w])
                stack.append(lo[w])
        minrank = self._minrank
        memo = {FALSE: FALSE, TRUE: TRUE}
        for w in order:
            if w <= TRUE:
                continue
            # each child's form, dropped as its last parent reads it
            parts = []
            for c in kids[w] or (lo[w], hi[w]):
                n = refs[c] - 1
                if n:
                    refs[c] = n
                    parts.append(memo[c])
                else:
                    parts.append(memo.pop(c))
            memo[w] = (self._conj_parts(parts, i, True) if kids[w] else
                       self._decision(minrank[w], parts[0], parts[1], i, True))
        return self._kept(memo[u])

    @_operation
    def convert_down(self, u, i):
        """Re-canonicalize a diagram canonical at some bound j >= i down to i.

        Factors that already fit the target bound are kept verbatim, here
        and in every cofactor.  The oversized ones are merged straight from
        their bound-j form, top-down, so no bound-i form of a single
        oversized factor is built unless it is part of the result, and
        converting u again interns nothing.
        """
        vs = self._vs
        parts = self._parts(u)
        # a conjunction's children are in order of their earliest variables
        bigs = tuple(p for p in parts if vs[p].bit_count() > i)
        if not bigs:
            # factors of at most i variables each are canonical at every
            # bound from i up
            return u
        smalls = [p for p in parts if vs[p].bit_count() <= i]
        smalls.append(self._merge_bigs(self._cube(bigs), i, 1))
        return self._conj_parts(smalls, i)

    # ------------------------------------------------------------------
    # operations (inputs and outputs canonical at bound i)

    def _cofactor_top(self, u, i):
        """Both cofactors of u on its earliest variable."""
        kids = self._kids[u]
        if kids is None:
            return self._lo[u], self._hi[u]
        c, *rest = kids
        return (self._conj_parts([self._lo[c], *rest], i),
                self._conj_parts([self._hi[c], *rest], i))

    def _restrict1(self, u, x, b, i):
        """u with the variable of rank x fixed to b, for the conjoin's
        literal peel; the variable need not occur in u."""
        xbit = 1 << x
        if not self._vs[u] & xbit:
            return u
        minrank = self._minrank
        kind = self._kind
        if minrank[u] == x and kind[u] == KIND_DECISION:
            return self._hi[u] if b else self._lo[u]
        cache = self._memo_restrict.setdefault((x, b), {})
        if u in cache:
            return cache[u]
        vs = self._vs
        pick = self._hi if b else self._lo

        def keep(c):
            # a child without x stays; one that branches on x is replaced
            # by its branch rather than given a frame
            if not vs[c] & xbit:
                return c
            if minrank[c] == x and kind[c] == KIND_DECISION:
                return pick[c]
            return None

        return _walk(u, cache, lambda u: self._rebuild(u, i, cache, keep))

    @_operation
    def conjoin(self, u, v, i):
        return self._apply(u, v, i, self._memo_and, FALSE, self._conjoin_split)

    @_operation
    def disjoin(self, u, v, i):
        return self._apply(u, v, i, self._memo_or, TRUE, self._disjoin_split)

    def _apply(self, u, v, i, memo, zero, split):
        """Conjoin (zero FALSE) or disjoin (zero TRUE) on a frame stack.

        zero absorbs and 1 - zero is neutral; memo, the operation's table,
        keys a pair with the smaller id first.  split(u, v, i), for a pair
        memo lacks, returns its result; or None to expand it on its earliest
        variable; or a triple (a, b, then) for a pair whose result is the
        conjunction of the result r of the pair (a, b) with the factors
        then, which share no variable with r.  then is a tuple of canonical
        factors, or a list of literals, which fit every bound and so join
        r's factors as they are.

        Most pairs are expanded, and a frame kept in locals, pushed as a
        tuple, costs less than a generator, so the apply keeps its own
        frames rather than running on _walk.  The open frame's stage is 0
        while its false cofactor pair runs, 1 while its true pair hi runs
        (lo holds the false result), 2 while the pair of a triple runs.
        """
        one = 1 - zero
        vs = self._vs
        kids = self._kids
        minrank = self._minrank
        cofactor = self._cofactor_top
        stack = []
        stage = -1  # no open frame
        key = x = hi = lo = then = None
        while True:
            # resolve the pair (u, v) to r, or open a frame for it
            if u == zero or v == zero:
                r = zero
            elif u == one:
                r = v
            elif v == one or u == v:
                r = u
            else:
                if u > v:
                    u, v = v, u
                pair = (u, v)
                r = memo.get(pair)
                if r is None:
                    # at bound 0, or for two overlapping decision vertices
                    # of more than one variable each, there is no literal
                    # factor or shared conjunct to take apart
                    if not (vs[u] & vs[v] and (i == 0 or (
                            kids[u] is None and kids[v] is None
                            and vs[u].bit_count() > 1 and vs[v].bit_count() > 1))):
                        r = split(u, v, i)
                    if r.__class__ is int:
                        memo[pair] = r
                    else:
                        if stage >= 0:
                            stack.append((key, x, hi, lo, then, stage))
                        key = pair
                        if r is None:
                            # expand on the earliest variable x of either
                            ru = minrank[u]
                            rv = minrank[v]
                            x = ru if ru < rv else rv
                            u, u1 = cofactor(u, i) if ru == x else (u, u)
                            v, v1 = cofactor(v, i) if rv == x else (v, v)
                            hi = (u1, v1)
                            stage = 0
                        else:
                            u, v, then = r
                            stage = 2
                        continue
            # hand r to the open frame until it asks for another pair
            while True:
                if stage == 0:
                    lo = r
                    stage = 1
                    u, v = hi
                    break
                if stage == 1:
                    r = memo[key] = self._decision(x, lo, r, i)
                elif stage == 2:
                    if then.__class__ is tuple:
                        r = self._conj_parts([*then, r], i)
                    elif r != FALSE:
                        if r != TRUE:
                            then.extend(self._parts(r))
                        r = (then[0] if len(then) == 1
                             else self._intern_conj(then))
                    memo[key] = r
                else:
                    return r
                if stack:
                    key, x, hi, lo, then, stage = stack.pop()
                else:
                    stage = -1

    def _conjoin_split(self, u, v, i):
        # disjoint operands, or overlapping ones whose parts include a
        # literal or a conjunction (i >= 1); peel the unit factors off both
        # sides first, since conjoining with a literal is a linear
        # conditioning pass rather than a Shannon expansion.
        vs = self._vs
        if not vs[u] & vs[v]:
            return self._conj_parts([*self._parts(u), *self._parts(v)], i)
        # a literal's rank is its earliest one
        rank = self._minrank
        pu = self._parts(u)
        lits = {}
        lmask = 0
        rest_u = []
        for p in pu:
            pvs = vs[p]
            if pvs & (pvs - 1):
                rest_u.append(p)
            else:
                # u's literals are its own factors, on distinct variables
                lits[rank[p]] = p
                lmask |= pvs
        rest_v = []
        for p in self._parts(v):
            pvs = vs[p]
            if pvs & (pvs - 1):
                if p not in pu:
                    rest_v.append(p)
            # literals are hash-consed: another id is the other phase
            elif lits.setdefault(rank[p], p) != p:
                return FALSE
            else:
                lmask |= pvs
        if lmask:
            # restrict every factor of both sides before building either
            # side's conjunction; building one side first interns extra
            # vertices
            lo = self._lo
            sides = []
            for rest in (rest_u, rest_v):
                side = []
                for p in rest:
                    pvs = vs[p]
                    if pvs & lmask:
                        for x, q in lits.items():
                            if pvs & vs[q]:
                                p = self._restrict1(p, x, lo[q] == FALSE, i)
                    if p == FALSE:
                        return FALSE
                    side.append(p)
                sides.append(side)
            return (self._conj_parts(sides[0], i),
                    self._conj_parts(sides[1], i), list(lits.values()))
        # a factor that meets no factor of the other side passes through,
        # all of u when every factor of v is one of u's; the rest form one
        # core pair, left to Shannon expansion when nothing passes through
        umask = vmask = 0
        for p in rest_u:
            umask |= vs[p]
        for q in rest_v:
            vmask |= vs[q]
        through = []
        core_u = []
        for p in rest_u:
            (core_u if vs[p] & vmask else through).append(p)
        core_v = []
        for q in rest_v:
            (core_v if vs[q] & umask else through).append(q)
        if not through:
            return None
        if not core_u:
            return self._conj_parts(through, i)
        return self.make_conj(core_u), self.make_conj(core_v), tuple(through)

    def _disjoin_split(self, u, v, i):
        # (C and A) or (C and B)  =  C and (A or B), where C shares no
        # variable with A or B; None when the operands share no factor
        pu = self._parts(u)
        pv = self._parts(v)
        shared = [p for p in pu if p in pv]
        if not shared:
            return None
        a = self.make_conj([p for p in pu if p not in shared])
        b = self.make_conj([p for p in pv if p not in shared])
        return a, b, tuple(shared)

    @_operation
    def negate(self, u, i):
        """Canonical negation of u, on a table of the call's own.

        Negation does not distribute over a conjunction's factors, so every
        key branches on its earliest variable.  A key is a vertex or a
        pending conjunction, a conjunction always as its triple, so one
        function is one key; only the result is interned.
        """
        lo = self._lo
        hi = self._hi
        vs = self._vs
        by_rank = self._minrank.__getitem__
        memo = {FALSE: TRUE, TRUE: FALSE}

        def cofactor(half, rest):
            # half AND rest, the key's other factors: only an oversized
            # factor on each side needs _conj_parts's merge
            if half == TRUE and len(rest[0]) + rest[1].bit_count() > 1:
                return rest
            hp = self._kids[half] or (half,)
            if half < 2 or (i != INF and any(vs[p].bit_count() > i for p in hp)
                            and any(vs[q].bit_count() > i for q in rest[0])):
                return self._conj_parts([half, rest], i, True)
            f, m, v = self._cube(hp, *rest[1:])
            return tuple(sorted(rest[0] + f, key=by_rank)), m, v

        def frame(u):
            # the key with its variable and both cofactors on it
            if u.__class__ is not tuple:
                return u, by_rank(u), self._pend(lo[u]), self._pend(hi[u])
            peeled = u[1] and self._peel(u)
            if peeled:
                x, value, rest = peeled
                rest = cofactor(TRUE, rest)
                return (u, x, FALSE, rest) if value else (u, x, rest, FALSE)
            c = u[0][0]
            rest = u[0][1:], u[1], u[2]
            return u, by_rank(c), cofactor(lo[c], rest), cofactor(hi[c], rest)

        # every key has two cofactors, so a tuple frame on an explicit stack
        # does the work of a _walk step without its generator
        root = self._pend(u)
        stack = [] if root in memo else [frame(root)]
        while stack:
            u, x, u0, u1 = stack[-1]
            if u0 not in memo:
                stack.append(frame(u0))
            elif u1 not in memo:
                stack.append(frame(u1))
            else:
                stack.pop()
                memo[u] = self._decision(x, memo[u0], memo[u1], i, True)
        return self._kept(memo[root])

    def _mask(self, variables):
        # the rank mask of variables, each of which must be in the order
        rank = self.rank
        mask = 0
        for x in variables:
            r = rank.get(x)
            if r is None:
                raise OrderViolationError(
                    f"variable {x} is not in this store's order")
            mask |= 1 << r
        return mask

    def _sweep(self, u, mask, i, branches, join):
        """u rebuilt where it meets mask, a rank mask, in one walk on a table
        of the call's own; only the result is interned.

        A decision vertex on a variable in mask becomes join of the results
        of branches(u), the branches it needs.  Every other vertex that
        meets mask is rebuilt with conjunctions pending, and a child that
        misses it stays as it is.  Such a conjunction child enters as its
        triple (see _pend), so that _decision never sees one function both
        as a vertex and as pending.
        """
        vs = self._vs
        if not vs[u] & mask:
            return u
        kind = self._kind
        minrank = self._minrank
        memo = {}

        def keep(c):
            r = memo.get(c)
            if r is None and not vs[c] & mask:
                r = memo[c] = self._pend(c)
            return r

        def settle(u):
            results = []
            for c in branches(u):
                k = keep(c)
                if k is None:
                    yield c
                    k = memo[c]
                results.append(k)
            memo[u] = join(*results)

        def step(u):
            if kind[u] == KIND_DECISION and mask >> minrank[u] & 1:
                return settle(u)
            return self._rebuild(u, i, memo, keep, True)

        return self._kept(_walk(u, memo, step))

    @_operation
    def condition(self, u, assignment, i):
        """Canonical form of u under a partial assignment (var -> bool), in
        one walk: a decision vertex on an assigned variable becomes its
        chosen branch's result (Bryant's restriction)."""
        mask = self._mask(assignment)
        true = self._mask([x for x, b in assignment.items() if b])
        lo = self._lo
        hi = self._hi
        minrank = self._minrank
        return self._sweep(
            u, mask, i,
            lambda u: ((hi if true >> minrank[u] & 1 else lo)[u],),
            lambda r: r)

    @_operation
    def forget(self, u, variables, i):
        """u with the given variables existentially quantified, in one walk:
        a decision vertex on one of them becomes the disjunction of its
        branches' results, and a factor without one passes through."""
        lo = self._lo
        hi = self._hi

        def either(r0, r1):
            # disjoin takes vertices; its conjunction result goes back to
            # the walk as pending
            return self._pend(self.disjoin(self._kept(r0), self._kept(r1), i))

        return self._sweep(u, self._mask(variables), i,
                           lambda u: (lo[u], hi[u]), either)

    # ------------------------------------------------------------------
    # counting and linear queries

    def model_count(self, u):
        """Models over exactly vars_of(u); exact bigint arithmetic."""
        memo = self._memo_count
        vs = self._vs

        def step(u):
            if self._kind[u] == KIND_DECISION:
                nu = vs[u].bit_count()
                lo = self._lo[u]
                hi = self._hi[u]
                yield lo
                yield hi
                r = ((memo[lo] << (nu - 1 - vs[lo].bit_count()))
                     + (memo[hi] << (nu - 1 - vs[hi].bit_count())))
            else:
                r = 1
                for c in self._kids[u]:
                    yield c
                    r *= memo[c]
            memo[u] = r

        return _walk(u, memo, step)

    def sat_under(self, u, assignment):
        """Satisfiability of u restricted by a partial assignment.

        Linear in the diagram: conjunction children range over disjoint
        variables, so their restrictions are independently satisfiable.
        """
        return self._under(u, assignment, True)

    def valid_under(self, u, assignment):
        """Validity of u restricted by a partial assignment (dual walk)."""
        return self._under(u, assignment, False)

    def _under(self, u, assignment, settle):
        # settle is the value one branch of a free decision vertex decides
        # on its own: True for satisfiability, False for validity;
        # conjunction children are independent, so each must hold
        cache = {FALSE: False, TRUE: True}
        names = self.order.vars

        def step(u):
            if self._kind[u] == KIND_DECISION:
                x = names[self._minrank[u]]
                lo = self._lo[u]
                hi = self._hi[u]
                if x in assignment:  # only the assigned branch is left
                    lo = hi = hi if assignment[x] else lo
                yield lo
                r = cache[lo]
                if r != settle:
                    yield hi
                    r = cache[hi]
            else:
                r = True
                for c in self._kids[u]:
                    yield c
                    if not cache[c]:
                        r = False
                        break
            cache[u] = r

        return _walk(u, cache, step)
