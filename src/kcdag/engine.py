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

A conjunction vertex is interned only when it is kept.  decompose's rebuild
walk carries a conjunction as pending, the tuple of its canonical factors in
the order of a conjunction vertex's children, and interns it only as the
walk's result or as a branch of a decision vertex that it builds.

Every walk keeps its frames on an explicit stack, so no operation depends on
Python's recursion limit, however deep the diagram.
"""

from .errors import (
    DecompositionError,
    InputError,
    OrderViolationError,
)
from .store import INF

FALSE = 0
TRUE = 1

KIND_FALSE = 0
KIND_TRUE = 1
KIND_DECISION = 2
KIND_CONJ = 3

# the computed tables, one per memoised operation and keyed by that
# operation's own arguments; a walk's table holds one dict per bound, keyed by
# the walk's key.  clear_memo empties them all at any time: nothing else
# refers to their entries, and every result is refilled on demand.
_MEMO_TABLES = (
    "_memo_merge",      # _merge_bigs, convert_down: i -> {factors: their AND}
    "_memo_decompose",  # decompose: i -> {u: result, a vertex or pending}
    "_memo_cofactor",   # _cofactor_top: (u, i)
    "_memo_restrict",   # _restrict1: (x, b, i) -> {u: result}
    "_memo_and",        # conjoin: i -> {(u, v): result}, u < v
    "_memo_or",         # disjoin: i -> {(u, v): result}, u < v
    "_memo_not",        # negate: i -> {u: result}
    "_memo_count",      # model_count: u
)


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


class DiagramStore:
    """All vertices live in one store and are unique up to structure.

    `order` must expose .vars (tuple of variables, root end first) and .rank
    (dict variable -> position).  Vertices from different stores must never
    be mixed; nothing detects it.

    The store is its vertices and their index: one list per vertex field,
    indexed by vertex id; the unique tables _unique, (var, lo, hi) -> id,
    and _uconj, children -> id, which make every vertex unique; and rank.
    Canonicity makes these the only index needed.  Everything else is a
    computed table named in _MEMO_TABLES, which clear_memo may drop at any
    time without changing any later result or vertex id.
    """

    def __init__(self, order):
        self.order = order
        self.rank = dict(order.rank)
        # rank sentinel for leaves: past every real variable
        self._leaf_rank = len(order.vars)
        self._kind = [KIND_FALSE, KIND_TRUE]
        self._var = [0, 0]
        self._lo = [0, 0]
        self._hi = [0, 0]
        self._kids = [None, None]
        self._vs = [0, 0]
        self._minrank = [self._leaf_rank, self._leaf_rank]
        self._unique = {}
        self._uconj = {}
        self.clear_memo()

    # ------------------------------------------------------------------
    # raw constructors

    def make_leaf(self, value):
        return TRUE if value else FALSE

    def make_decision(self, var, lo, hi):
        """Ordered, reduced decision vertex; no decomposition is attempted."""
        r = self.rank.get(var)
        if r is None:
            raise OrderViolationError(f"variable {var} is not in this store's order")
        if r >= self._minrank[lo] or r >= self._minrank[hi]:
            raise OrderViolationError(
                f"variable {var} does not precede both branches")
        if lo == hi:
            return lo
        key = (var, lo, hi)
        u = self._unique.get(key)
        if u is not None:
            return u
        u = len(self._kind)
        self._kind.append(KIND_DECISION)
        self._var.append(var)
        self._lo.append(lo)
        self._hi.append(hi)
        self._kids.append(None)
        self._vs.append(self._vs[lo] | self._vs[hi] | (1 << r))
        self._minrank.append(r)
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
        self._kind.append(KIND_CONJ)
        self._var.append(0)
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

    def is_leaf(self, u):
        return self._kind[u] <= KIND_TRUE

    def is_decision(self, u):
        return self._kind[u] == KIND_DECISION

    def is_conj(self, u):
        return self._kind[u] == KIND_CONJ

    def var_of(self, u):
        if self._kind[u] != KIND_DECISION:
            raise InputError(f"vertex {u} is not a decision vertex")
        return self._var[u]

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

    def min_rank(self, u):
        return self._minrank[u]

    @property
    def num_vertices(self):
        """Total vertices ever interned in this store (including leaves)."""
        return len(self._kind)

    def _parts(self, u):
        if self._kind[u] == KIND_CONJ:
            return self._kids[u]
        return (u,)

    # ------------------------------------------------------------------
    # traversal and measurement

    def topological(self, root):
        """Reachable vertices, children before parents, root last."""
        seen = set()
        out = []
        stack = [(root, False)]
        while stack:
            u, done = stack.pop()
            if done:
                out.append(u)
                continue
            if u in seen:
                continue
            seen.add(u)
            stack.append((u, True))
            k = self._kind[u]
            if k == KIND_DECISION:
                stack.append((self._hi[u], False))
                stack.append((self._lo[u], False))
            elif k == KIND_CONJ:
                for c in reversed(self._kids[u]):
                    stack.append((c, False))
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
        """Truth value under a total assignment of vars_of(u)."""
        stack = [u]
        while stack:
            u = stack.pop()
            k = self._kind[u]
            if k == KIND_FALSE:
                return False
            if k == KIND_DECISION:
                x = self._var[u]
                stack.append(self._hi[u] if assignment[x] else self._lo[u])
            elif k == KIND_CONJ:
                stack.extend(self._kids[u])
        return True

    def clear_memo(self):
        """Empty every computed table; vertices and their ids are kept."""
        for name in _MEMO_TABLES:
            setattr(self, name, {})
        self._memo_count.update({FALSE: 0, TRUE: 1})

    # ------------------------------------------------------------------
    # canonicalizing constructors
    #
    # Contract for everything below: `i` is an int >= 0 or float('inf'),
    # child arguments are already canonical at bound i, and results are
    # canonical at bound i.

    def _decision(self, var, lo, hi, i):
        """Canonical vertex for (var ? hi : lo) given canonical branches.

        The rules apply in order: reduction, literal extraction, then
        extraction of the factors shared by both branches.
        """
        if lo == hi:
            return lo
        if i == 0:
            return self.make_decision(var, lo, hi)
        if lo == FALSE:
            # the vertex is literal AND hi
            return self._conj_parts([self.literal(var, True), hi], i)
        if hi == FALSE:
            return self._conj_parts([self.literal(var, False), lo], i)
        if self._kind[lo] != KIND_CONJ and self._kind[hi] != KIND_CONJ:
            # two distinct single factors share none
            return self.make_decision(var, lo, hi)
        # factors common to both branches come out of the decision, a branch
        # that is itself a factor of the other included:
        # <x, p, p AND R>  =  p AND <x, true, R>
        klo = self._parts(lo)
        khi = self._parts(hi)
        shared = set(klo).intersection(khi)
        if not shared:
            return self.make_decision(var, lo, hi)
        vs = self._vs
        big = None
        shared_nv = 0
        for c in shared:
            nv = vs[c].bit_count()
            shared_nv += nv
            if nv > i:
                big = c
        if big is not None:
            # keeping the big shared factor is only allowed when the
            # residual decision vertex stays within the bound
            nv_res = 1 + (vs[lo] | vs[hi]).bit_count() - shared_nv
            if nv_res > i:
                # the big factor moves back into both residues
                shared.remove(big)
                if not shared:
                    return self.make_decision(var, lo, hi)
        # the residues share no factor, or only the big one moved back into
        # them, so no rule applies to their decision vertex
        residual = self.make_decision(
            var, self.make_conj([c for c in klo if c not in shared]),
            self.make_conj([c for c in khi if c not in shared]))
        return self._conj_parts([*shared, residual], i)

    def _pending_decision(self, var, lo, hi, i):
        """_decision's rules where a branch may be pending, a conjunction
        kept as the sorted tuple of its factors, and a conjunction result
        is returned as one.  A pending branch is interned only as the
        branch of a decision vertex built.

        It is kept apart from _decision, which the apply calls with vertex
        branches only, so that the apply pays nothing for it.
        """
        if i == 0:
            # bound 0 has no conjunctions, so nothing is pending
            return self.make_decision(var, lo, hi)
        klo = lo if lo.__class__ is tuple else self._parts(lo)
        khi = hi if hi.__class__ is tuple else self._parts(hi)
        if klo == khi:
            # also a pending conjunction against its own vertex
            return lo
        # var precedes every factor of both branches, so a literal or a
        # residual decision vertex on it comes first in a pending result
        if lo == FALSE:
            lit = self.literal(var, True)
            return lit if hi == TRUE else (lit, *khi)
        if hi == FALSE:
            lit = self.literal(var, False)
            return lit if lo == TRUE else (lit, *klo)
        shared = set(klo).intersection(khi)
        if shared and i != INF:
            # as in _decision, with the residue's size read from the parts
            vs = self._vs
            big = None
            shared_nv = 0
            for c in shared:
                nv = vs[c].bit_count()
                shared_nv += nv
                if nv > i:
                    big = c
            if big is not None:
                union = 0
                for c in klo + khi:
                    union |= vs[c]
                if 1 + union.bit_count() - shared_nv > i:
                    shared.remove(big)
        # with no factor shared, this is the vertex itself, whose branches
        # are kept: a pending one is interned here
        residual = self.make_decision(
            var, self.make_conj([c for c in klo if c not in shared]),
            self.make_conj([c for c in khi if c not in shared]))
        if not shared:
            return residual
        # at most one of these factors exceeds the bound
        return (residual, *[c for c in klo if c in shared])

    def _conj_parts(self, parts, i, pending=False):
        """Canonical conjunction of canonical, variable-disjoint factors.

        Factors may be leaves, conjunction vertices or pending conjunctions;
        they are collapsed and flattened first.  If more than one surviving
        factor exceeds the bound, the oversized ones are merged into a
        single decision vertex.  With pending set, a conjunction result is
        returned as a pending conjunction: the tuple of its factors, sorted
        like a conjunction vertex's children.
        """
        flat = []
        kind = self._kind
        for p in parts:
            if pending and p.__class__ is tuple:
                flat.extend(p)
                continue
            k = kind[p]
            if k == KIND_FALSE:
                return FALSE
            if k == KIND_TRUE:
                continue
            if k == KIND_CONJ:
                flat.extend(self._kids[p])
            else:
                flat.append(p)
        if len(flat) <= 1:
            return flat[0] if flat else TRUE
        if i != INF:
            vs = self._vs
            bigs = [p for p in flat if vs[p].bit_count() > i]
            if len(bigs) >= 2:
                bigs.sort(key=self._minrank.__getitem__)
                # the merged decision vertex is the only oversized factor
                flat = [p for p in flat if vs[p].bit_count() <= i]
                flat.append(self._merge_bigs(tuple(bigs), i))
                if len(flat) == 1:
                    return flat[0]
        if pending:
            flat.sort(key=self._minrank.__getitem__)
            return tuple(flat)
        return self._intern_conj(flat)

    def _merge_bigs(self, bigs, i, lone=2):
        """Canonical vertex at bound i of the conjunction of bigs,
        variable-disjoint decision vertices of more than i variables each,
        in order of their earliest variables.

        The walk branches on the earliest variable and descends into the
        cofactors, building only vertices of the product (Bryant's Apply).
        A cofactor's oversized factors get a key of their own when there
        are at least `lone`: 2 for factors canonical at i, as one of them
        is canonical as it is; 1 for factors canonical only at a larger
        bound (convert_down).  A key maps to one vertex in either mode.
        """
        memo = self._memo_merge.setdefault(i, {})
        vs = self._vs
        by_rank = self._minrank.__getitem__
        if bigs not in memo:
            # the factors of a key's cofactors stay disjoint from the rest
            union = 0
            for p in bigs:
                if union & vs[p]:
                    raise DecompositionError("factors to merge share variables")
                union |= vs[p]

        def step(bigs):
            first = bigs[0]
            rest = bigs[1:]
            halves = []
            for half in (self._lo[first], self._hi[first]):
                if half == FALSE:
                    halves.append(FALSE)
                    continue
                # a cofactor's oversized factors need a merge of their own
                smalls = []
                big = []
                for p in self._parts(half):
                    (big if vs[p].bit_count() > i else smalls).append(p)
                if len(big) + len(rest) >= lone:
                    key = rest
                    if big:
                        key = tuple(sorted(rest + tuple(big), key=by_rank))
                    yield key
                    smalls.append(memo[key])
                else:
                    smalls.extend(rest)
                    smalls.extend(big)
                halves.append(self._conj_parts(smalls, i))
            memo[bigs] = self._decision(self._var[first], halves[0],
                                        halves[1], i)

        return _walk(bigs, memo, step)

    # ------------------------------------------------------------------
    # canonicalization of raw diagrams

    def _rebuild(self, u, i, memo, keep, pending=False):
        """Walk step that rebuilds u from its rebuilt children through the
        canonicalizing constructors and stores the result in memo.

        keep(c) is what child c becomes without a frame of its own, or None
        when c must be rebuilt first.  With pending set, a conjunction
        result is stored as a pending conjunction (see _conj_parts).
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
            decide = self._pending_decision if pending else self._decision
            memo[u] = decide(self._var[u], parts[0], parts[1], i)
        else:
            memo[u] = self._conj_parts(parts, i, pending)

    def decompose(self, u, i):
        """Canonical form at bound i of any ordered raw diagram.

        The walk interns only what is kept: a conjunction stays pending
        until it is the result or a branch of a decision vertex built.
        """
        memo = self._memo_decompose.setdefault(i, {FALSE: FALSE, TRUE: TRUE})
        # every child is rebuilt; memo.get spares a frame for one already done
        r = _walk(u, memo, lambda u: self._rebuild(u, i, memo, memo.get, True))
        if r.__class__ is tuple:
            r = memo[u] = self._intern_conj(list(r))
        return r

    def convert_down(self, u, i):
        """Re-canonicalize a diagram canonical at some bound j >= i down to i.

        Factors that already fit the target bound are kept verbatim, here
        and in every cofactor.  The oversized ones are merged straight from
        their bound-j form, top-down, so no bound-i form of a single
        oversized factor is built unless it is part of the result.
        """
        vs = self._vs
        if vs[u].bit_count() <= i:
            return u
        parts = self._parts(u)
        # a conjunction's children are in order of their earliest variables
        bigs = tuple(p for p in parts if vs[p].bit_count() > i)
        if not bigs:
            # factors of at most i variables each are canonical at every
            # bound from i up
            return u
        smalls = [p for p in parts if vs[p].bit_count() <= i]
        smalls.append(self._merge_bigs(bigs, i, 1))
        return self._conj_parts(smalls, i)

    # ------------------------------------------------------------------
    # operations (inputs and outputs canonical at bound i)

    def _cofactor_top(self, u, i):
        """Both cofactors of u on its earliest variable."""
        if self._kind[u] == KIND_DECISION:
            return self._lo[u], self._hi[u]
        key = (u, i)
        memo = self._memo_cofactor
        r = memo.get(key)
        if r is not None:
            return r
        kids = self._kids[u]
        c = kids[0]
        rest = kids[1:]
        lo_parts = [self._lo[c]]
        lo_parts.extend(rest)
        hi_parts = [self._hi[c]]
        hi_parts.extend(rest)
        r = (self._conj_parts(lo_parts, i), self._conj_parts(hi_parts, i))
        memo[key] = r
        return r

    def _restrict1(self, u, x, b, i):
        """u with variable x fixed to b.

        x must be in the store's order (its rank picks the mask bit); it
        need not occur in u.
        """
        xbit = 1 << self.rank[x]
        if not self._vs[u] & xbit:
            return u
        if self._var[u] == x and self._kind[u] == KIND_DECISION:
            return self._hi[u] if b else self._lo[u]
        cache = self._memo_restrict.setdefault((x, b, i), {})
        if u in cache:
            return cache[u]
        vs = self._vs
        var = self._var
        kind = self._kind
        pick = self._hi if b else self._lo

        def keep(c):
            # a child without x stays; one that branches on x is replaced
            # by its branch rather than given a frame
            if not vs[c] & xbit:
                return c
            if var[c] == x and kind[c] == KIND_DECISION:
                return pick[c]
            return None

        return _walk(u, cache, lambda u: self._rebuild(u, i, cache, keep))

    def conjoin(self, u, v, i):
        return self._apply(u, v, i, self._memo_and, FALSE, self._conjoin_split)

    def disjoin(self, u, v, i):
        return self._apply(u, v, i, self._memo_or, TRUE, self._disjoin_split)

    def _apply(self, u, v, i, table, zero, split):
        """Conjoin (zero FALSE) or disjoin (zero TRUE) on a frame stack.

        zero absorbs and 1 - zero is neutral; the memo key puts the smaller
        id first.  split(u, v, i), for a pair the memo lacks, returns its
        result; or None to expand it on its earliest variable; or a triple
        (a, b, then) for a pair whose result comes from the result r of
        the pair (a, b): when then is a list of literals on variables not
        in r, it is their conjunction with r; else it is then(r), unless
        that is again such a triple.

        Most pairs are expanded, and a frame kept in locals, pushed as a
        tuple, costs less than a generator, so the apply keeps its own
        frames rather than running on _walk.  The open frame's stage is 0
        while its false cofactor pair runs, 1 while its true pair hi runs
        (lo holds the false result), 2 while the pair of a triple runs.
        """
        memo = table.setdefault(i, {})
        one = 1 - zero
        vs = self._vs
        kind = self._kind
        minrank = self._minrank
        names = self.order.vars
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
                            kind[u] == KIND_DECISION and kind[v] == KIND_DECISION
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
                            top = ru if ru < rv else rv
                            x = names[top]
                            u, u1 = cofactor(u, i) if ru == top else (u, u)
                            v, v1 = cofactor(v, i) if rv == top else (v, v)
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
                    if then.__class__ is list:
                        if r != FALSE:
                            if r != TRUE:
                                then.extend(self._parts(r))
                            r = (then[0] if len(then) == 1
                                 else self._intern_conj(then))
                    else:
                        r = then(r)
                        if r.__class__ is tuple:
                            u, v, then = r
                            break
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
        # conditioning pass rather than a Shannon expansion.  None when the
        # factors form a single block, left to Shannon expansion.
        vs = self._vs
        if not vs[u] & vs[v]:
            return self._conj_parts([*self._parts(u), *self._parts(v)], i)
        var = self._var
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
                lits[var[p]] = p
                lmask |= pvs
        rest_v = []
        for p in self._parts(v):
            pvs = vs[p]
            if pvs & (pvs - 1):
                if p not in pu:
                    rest_v.append(p)
            # literals are hash-consed: another id is the other phase
            elif lits.setdefault(var[p], p) != p:
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
        if not rest_v:
            # every factor of v is also a factor of u
            return u
        # group the factors into connected blocks by variable overlap;
        # independent blocks conjoin separately
        blocks = [[vs[p], [p], []] for p in rest_u]
        for q in rest_v:
            qvs = vs[q]
            hit = None
            keep = []
            for blk in blocks:
                if not blk[0] & qvs:
                    keep.append(blk)
                elif hit is None:
                    hit = blk
                    keep.append(blk)
                else:
                    hit[0] |= blk[0]
                    hit[1].extend(blk[1])
                    hit[2].extend(blk[2])
            if hit is None:
                keep.append([qvs, [], [q]])
            else:
                hit[0] |= qvs
                hit[2].append(q)
            blocks = keep
        if len(blocks) == 1:
            return None
        return self._conjoin_blocks(iter(blocks), [], i)

    def _conjoin_blocks(self, blocks, results, i):
        # conjoin the remaining blocks in turn: the triple for the next one
        # that needs a conjoin, whose then() comes back here
        for _, a, b in blocks:
            if not b:
                results.extend(a)
            elif not a:
                results.extend(b)
            else:
                def then(sub):
                    if sub == FALSE:
                        return FALSE
                    results.append(sub)
                    return self._conjoin_blocks(blocks, results, i)

                return (a[0] if len(a) == 1 else self.make_conj(a),
                        b[0] if len(b) == 1 else self.make_conj(b), then)
        return self._conj_parts(results, i)

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
        c = self.make_conj(shared)
        return a, b, lambda d: self._conj_parts([c, d], i)

    def negate(self, u, i):
        memo = self._memo_not.setdefault(i, {FALSE: TRUE, TRUE: FALSE})

        def step(u):
            # negation does not distribute over a conjunction's factors, so
            # every vertex branches on its earliest variable
            u0, u1 = self._cofactor_top(u, i)
            yield u0
            yield u1
            memo[u] = self._decision(self.order.vars[self._minrank[u]],
                                     memo[u0], memo[u1], i)

        return _walk(u, memo, step)

    def condition(self, u, assignment, i):
        """Canonical form of u under a partial assignment (var -> bool)."""
        rank = self.rank
        for x in assignment:
            if x not in rank:
                raise OrderViolationError(
                    f"variable {x} is not in this store's order")
        # deepest variable first, so each restriction works below the next
        for x in sorted(assignment, key=rank.__getitem__, reverse=True):
            u = self._restrict1(u, x, bool(assignment[x]), i)
        return u

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

        def step(u):
            if self._kind[u] == KIND_DECISION:
                x = self._var[u]
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
