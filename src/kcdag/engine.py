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
"""

from .errors import (
    BoundViolationError,
    DecompositionError,
    OrderViolationError,
)

FALSE = 0
TRUE = 1

KIND_FALSE = 0
KIND_TRUE = 1
KIND_DECISION = 2
KIND_CONJ = 3

# one computed table per memoised operation, keyed by that operation's own
# arguments
_MEMO_TABLES = (
    "_memo_decision",   # _decision: (var, lo, hi, i)
    "_memo_merge",      # _merge_bigs: (bigs, i)
    "_memo_decompose",  # decompose: (u, i)
    "_memo_convert",    # convert_down: (u, i)
    "_memo_cofactor",   # _cofactor_top: (u, i)
    "_memo_restrict",   # _restrict1: (x, b, i) -> {u: result}
    "_memo_and",        # conjoin: (u, v, i), u < v
    "_memo_or",         # disjoin: (u, v, i), u < v
    "_memo_not",        # negate: (u, i)
    "_memo_count",      # model_count: u
)


class DiagramStore:
    """All vertices live in one store and are unique up to structure.

    `order` must expose .vars (tuple of variables, root end first) and .rank
    (dict variable -> position).  Vertices from different stores must never
    be mixed; nothing detects it.
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
        self._litcache = {}
        for name in _MEMO_TABLES:
            setattr(self, name, {})

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
        key = (KIND_DECISION, var, lo, hi)
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
        key = (var, positive)
        u = self._litcache.get(key)
        if u is None:
            if positive:
                u = self.make_decision(var, FALSE, TRUE)
            else:
                u = self.make_decision(var, TRUE, FALSE)
            self._litcache[key] = u
        return u

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
            raise ValueError(f"vertex {u} is not a decision vertex")
        return self._var[u]

    def lo(self, u):
        if self._kind[u] != KIND_DECISION:
            raise ValueError(f"vertex {u} is not a decision vertex")
        return self._lo[u]

    def hi(self, u):
        if self._kind[u] != KIND_DECISION:
            raise ValueError(f"vertex {u} is not a decision vertex")
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
            getattr(self, name).clear()

    # ------------------------------------------------------------------
    # canonicalizing constructors
    #
    # Contract for everything below: `i` is an int >= 0 or float('inf'),
    # child arguments are already canonical at bound i, and results are
    # canonical at bound i.

    def _decision(self, var, lo, hi, i):
        """Canonical vertex for (var ? hi : lo) given canonical branches."""
        if lo == hi:
            return lo
        if i == 0:
            return self.make_decision(var, lo, hi)
        kind = self._kind
        if (lo != FALSE and hi != FALSE
                and kind[lo] != KIND_CONJ and kind[hi] != KIND_CONJ):
            # no extraction rule applies to plain non-false branches
            return self.make_decision(var, lo, hi)
        if lo == FALSE:
            # the vertex is literal AND hi
            return self._conj_parts([self.literal(var, True), hi], i)
        if hi == FALSE:
            return self._conj_parts([self.literal(var, False), lo], i)
        key = (var, lo, hi, i)
        memo = self._memo_decision
        r = memo.get(key)
        if r is not None:
            return r
        if kind[lo] == KIND_CONJ and kind[hi] == KIND_CONJ:
            r = self._extract_share(var, lo, hi, i)
        elif kind[hi] == KIND_CONJ and lo in self._kids[hi]:
            r = self._extract_part(var, lo, hi, True, i)
        elif kind[lo] == KIND_CONJ and hi in self._kids[lo]:
            r = self._extract_part(var, hi, lo, False, i)
        else:
            r = self.make_decision(var, lo, hi)
        memo[key] = r
        return r

    def _extract_part(self, var, part, whole, part_is_lo, i):
        # one branch appears among the other branch's children:
        # <x, p, p AND R>  =  p AND <x, true, R>   (and mirrored)
        nv_part = self._vs[part].bit_count()
        nv_inner = 1 + self._vs[whole].bit_count() - nv_part
        if nv_part > i and nv_inner > i:
            # both factors would exceed the bound; the plain vertex is final
            if part_is_lo:
                return self.make_decision(var, part, whole)
            return self.make_decision(var, whole, part)
        rest = self.make_conj([c for c in self._kids[whole] if c != part])
        if part_is_lo:
            inner = self.make_decision(var, TRUE, rest)
        else:
            inner = self.make_decision(var, rest, TRUE)
        return self.make_conj([part, inner])

    def _extract_share(self, var, lo, hi, i):
        # children common to both branches factor out of the decision;
        # kids tuples are strictly minrank-sorted, so a merge suffices
        klo = self._kids[lo]
        khi = self._kids[hi]
        minrank = self._minrank
        shared = []
        rest_lo = []
        rest_hi = []
        a = b = 0
        nlo = len(klo)
        nhi = len(khi)
        while a < nlo and b < nhi:
            ca = klo[a]
            cb = khi[b]
            if ca == cb:
                shared.append(ca)
                a += 1
                b += 1
            elif minrank[ca] < minrank[cb]:
                rest_lo.append(ca)
                a += 1
            else:
                rest_hi.append(cb)
                b += 1
        if not shared:
            return self.make_decision(var, lo, hi)
        rest_lo.extend(klo[a:])
        rest_hi.extend(khi[b:])
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
                shared_set = set(shared)
                rest_lo = [c for c in klo if c not in shared_set]
                rest_hi = [c for c in khi if c not in shared_set]
        lo2 = self.make_conj(rest_lo)
        hi2 = self.make_conj(rest_hi)
        shared.append(self._decision(var, lo2, hi2, i))
        return self._conj_parts(shared, i)

    def _conj_parts(self, parts, i):
        """Canonical conjunction of canonical, variable-disjoint factors.

        Factors may be leaves or conjunction vertices; they are collapsed
        and flattened first.  If more than one surviving factor exceeds the
        bound, the oversized ones are merged into a single decision vertex.
        """
        flat = []
        nbig = 0
        kind = self._kind
        vs = self._vs
        for p in parts:
            k = kind[p]
            if k == KIND_FALSE:
                return FALSE
            if k == KIND_TRUE:
                continue
            if k == KIND_CONJ:
                for c in self._kids[p]:
                    flat.append(c)
                    if vs[c].bit_count() > i:
                        nbig += 1
            elif vs[p].bit_count() > i:
                flat.append(p)
                nbig += 1
            else:
                flat.append(p)
        if not flat:
            return TRUE
        if len(flat) == 1:
            return flat[0]
        if nbig >= 2:
            merged = self._merge_bigs(
                tuple(sorted(p for p in flat if vs[p].bit_count() > i)), i)
            smalls = [p for p in flat if vs[p].bit_count() <= i]
            smalls.append(merged)
            return self._conj_parts(smalls, i)
        return self._intern_conj(flat)

    def _merge_bigs(self, bigs, i):
        """Fold variable-disjoint oversized factors into one decision vertex
        by branching on the earliest variable among them."""
        key = (bigs, i)
        r = self._memo_merge.get(key)
        if r is not None:
            return r
        vs = self._vs
        union = 0
        for p in bigs:
            if union & vs[p]:
                raise DecompositionError("factors to merge share variables")
            union |= vs[p]
        minrank = self._minrank
        first = min(bigs, key=minrank.__getitem__)
        rest = [p for p in bigs if p != first]
        x = self._var[first]
        lo_parts = [self._lo[first]]
        lo_parts.extend(rest)
        hi_parts = [self._hi[first]]
        hi_parts.extend(rest)
        u0 = self._conj_parts(lo_parts, i)
        u1 = self._conj_parts(hi_parts, i)
        r = self._decision(x, u0, u1, i)
        self._memo_merge[key] = r
        return r

    # ------------------------------------------------------------------
    # canonicalization of raw diagrams

    def decompose(self, u, i):
        """Canonical form at bound i of a raw diagram already within bound i.

        The input may be any ordered diagram whose conjunction vertices each
        have at most one child exceeding i essential variables; violating
        that raises BoundViolationError.
        """
        if u <= TRUE:
            return u
        key = (u, i)
        r = self._memo_decompose.get(key)
        if r is not None:
            return r
        if self._kind[u] == KIND_DECISION:
            r = self._decision(
                self._var[u],
                self.decompose(self._lo[u], i),
                self.decompose(self._hi[u], i),
                i,
            )
        else:
            parts = []
            dead = False
            for c in self._kids[u]:
                d = self.decompose(c, i)
                if d == FALSE:
                    dead = True
                    break
                if d == TRUE:
                    continue
                parts.extend(self._parts(d))
            if dead:
                r = FALSE
            else:
                vs = self._vs
                nbig = 0
                for p in parts:
                    if vs[p].bit_count() > i:
                        nbig += 1
                if nbig >= 2:
                    raise BoundViolationError(
                        f"conjunction vertex {u} has {nbig} children with "
                        f"more than {i} variables")
                r = self.make_conj(parts)
        self._memo_decompose[key] = r
        return r

    def convert_down(self, u, i):
        """Re-canonicalize a diagram canonical at some bound j >= i down to i.

        Factors that already fit the target bound are kept verbatim; every
        oversized factor is converted and the survivors are re-merged.
        """
        if u <= TRUE or self._vs[u].bit_count() <= i:
            return u
        key = (u, i)
        r = self._memo_convert.get(key)
        if r is not None:
            return r
        if self._kind[u] == KIND_DECISION:
            r = self._decision(
                self._var[u],
                self.convert_down(self._lo[u], i),
                self.convert_down(self._hi[u], i),
                i,
            )
        else:
            vs = self._vs
            parts = []
            for c in self._kids[u]:
                if vs[c].bit_count() <= i:
                    parts.append(c)
                else:
                    parts.append(self.convert_down(c, i))
            r = self._conj_parts(parts, i)
        self._memo_convert[key] = r
        return r

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
        return self._restrict(u, x, xbit, b, i,
                              self._memo_restrict.setdefault((x, b, i), {}))

    def _restrict(self, u, x, xbit, b, i, cache):
        # u mentions x, whose mask bit is xbit
        r = cache.get(u)
        if r is not None:
            return r
        vs = self._vs
        if self._kind[u] == KIND_DECISION:
            y = self._var[u]
            lo = self._lo[u]
            hi = self._hi[u]
            if y == x:
                r = hi if b else lo
            else:
                if vs[lo] & xbit:
                    lo = self._restrict(lo, x, xbit, b, i, cache)
                if vs[hi] & xbit:
                    hi = self._restrict(hi, x, xbit, b, i, cache)
                r = self._decision(y, lo, hi, i)
        else:
            # exactly one child mentions x
            parts = [self._restrict(c, x, xbit, b, i, cache) if vs[c] & xbit
                     else c for c in self._kids[u]]
            r = self._conj_parts(parts, i)
        cache[u] = r
        return r

    def conjoin(self, u, v, i):
        if u == FALSE or v == FALSE:
            return FALSE
        if u == TRUE:
            return v
        if v == TRUE:
            return u
        if u == v:
            return u
        if u > v:
            u, v = v, u
        key = (u, v, i)
        memo = self._memo_and
        r = memo.get(key)
        if r is not None:
            return r
        vs_u = self._vs[u]
        vs_v = self._vs[v]
        if not vs_u & vs_v:
            parts = list(self._parts(u))
            parts.extend(self._parts(v))
            r = self._conj_parts(parts, i)
        elif i == 0 or (vs_u.bit_count() > 1 and vs_v.bit_count() > 1
                        and self._kind[u] == KIND_DECISION
                        and self._kind[v] == KIND_DECISION):
            # at bound 0 both operands are plain, Shannon is all there is
            r = self._shannon(self.conjoin, u, v, i)
        else:
            r = self._conjoin_factored(u, v, i)
        memo[key] = r
        return r

    def _shannon(self, op, u, v, i):
        """op(u, v) expanded on the earliest variable of either operand;
        op is conjoin or disjoin."""
        minrank = self._minrank
        ru = minrank[u]
        rv = minrank[v]
        r = ru if ru < rv else rv
        x = self.order.vars[r]
        if ru == r:
            u0, u1 = self._cofactor_top(u, i)
        else:
            u0, u1 = u, u
        if rv == r:
            v0, v1 = self._cofactor_top(v, i)
        else:
            v0, v1 = v, v
        return self._decision(x, op(u0, v0, i), op(u1, v1, i), i)

    def _conjoin_factored(self, u, v, i):
        # overlapping operands whose parts include a literal or a
        # conjunction (i >= 1); peel the unit factors off both sides first,
        # since conjoining with a literal is a linear conditioning pass
        # rather than a Shannon expansion
        vs = self._vs
        var = self._var
        lo = self._lo
        pu = self._parts(u)
        lits = {}
        rest_u = []
        rest_v = []
        for parts, rest, in_u in ((pu, rest_u, ()), (self._parts(v), rest_v, pu)):
            for p in parts:
                if vs[p].bit_count() == 1:
                    # literals are hash-consed: another id is the other phase
                    old = lits.setdefault(var[p], p)
                    if old != p:
                        return FALSE
                elif p not in in_u:
                    rest.append(p)
        if lits:
            # restrict every factor of both sides before building either
            # side's conjunction; building one side first interns extra
            # vertices.  A literal's mask is its variable's bit.
            items = [(x, lo[p] == FALSE, vs[p]) for x, p in lits.items()]
            sides = []
            for rest in (rest_u, rest_v):
                side = []
                for p in rest:
                    pvs = vs[p]
                    for x, b, xbit in items:
                        if pvs & xbit:
                            p = self._restrict1(p, x, b, i)
                    if p == FALSE:
                        return FALSE
                    side.append(p)
                sides.append(side)
            core = self.conjoin(self._conj_parts(sides[0], i),
                                self._conj_parts(sides[1], i), i)
            if core == FALSE:
                return FALSE
            out = list(lits.values())
            if core != TRUE:
                out.extend(self._parts(core))
            if len(out) == 1:
                return out[0]
            return self._intern_conj(out)
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
            return self._shannon(self.conjoin, u, v, i)
        results = []
        for _, a, b in blocks:
            if not b:
                results.extend(a)
                continue
            if not a:
                results.extend(b)
                continue
            sub = self.conjoin(a[0] if len(a) == 1 else self.make_conj(a),
                               b[0] if len(b) == 1 else self.make_conj(b), i)
            if sub == FALSE:
                return FALSE
            results.append(sub)
        return self._conj_parts(results, i)

    def disjoin(self, u, v, i):
        if u == TRUE or v == TRUE:
            return TRUE
        if u == FALSE:
            return v
        if v == FALSE:
            return u
        if u == v:
            return u
        if u > v:
            u, v = v, u
        key = (u, v, i)
        memo = self._memo_or
        r = memo.get(key)
        if r is not None:
            return r
        pu = self._parts(u)
        pv = self._parts(v)
        if len(pu) > 1 or len(pv) > 1:
            pv_set = set(pv)
            shared = [p for p in pu if p in pv_set]
            if shared:
                # (C and A) or (C and B)  =  C and (A or B)
                sset = set(shared)
                a = self.make_conj([p for p in pu if p not in sset])
                b = self.make_conj([p for p in pv if p not in sset])
                r = self.conjoin(self.make_conj(shared),
                                 self.disjoin(a, b, i), i)
                memo[key] = r
                return r
        r = self._shannon(self.disjoin, u, v, i)
        memo[key] = r
        return r

    def negate(self, u, i):
        if u == FALSE:
            return TRUE
        if u == TRUE:
            return FALSE
        key = (u, i)
        memo = self._memo_not
        r = memo.get(key)
        if r is not None:
            return r
        if self._kind[u] == KIND_DECISION:
            r = self._decision(
                self._var[u],
                self.negate(self._lo[u], i),
                self.negate(self._hi[u], i),
                i,
            )
        else:
            # negation does not distribute over the factors; branch instead
            x = self.order.vars[self._minrank[u]]
            u0, u1 = self._cofactor_top(u, i)
            r = self._decision(x, self.negate(u0, i), self.negate(u1, i), i)
        memo[key] = r
        return r

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
        if u == FALSE:
            return 0
        if u == TRUE:
            return 1
        r = self._memo_count.get(u)
        if r is not None:
            return r
        vs = self._vs
        if self._kind[u] == KIND_DECISION:
            nu = vs[u].bit_count()
            lo = self._lo[u]
            hi = self._hi[u]
            r = (self.model_count(lo) * (1 << (nu - 1 - vs[lo].bit_count()))
                 + self.model_count(hi) * (1 << (nu - 1 - vs[hi].bit_count())))
        else:
            r = 1
            for c in self._kids[u]:
                r *= self.model_count(c)
        self._memo_count[u] = r
        return r

    def sat_under(self, u, assignment):
        """Satisfiability of u restricted by a partial assignment.

        Linear in the diagram: conjunction children range over disjoint
        variables, so their restrictions are independently satisfiable.
        """
        return self._under(u, assignment, True, {})

    def valid_under(self, u, assignment):
        """Validity of u restricted by a partial assignment (dual walk)."""
        return self._under(u, assignment, False, {})

    def _under(self, u, assignment, settle, cache):
        # settle is the value one branch of a free decision vertex decides
        # on its own: True for satisfiability, False for validity;
        # conjunction children are independent, so each must hold
        k = self._kind[u]
        if k <= KIND_TRUE:
            return k == KIND_TRUE
        r = cache.get(u)
        if r is not None:
            return r
        if k == KIND_DECISION:
            x = self._var[u]
            if x in assignment:
                branch = self._hi[u] if assignment[x] else self._lo[u]
                r = self._under(branch, assignment, settle, cache)
            else:
                r = self._under(self._lo[u], assignment, settle, cache)
                if r != settle:
                    r = self._under(self._hi[u], assignment, settle, cache)
        else:
            r = True
            for c in self._kids[u]:
                if not self._under(c, assignment, settle, cache):
                    r = False
                    break
        cache[u] = r
        return r
