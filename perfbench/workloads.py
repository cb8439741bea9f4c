"""The benchmark's workloads: seeded inputs, one pass of operations, checks.

Each workload has `setup(seed)`, which builds its inputs (and the state its
operations run against), and a pass made of `cases` cases: case k,
`case(state, k, ops, stats)`, performs a fixed number of operations through
`Ops` and checks every output against engine-independent ground truth.
Latency categories passed to `Ops.run` are what the end-to-end times are
made of; operations with category None are set-up or checks and stay
untimed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import kcdag as K
from kcdag.cnf import oracle_count, oracle_eval
from kcdag.validate import DEFAULT_SEMANTIC_LIMIT

from gen import all_equal_chain, dimacs, parity_pairs, random_kcnf, rng_for
from harness import FAILED, Ops, clause_sat, probes, ref_eval, vertices_of, walk_eval

INF = "inf"


@dataclass
class PassStats:
    """Counts taken at the program's boundary during one pass."""

    final_vertices: int = 0     # vertices of the diagrams the pass produced
    interned_vertices: int = 0  # vertices the stores interned to produce them
    exact_checked: int = 0      # vertices validate checks exactly
    skipped: int = 0            # vertices validate skips as too large


def _vars(n: int) -> list[int]:
    return list(range(1, n + 1))


def _check_models(ops: Ops, store, root, cnf, rng, n, models_limit, what):
    """Enumerated models and probes around them, engine against oracle."""
    models = ops.run(None, lambda: list(K.enumerate_models(store, root, _vars(n), models_limit)),
                     deps=(root,), name="enumerate_models")
    if models is FAILED:
        return
    for m in models:
        ops.check(oracle_eval(cnf, m), f"{what}: enumerated non-model")
    for a in probes(rng, _vars(n), models[:5], flips=n, randoms=50):
        ops.check(store.evaluate(root, a) == oracle_eval(cnf, a), f"{what}: evaluate")


# ----------------------------------------------------------------------
# random-compile: DIMACS text -> parse -> min-fill -> balanced compile ->
# serialize, fresh store per formula.  Loads the engine's conjoin and shows
# intermediate swell (interned versus final vertices).  Many small formulas,
# each compiled at one bound (cycling through RC_BOUNDS), rather than a few
# large ones at every bound: compile time varies about 30% between random
# formulas, and a formula's bounds share its hardness, so only the number of
# distinct formulas averages that out.  A case is a group of RC_GROUP
# formulas, so memory is measured per group.

RC_INSTANCES = 64
RC_GROUP = 4
RC_VARS = 24
RC_CLAUSES = 72
RC_BOUNDS = (0, 1, INF)


def rc_setup(seed: int):
    rng = rng_for("random-compile", seed)
    return {"seed": seed,
            "texts": [dimacs(RC_VARS, random_kcnf(rng, RC_VARS, RC_CLAUSES))
                      for _ in range(RC_INSTANCES)]}


def compile_text(text: str, bound):
    """What `kcdag compile` does: DIMACS text in, kdag text out."""
    cnf = K.parse_dimacs(text)
    store, root = K.compile_cnf(cnf, bound)
    return cnf, store, root, K.serialize(store, root, bound)


def rc_compile(state, k: int, ops: Ops, stats: PassStats) -> None:
    """Compile formula k at its bound and check the result."""
    scope = _vars(RC_VARS)
    text = state["texts"][k]
    bound = RC_BOUNDS[k % len(RC_BOUNDS)]
    what = f"formula {k} bound {bound}"
    res = ops.run("compile", compile_text, text, bound)
    if res is FAILED:
        ops.skip(RC_FORMULA_OPS - 1)
        return
    cnf, store, root, kdag = res
    with ops.quiet():
        stats.interned_vertices += store.num_vertices
        stats.final_vertices += store.vertex_count(root)
    back = ops.run(None, K.deserialize, kdag, store)
    ops.check(back is FAILED or back[1] == root, f"{what}: deserialize(serialize)")
    # the same function at a second bound, in the same store
    other = RC_BOUNDS[(k + 1) % len(RC_BOUNDS)]
    again = ops.run(None, K.convert, store, root, bound, other)
    count = ops.run(None, K.model_count, store, root, scope)
    count2 = ops.run(None, K.model_count, store, again, scope, deps=(again,))
    ops.check(FAILED in (count, count2) or count == count2,
              f"{what}: model counts differ across bounds")
    rng = rng_for("random-compile", state["seed"], f"probes{k}")
    _check_models(ops, store, root, cnf, rng, RC_VARS, 40, what)


RC_FORMULA_OPS = 6  # operations rc_compile attempts


def rc_case(state, k: int, ops: Ops, stats: PassStats) -> None:
    for i in range(k * RC_GROUP, (k + 1) * RC_GROUP):
        rc_compile(state, i, ops, stats)



# ----------------------------------------------------------------------
# convert-validate: (a) convert_down and decompose on a diagram whose
# bound-0 form is exponential; (b) exact validation of a small random
# corpus, (a) and (b) being one case; (c) deep all-equal chains, one tail
# case each, run after every pass, which only count toward failures.

PARITY_HALF = 15
CORPUS_SIZE = 40
CORPUS_VARS = 12
CORPUS_BOUNDS = (0, 1, 2, 3, INF)
CHAIN_LENGTHS = (1000, 2000)
CHAIN_BOUNDS = (0, 1, INF)


def cv_setup(seed: int):
    rng = rng_for("convert-validate", seed, "corpus")
    # clause counts ramp from 2 to 4 per variable, the same for every seed
    corpus = [dimacs(CORPUS_VARS, random_kcnf(rng, CORPUS_VARS, 24 + 24 * k // (CORPUS_SIZE - 1)))
              for k in range(CORPUS_SIZE)]
    parity = dimacs(2 * PARITY_HALF, parity_pairs(rng_for("convert-validate", seed, "parity"),
                                                  PARITY_HALF))
    return {"seed": seed, "parity": parity, "corpus": corpus, "counts": {}}


def _parity_part(state, ops: Ops, stats: PassStats) -> None:
    n = 2 * PARITY_HALF
    cnf = ops.run(None, K.parse_dimacs, state["parity"])
    res = ops.run(None, lambda: K.compile_cnf(cnf, INF, order=K.natural_order(n)),
                  deps=(cnf,), name="compile_cnf")
    store, r_inf = (None, FAILED) if res is FAILED else res
    r1 = ops.run("convert", K.convert_down, store, r_inf, 1, deps=(r_inf,))
    r0 = ops.run("convert", K.convert_down, store, r1, 0, deps=(r1,))
    back = ops.run("convert", K.decompose, store, r0, INF, deps=(r0,))
    ops.check(back is FAILED or back == r_inf, "parity: decompose(convert_down) != inf root")
    ops.check(r0 is FAILED or store.vertex_count(r0) == 3 * 2 ** PARITY_HALF - 1,
              "parity: bound-0 size")
    for r in (r_inf, r1, r0):
        count = ops.run(None, K.model_count, store, r, _vars(n), deps=(r,))
        ops.check(count is FAILED or count == 2 ** PARITY_HALF, "parity: model count")
    roots = [r for r in (r_inf, r1, r0) if r is not FAILED]
    rng = rng_for("convert-validate", state["seed"], "parity-probes")
    _check_models(ops, store, roots[-1] if roots else FAILED, cnf, rng, n, 20, "parity")
    if roots:
        with ops.quiet():
            stats.interned_vertices += store.num_vertices
            stats.final_vertices += vertices_of(store, roots)


def _corpus_part(state, ops: Ops, stats: PassStats) -> None:
    scope = _vars(CORPUS_VARS)
    for k, text in enumerate(state["corpus"]):
        cnf = ops.run(None, K.parse_dimacs, text)
        if k not in state["counts"] and cnf is not FAILED:
            state["counts"][k] = oracle_count(cnf, scope)
        expected = state["counts"].get(k)
        store = None
        roots = {}
        for bound in CORPUS_BOUNDS:
            what = f"corpus {k} bound {bound}"
            res = ops.run(None, K.compile_cnf, cnf, bound, None, "balanced", store,
                          deps=(cnf,))
            if res is FAILED:
                roots[bound] = FAILED
                ops.skip(2)  # validate, model_count
                continue
            store, root = res
            roots[bound] = root
            report = ops.run("validate", K.validate, store, root, bound)
            if report is not FAILED:
                ops.check(report.ok, f"{what}: validate {report.summary()}")
            for u in store.topological(root):
                if store.is_decision(u) or store.is_conj(u):
                    if len(store.vars_of(u)) <= DEFAULT_SEMANTIC_LIMIT:
                        stats.exact_checked += 1
                    else:
                        stats.skipped += 1
            count = ops.run(None, K.model_count, store, root, scope)
            ops.check(count is FAILED or count == expected, f"{what}: model count")
        r_inf, r1, r0 = roots[INF], roots[1], roots[0]
        c1 = ops.run(None, K.convert_down, store, r_inf, 1, deps=(r_inf,))
        c0 = ops.run(None, K.convert_down, store, c1, 0, deps=(c1,))
        d = ops.run(None, K.decompose, store, r0, INF, deps=(r0,))
        ops.check(c1 is FAILED or r1 is FAILED or c1 == r1, f"corpus {k}: convert_down inf->1")
        ops.check(c0 is FAILED or r0 is FAILED or c0 == r0, f"corpus {k}: convert_down 1->0")
        ops.check(d is FAILED or r_inf is FAILED or d == r_inf, f"corpus {k}: decompose 0->inf")
        if store is not None:
            with ops.quiet():
                stats.interned_vertices += store.num_vertices
                stats.final_vertices += vertices_of(store, [r for r in roots.values()
                                                            if r is not FAILED])


def cv_case(state, k: int, ops: Ops, stats: PassStats) -> None:
    _parity_part(state, ops, stats)
    _corpus_part(state, ops, stats)


# operations cv_case attempts: parity 9, per corpus formula 1 + 3 per bound + 3
CV_CASE_OPS = 9 + CORPUS_SIZE * (4 + 3 * len(CORPUS_BOUNDS))


CHAIN_CASES = [(n, b) for n in CHAIN_LENGTHS for b in CHAIN_BOUNDS]


def chain_ops(bound) -> list[str]:
    """Names of the deep-chain operations for one compile bound, in order."""
    lower = [b for b in (1, 0) if b != bound and (bound == INF or b < bound)]
    return (["compile"] + [f"convert_down_{b}" for b in lower]
            + ["negate", "enumerate_models", "model_count"])


def chain_case(state, k: int, ops: Ops, stats: PassStats) -> None:
    """The all-equal chain x_1 <-> ... <-> x_n under the natural order at
    one bound: compile, convert_down to every lower bound, negate, enumerate
    and count, under the default recursion limit.  The chains do not depend
    on the seed.  Checks use `walk_eval`, which does not recurse, and closed
    forms: two models, all false and all true."""
    n, bound = CHAIN_CASES[k]
    text = dimacs(n, all_equal_chain(n))
    points = [dict.fromkeys(range(1, n + 1), False), dict.fromkeys(range(1, n + 1), True)]
    points.append({**points[0], n // 2: True})
    points.append({**points[1], n // 3: False})
    what = f"chain {n} bound {bound}"

    def agrees(r, expected):
        return [walk_eval(store, r, a) for a in points] == expected

    def compile_chain():
        return K.compile_cnf(K.parse_dimacs(text), bound, order=K.natural_order(n))

    res = ops.run(None, compile_chain, name="compile")
    store, root = (None, None) if res is FAILED else res
    ops.check(res is FAILED or agrees(root, [True, True, False, False]), f"{what}: compile")
    for name in chain_ops(bound)[1:]:
        if name.startswith("convert_down_"):
            r = ops.run(None, K.convert_down, store, root, int(name[-1]), deps=(res,), name=name)
            ops.check(r is FAILED or agrees(r, [True, True, False, False]), f"{what}: {name}")
        elif name == "negate":
            r = ops.run(None, K.negate, store, root, bound, deps=(res,), name=name)
            ops.check(r is FAILED or agrees(r, [False, False, True, True]), f"{what}: {name}")
        elif name == "enumerate_models":
            r = ops.run(None, lambda: list(K.enumerate_models(store, root)), deps=(res,),
                        name=name)
            ops.check(r is FAILED or r == points[:2], f"{what}: {name}")
        else:
            r = ops.run(None, K.model_count, store, root, deps=(res,), name=name)
            ops.check(r is FAILED or r == 2, f"{what}: {name}")


# ----------------------------------------------------------------------
# query-mix: one compiled store that persists, reads beside writes.  The
# formula is pinned (QM_BASE_SEED) and the seed drives the operation stream:
# a fresh random formula per seed would make every figure mostly a measure
# of that formula's diagram size, which varies several-fold between draws.

QM_VARS = 30
QM_CLAUSES = 90
QM_BOUND = 1
QM_ROUNDS = 1000
QM_POOL = 8
QM_DEPTH = 2
QM_BASE_SEED = 0


def qm_setup(seed: int):
    rng = rng_for("query-mix", QM_BASE_SEED, "base")
    cnf = K.parse_dimacs(dimacs(QM_VARS, random_kcnf(rng, QM_VARS, QM_CLAUSES)))
    store, root = K.compile_cnf(cnf, QM_BOUND)
    return {"seed": seed, "cnf": cnf, "store": store, "root": root}


def conjoin_clause(store, u, clause):
    return K.conjoin(store, u, K.clause_diagram(store, clause), QM_BOUND)


def roundtrip(store, u):
    return K.deserialize(K.serialize(store, u, QM_BOUND), store)[1]


def _random_clause(rng, n=QM_VARS, width=3):
    return [v if rng.getrandbits(1) else -v for v in rng.sample(range(1, n + 1), width)]


def qm_case(state, k: int, ops: Ops, stats: PassStats) -> None:
    """All QM_ROUNDS rounds, on the store of a fresh set-up."""
    store, cnf = state["store"], state["cnf"]
    scope = _vars(QM_VARS)
    rng = rng_for("query-mix", state["seed"], "rounds")
    base_models = ops.run(None, lambda: list(K.enumerate_models(store, state["root"], scope, 32)),
                          name="enumerate_models")
    if base_models is FAILED:
        ops.skip(QM_CASE_OPS - 1)
        return
    for m in base_models:
        ops.check(oracle_eval(cnf, m), "query-mix: enumerated non-model of the base")
    points = probes(rng, scope, base_models, flips=4, randoms=32)
    pool = [(state["root"], ("base",), 0)]

    def verify(w, ref, what):
        for a in rng.sample(points, 6):
            ops.check(store.evaluate(w, a) == ref_eval(ref, a, cnf), f"query-mix: {what}")

    def keep(w, ref, depth):
        if w is FAILED or w in (K.FALSE, K.TRUE) or depth > QM_DEPTH:
            return
        pool.append((w, ref, depth))
        if len(pool) > QM_POOL:
            del pool[1]

    for rnd in range(QM_ROUNDS):
        u, ru, du = rng.choice(pool)
        v, rv, dv = rng.choice(pool)
        clause = _random_clause(rng)
        p = rng.choice(points)
        term = [x if p[x] else -x for x in rng.sample(scope, rng.randint(8, 20))]

        ent = ops.run("read", K.entails_clause, store, u, clause)
        imp = ops.run("read", K.implied_by_term, store, u, term)
        cnt = ops.run("read", K.model_count, store, u, scope)
        eqv = ops.run("read", K.equivalent, store, u, v)
        if ent is True:
            for a in points:
                ops.check(not ref_eval(ru, a, cnf) or clause_sat(clause, a),
                          "query-mix: entails_clause")
        if imp is True:
            ops.check(ref_eval(ru, p, cnf), "query-mix: implied_by_term")
        ops.check(cnt is FAILED or cnt > 0, "query-mix: model count of a consistent diagram")
        ops.check(eqv is FAILED or u != v or eqv, "query-mix: equivalent(u, u)")
        if eqv is True:
            for a in rng.sample(points, 6):
                ops.check(ref_eval(ru, a, cnf) == ref_eval(rv, a, cnf), "query-mix: equivalent")

        assign = {x: bool(rng.getrandbits(1)) for x in rng.sample(scope, 2)}
        clause2 = _random_clause(rng)
        c = ops.run("write", K.condition, store, u, assign, QM_BOUND)
        j = ops.run("write", conjoin_clause, store, u, clause2)
        new = [(c, ("cond", ru, assign), du + 1), (j, ("and_clause", ru, clause2), du + 1)]

        if rnd % 10 == 9:
            gone = rng.sample(scope, 2)
            f = ops.run("write", K.forget, store, u, gone, QM_BOUND)
            o = ops.run("write", K.disjoin, store, u, v, QM_BOUND)
            n = ops.run("write", K.negate, store, u, QM_BOUND)
            r0 = ops.run("write", K.convert_down, store, u, 0)
            rt = ops.run("write", roundtrip, store, u)
            ms = ops.run("write", lambda: list(K.enumerate_models(store, u, scope, 100)),
                         name="enumerate_models")
            new += [(f, ("exists", ru, tuple(gone)), du + 1),
                    (o, ("or", ru, rv), max(du, dv) + 1),
                    (n, ("not", ru), du + 1)]
            if r0 is not FAILED:
                verify(r0, ru, "convert_down")
            c0 = ops.run(None, K.model_count, store, r0, scope, deps=(r0,))
            ops.check(c0 is FAILED or cnt is FAILED or c0 == cnt,
                      "query-mix: model count across bounds")
            ops.check(rt is FAILED or rt == u, "query-mix: deserialize(serialize)")
            if ms is not FAILED:
                ops.check(cnt is FAILED or len(ms) == min(cnt, 100), "query-mix: enumerate count")
                for m in ms:
                    ops.check(ref_eval(ru, m, cnf), "query-mix: enumerated non-model")
        for w, ref, depth in new:
            if w is not FAILED:
                verify(w, ref, "write result")
            keep(w, ref, depth)
    with ops.quiet():
        stats.interned_vertices += store.num_vertices
        stats.final_vertices += vertices_of(store, [w for w, _, _ in pool])


# operations qm_case attempts: the base models, 6 per round and 7 more in
# every 10th round
QM_CASE_OPS = 1 + 6 * QM_ROUNDS + 7 * (QM_ROUNDS // 10)


@dataclass(frozen=True)
class Workload:
    """A pass is cases 0 .. cases-1, each `case(state, k, ops, stats)`
    attempting `case_ops` operations; `tail_case` k, for k below
    `tail_cases`, attempts `tail_ops(k)` and runs after every pass's cases,
    so that each pass attempts and fails the same operations.  Untraced, every case runs in a fresh process of its own."""

    setup: Callable           # seed -> state
    case: Callable
    case_ops: int
    cases: int = 1
    tail_case: Callable | None = None
    tail_ops: Callable[[int], int] | None = None
    tail_cases: int = 0

    def run_pass(self, state, ops: Ops, stats: PassStats) -> None:
        """One pass in this process."""
        for k in range(self.cases):
            self.case(state, k, ops, stats)


WORKLOADS = {
    "random-compile": Workload(rc_setup, rc_case, RC_GROUP * RC_FORMULA_OPS,
                               cases=RC_INSTANCES // RC_GROUP),
    "convert-validate": Workload(cv_setup, cv_case, CV_CASE_OPS, tail_case=chain_case,
                                 tail_ops=lambda k: len(chain_ops(CHAIN_CASES[k][1])),
                                 tail_cases=len(CHAIN_CASES)),
    "query-mix": Workload(qm_setup, qm_case, QM_CASE_OPS),
}
