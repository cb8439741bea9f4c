"""End-to-end acceptance checks.

Each test prints one line, "criterion N: PASS ..." or "criterion N: FAIL ...",
before asserting, so a `pytest -v -s tests/test_acceptance.py` run reads as a
checklist.  The tests build on each other only through the shared corpus
fixture and the PRODUCED registry that the final structural sweep consumes,
so the file is meant to run as a whole.
"""

import random
import statistics
import time

import pytest

from kcdag import FALSE, TRUE
from kcdag.cnf import CNF
from kcdag.compiler import compile_cnf, compile_via
from kcdag.convert import convert_down
from kcdag.engine import DiagramStore
from kcdag.families import chain_family, random_cnf
from kcdag.ops import (
    condition,
    conjoin,
    disjoin,
    entails_clause,
    forget,
    implied_by_term,
    is_consistent,
    is_valid,
    model_count,
    negate,
)
from kcdag.ordering import min_fill_order, natural_order
from kcdag.store import INF
from kcdag.validate import validate

from conftest import (
    clause_sat_table,
    cnf_table,
    diagram_table,
    project_table,
    term_table,
)

B5 = (0, 1, 2, 3, INF)
SCOPE12 = range(1, 13)
FULL12 = (1 << (1 << 12)) - 1

# every diagram any criterion produces lands here for the final sweep
PRODUCED: list = []


def _note(store, root, bound):
    PRODUCED.append((store, root, bound))


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def corpus():
    """200 random 3-CNFs over 12 vars, compiled once at every bound."""
    rng = random.Random(42)
    out = []
    for k in range(200):
        cnf = random_cnf(12, rng.randint(10, 30), seed=1000 + k)
        store = DiagramStore(natural_order(12))
        roots = {b: compile_cnf(cnf, b, store=store)[1] for b in B5}
        for b in B5:
            _note(store, roots[b], b)
        out.append((cnf, store, roots))
    return out


def test_criterion_1_canonicity(corpus):
    t0 = time.perf_counter()
    mismatches = 0
    schedules = ("balanced", "bucket", "ordered")
    for k, (cnf, store, roots) in enumerate(corpus):
        perms = []
        for p in range(3):
            shuffled = CNF(cnf.num_vars, list(cnf.clauses))
            random.Random(777 + 3 * k + p).shuffle(shuffled.clauses)
            perms.append(shuffled)
        for b in B5:
            for p, shuffled in enumerate(perms):
                got = compile_cnf(shuffled, b, store=store,
                                  schedule=schedules[p])[1]
                mismatches += got != roots[b]
            mismatches += compile_via(cnf, b, store=store)[1] != roots[b]
    dt = time.perf_counter() - t0
    _report(1, mismatches == 0 and dt < 120,
            f"{len(corpus)} instances x {len(B5)} bounds x 4 routes, "
            f"{mismatches} mismatches, {dt:.1f}s")


def test_criterion_2_oracle_equivalence(corpus, vt12):
    t0 = time.perf_counter()
    failures = 0
    for k, (cnf, store, roots) in enumerate(corpus):
        table = cnf_table(cnf, SCOPE12, vt12)
        rng = random.Random(5000 + k)
        clauses = [[v if rng.random() < 0.5 else -v
                    for v in rng.sample(list(SCOPE12), 3)] for _ in range(10)]
        terms = [[v if rng.random() < 0.5 else -v
                  for v in rng.sample(list(SCOPE12), 3)] for _ in range(10)]
        asg = {v: rng.random() < 0.5
               for v in rng.sample(list(SCOPE12), rng.choice((2, 3)))}
        remaining = [v for v in SCOPE12 if v not in asg]
        projected = project_table(table, SCOPE12, asg)
        want_ce = [table & ~clause_sat_table(cl, SCOPE12, vt12) == 0
                   for cl in clauses]
        want_im = [term_table(tm, SCOPE12, vt12) & ~table == 0 for tm in terms]
        for b in B5:
            root = roots[b]
            ok = model_count(store, root, SCOPE12) == table.bit_count()
            ok &= is_consistent(store, root) == (table != 0)
            ok &= is_valid(store, root) == (table == FULL12)
            for cl, want in zip(clauses, want_ce):
                ok &= entails_clause(store, root, cl) == want
            for tm, want in zip(terms, want_im):
                ok &= implied_by_term(store, root, tm) == want
            conditioned = condition(store, root, asg, b)
            _note(store, conditioned, b)
            ok &= diagram_table(store, conditioned, remaining) == projected
            failures += not ok
    dt = time.perf_counter() - t0
    _report(2, failures == 0 and dt < 300,
            f"count/CO/VA/CE/IM/conditioning vs truth tables on "
            f"{len(corpus)} instances x {len(B5)} bounds, "
            f"{failures} disagreements, {dt:.1f}s")


def test_criterion_3_succinctness_separation():
    t0 = time.perf_counter()
    at0, atinf = {}, {}
    for n in range(2, 10):
        cnf = chain_family(n, 0)
        store = DiagramStore(natural_order(cnf.num_vars))
        r0 = compile_cnf(cnf, 0, store=store)[1]
        ri = compile_cnf(cnf, INF, store=store)[1]
        _note(store, r0, 0)
        _note(store, ri, INF)
        at0[n] = store.vertex_count(r0)
        atinf[n] = store.vertex_count(ri)
    doubling = all(at0[n] >= 2 * at0[n - 1] for n in range(4, 10))
    diffs = {atinf[n + 1] - atinf[n] for n in range(2, 9)}
    dt = time.perf_counter() - t0
    _report(3, doubling and len(diffs) == 1 and dt < 60,
            f"bound 0 grows {at0[2]}..{at0[9]} (doubling={doubling}), "
            f"bound inf first difference {sorted(diffs)}, {dt:.1f}s")


def test_criterion_3b_succinctness_ladder():
    # the paper's strict ladder, one rung per bound: each chain of
    # chain_family(n, i) adds exactly 2i + 5 vertices at bound i + 1, while
    # at bound i what each chain adds keeps nearly doubling (the sizes grow
    # by less than 2x, so the check is on their differences)
    t0 = time.perf_counter()
    ok = True
    rows = []
    for i in range(4):
        sizes = {i: [], i + 1: []}
        for n in range(2, 7):
            cnf = chain_family(n, i)
            store = DiagramStore(natural_order(cnf.num_vars))
            for b in sizes:
                root = compile_cnf(cnf, b, store=store)[1]
                _note(store, root, b)
                sizes[b].append(store.vertex_count(root))
        steps = {y - x for x, y in zip(sizes[i + 1], sizes[i + 1][1:])}
        diffs = [y - x for x, y in zip(sizes[i], sizes[i][1:])]
        growth = min(y / x for x, y in zip(diffs, diffs[1:]))
        ok = ok and steps == {2 * i + 5} and growth >= 1.75
        rows.append(f"rung {i}: bound {i + 1} adds {sorted(steps)}, "
                    f"bound {i} adds {diffs} (x{growth:.2f}+)")
    dt = time.perf_counter() - t0
    _report("3b", ok and dt < 60, f"{'; '.join(rows)}, {dt:.1f}s")


def test_criterion_4_size_vs_bound_trend():
    t0 = time.perf_counter()
    bounds = (0, 1, 2, 3, 4, 5)
    sizes = {m: [[] for _ in bounds] for m in (20, 40, 60, 80)}
    k = 0
    for m in sizes:
        for _ in range(25):
            cnf = random_cnf(20, m, seed=2000 + k)
            k += 1
            store = DiagramStore(min_fill_order(cnf))
            for pos, b in enumerate(bounds):
                root = compile_cnf(cnf, b, store=store)[1]
                _note(store, root, b)
                sizes[m][pos].append(store.vertex_count(root))
    bad = []
    means = {m: [statistics.mean(col) for col in cols]
             for m, cols in sizes.items()}
    for m, row in means.items():
        for i in range(5):
            if row[i] < row[i + 1]:
                bad.append((m, i))
    dt = time.perf_counter() - t0
    _report(4, not bad and dt < 600,
            f"group means monotone non-increasing over bounds 0..5 "
            f"({'; '.join(f'{m}cl: {row[0]:.0f}->{row[5]:.0f}' for m, row in means.items())}), "
            f"violations {bad}, {dt:.1f}s")


def test_criterion_5_conjoin_rapidity():
    t0 = time.perf_counter()
    rng = random.Random(1234)
    instances = [random_cnf(20, rng.randint(10, 100), seed=10_000 + j)
                 for j in range(100)]
    order = natural_order(20)

    def timed(cnf, bound):
        best = None
        for _ in range(3):
            store = DiagramStore(order)
            clk = time.process_time()
            compile_cnf(cnf, bound, store=store, schedule="ordered")
            dt = time.process_time() - clk
            best = dt if best is None else min(best, dt)
        return best

    t_b0, t_b1 = [], []
    for cnf in instances:
        t_b0.append(timed(cnf, 0))
        t_b1.append(timed(cnf, 1))
    med0 = statistics.median(t_b0) * 1000
    med1 = statistics.median(t_b1) * 1000

    nonequal = 0
    for cnf in instances:
        store = DiagramStore(order)
        r1 = compile_cnf(cnf, 1, store=store, schedule="ordered")[1]
        r0 = compile_cnf(cnf, 0, store=store, schedule="ordered")[1]
        _note(store, r0, 0)
        _note(store, r1, 1)
        nonequal += convert_down(store, r1, 0) != r0
    dt = time.perf_counter() - t0
    _report(5, med1 <= med0 and nonequal == 0 and dt < 600,
            f"median compile ms: bound 1 {med1:.2f} vs bound 0 {med0:.2f} "
            f"(n=100, best of 3), {nonequal} equivalence failures, {dt:.1f}s")


def test_criterion_6_conversion_correctness(corpus):
    t0 = time.perf_counter()
    mismatches = 0
    for cnf, store, roots in corpus:
        for j, upper in enumerate(B5):
            for lower in B5[: j + 1]:
                mismatches += convert_down(store, roots[upper], lower) != roots[lower]
        for a, middle in enumerate(B5):
            for hi_pos in range(a, len(B5)):
                for lo_pos in range(a + 1):
                    top = roots[B5[hi_pos]]
                    two_step = convert_down(store, convert_down(store, top, middle),
                                            B5[lo_pos])
                    mismatches += two_step != convert_down(store, top, B5[lo_pos])
    dt = time.perf_counter() - t0
    _report(6, mismatches == 0 and dt < 300,
            f"all bound pairs and compositions over {len(corpus)} instances, "
            f"{mismatches} mismatches, {dt:.1f}s")


def test_criterion_7_algebraic_suite():
    t0 = time.perf_counter()
    store = DiagramStore(natural_order(10))
    rng = random.Random(31337)
    failures = 0
    for t in range(1000):
        i = B5[rng.randrange(len(B5))]
        u = compile_cnf(random_cnf(10, rng.randint(8, 22), seed=90_000 + 2 * t),
                        i, store=store)[1]
        v = compile_cnf(random_cnf(10, rng.randint(8, 22), seed=90_001 + 2 * t),
                        i, store=store)[1]
        both = conjoin(store, u, v, i)
        either = disjoin(store, u, v, i)
        nu, nv = negate(store, u, i), negate(store, v, i)
        ok = negate(store, both, i) == disjoin(store, nu, nv, i)
        ok &= negate(store, either, i) == conjoin(store, nu, nv, i)
        ok &= negate(store, nu, i) == u
        ok &= conjoin(store, u, TRUE, i) == u
        ok &= disjoin(store, u, FALSE, i) == u
        ok &= conjoin(store, u, FALSE, i) == FALSE
        ok &= disjoin(store, u, TRUE, i) == TRUE
        omega = {x: rng.random() < 0.5
                 for x in rng.sample(range(1, 11), rng.randint(1, 3))}
        cond_both = condition(store, both, omega, i)
        ok &= cond_both == conjoin(store, condition(store, u, omega, i),
                                   condition(store, v, omega, i), i)
        gone = forget(store, u, sorted(store.vars_of(u)), i)
        ok &= (gone == TRUE) == is_consistent(store, u)
        failures += not ok
        if t % 25 == 0:
            for root in (both, either, nu, cond_both):
                _note(store, root, i)
    dt = time.perf_counter() - t0
    _report(7, failures == 0 and dt < 120,
            f"1000 randomized trials, {failures} failures, {dt:.1f}s")


def test_criterion_8_every_diagram_validates():
    if not PRODUCED:
        pytest.skip("needs criteria 1-7 to run first in this session")
    t0 = time.perf_counter()
    by_store: dict[int, tuple] = {}
    for store, root, bound in PRODUCED:
        entry = by_store.setdefault(id(store), (store, set()))
        entry[1].add((root, bound))
    checked = exact = bad = 0
    for store, pairs in by_store.values():
        caches: dict = {}
        for root, bound in sorted(pairs):
            report = validate(store, root, bound, semantic_limit=12,
                              caches=caches)
            checked += 1
            exact += report.decomposition_finest_ok is True
            bad += not report.ok
    dt = time.perf_counter() - t0
    _report(8, bad == 0,
            f"{checked} diagrams validated ({exact} with exact finest-"
            f"decomposition checks), {bad} failures, {dt:.1f}s")
