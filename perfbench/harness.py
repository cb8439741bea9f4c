"""Operation guard, outcome counts and the engine-independent reference.

Every call the benchmark makes into kcdag runs through `Ops.run`, which
times it, catches any exception and counts it as one failed operation under
its type, so the run goes on and the denominator stays fixed.  Operations
whose inputs come from a failed operation are counted as failed too
(`Skipped`).  Wrong results are a separate matter: `Ops.check` records them
and the run reports `correct: false`.
"""

from __future__ import annotations

import contextlib
import itertools
from collections import Counter, defaultdict
from time import process_time

from kcdag import FALSE
from kcdag.cnf import oracle_eval
from kcdag.errors import KcdagError

FAILED = object()

# Failure groups reported as `fail.<group>`; anything else is `fail.Other`.
FAIL_GROUPS = ("RecursionError", "MemoryError", "KcdagError", "Skipped",
               "ProcessDied", "Other")


def fail_group(exc: BaseException) -> str:
    if isinstance(exc, RecursionError):
        return "RecursionError"
    if isinstance(exc, MemoryError):
        return "MemoryError"
    if isinstance(exc, KcdagError):
        return "KcdagError"
    return "Other"


class Ops:
    """Guarded, timed operations and their outcomes for one run."""

    def __init__(self, on_result=None, on_wrong=None):
        self.attempted = 0
        self.failures: Counter = Counter()      # group -> count
        self.failure_types: Counter = Counter()  # exact exception type -> count
        self.wrong: list[str] = []
        # per category: CPU seconds of this process per timed operation
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.on_result = on_result
        self.on_wrong = on_wrong
        # entered around untimed operations and the benchmark's own counting,
        # so that a tracer can leave them out of the layers' spans
        self.quiet = contextlib.nullcontext

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def record(self, name: str, group: str | None, type_name: str | None = None) -> None:
        """Count one operation's outcome; group None means it succeeded."""
        self.attempted += 1
        if group is not None:
            self.failures[group] += 1
            self.failure_types[type_name or group] += 1
        if self.on_result is not None:
            self.on_result(name, group, type_name)

    def run(self, category, fn, *args, deps=(), name=None):
        """Call fn(*args) as one operation.

        `category` names the latency series the call is timed into, or None
        for an untimed operation (set-up and checking), which runs inside
        `quiet`.  Latency is the process's CPU time, user and system, so that
        other load on the machine moves it less than wall time.  Returns
        FAILED if the call raised or a dependency had failed.
        """
        name = name or getattr(fn, "__name__", "op")
        if any(d is FAILED for d in deps):
            self.record(name, "Skipped")
            return FAILED
        guard = self.quiet() if category is None else contextlib.nullcontext()
        try:
            with guard:
                c0 = process_time()
                out = fn(*args)
                elapsed = process_time() - c0
        except Exception as exc:  # every failure is counted; the run goes on
            self.record(name, fail_group(exc), type(exc).__name__)
            return FAILED
        if category is not None:
            self.latency[category].append(elapsed)
        self.record(name, None)
        return out

    def skip(self, count: int) -> None:
        """Count `count` operations that depended on a failed one."""
        for _ in range(count):
            self.record("skipped", "Skipped")

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.wrong.append(what)
            if self.on_wrong is not None:
                self.on_wrong(what)


# ----------------------------------------------------------------------
# reference semantics, independent of the engine

def clause_sat(clause, a) -> bool:
    return any(a[abs(lit)] == (lit > 0) for lit in clause)


def ref_eval(ref, a, cnf) -> bool:
    """Truth of a reference formula under a total assignment.

    A reference is a tuple tree over the base CNF: ("base",),
    ("cond", r, partial), ("and_clause", r, clause), ("exists", r, vars),
    ("or", r, s) and ("not", r).  Only `oracle_eval` touches the CNF.
    """
    tag = ref[0]
    if tag == "base":
        return oracle_eval(cnf, a)
    if tag == "cond":
        b = dict(a)
        b.update(ref[2])
        return ref_eval(ref[1], b, cnf)
    if tag == "and_clause":
        return clause_sat(ref[2], a) and ref_eval(ref[1], a, cnf)
    if tag == "exists":
        b = dict(a)
        for bits in itertools.product((False, True), repeat=len(ref[2])):
            b.update(zip(ref[2], bits))
            if ref_eval(ref[1], b, cnf):
                return True
        return False
    if tag == "or":
        return ref_eval(ref[1], a, cnf) or ref_eval(ref[2], a, cnf)
    if tag == "not":
        return not ref_eval(ref[1], a, cnf)
    raise ValueError(f"unknown reference {tag!r}")


def walk_eval(store, u, a) -> bool:
    """Evaluate a diagram through the store's accessors, without recursion.

    Used where the diagram is deeper than the recursion limit, so that a
    check cannot fail where the operation under test succeeded.
    """
    stack = [u]
    while stack:
        w = stack.pop()
        if store.is_decision(w):
            stack.append(store.hi(w) if a[store.var_of(w)] else store.lo(w))
        elif store.is_conj(w):
            stack.extend(store.children(w))
        elif w == FALSE:
            return False
    return True


def probes(rng, variables, models, flips: int, randoms: int) -> list[dict]:
    """Assignments to test a diagram at: the given models, single-variable
    flips of them (a mix of models and non-models), and random points."""
    out = [dict(m) for m in models]
    for m in models:
        for v in rng.sample(variables, min(flips, len(variables))):
            b = dict(m)
            b[v] = not b[v]
            out.append(b)
    for _ in range(randoms):
        out.append({v: bool(rng.getrandbits(1)) for v in variables})
    return out


def vertices_of(store, roots) -> int:
    """Distinct vertices reachable from any of the roots."""
    seen: set = set()
    for r in roots:
        seen.update(store.topological(r))
    return len(seen)
