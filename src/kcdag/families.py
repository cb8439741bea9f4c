"""Benchmark formula generators: biconditional chains and random k-CNF."""

from __future__ import annotations

import random

from .cnf import CNF, Clause, Literal
from .errors import InputError


def chain_family(n: int, j: int, mode: str = "parity") -> CNF:
    """n independent biconditional chains of j+2 variables each.

    Chain k (1-based) runs over variables k, k+n, k+2n, ..., k+(j+1)*n, so
    variables of distinct chains interleave under the natural order.

    mode="parity" reads the chain x1 <-> x2 <-> ... <-> xm left-associatively,
    which is satisfied exactly when the number of true variables has the same
    parity as m.  Encoded by blocking every off-parity assignment: 2^(m-1)
    clauses of width m per chain.

    mode="all-equal" instead constrains consecutive pairs to agree (all chain
    variables equal): 2(m-1) binary clauses per chain.  The two readings agree
    for m = 2 and diverge from m = 3 on.
    """
    if n < 1 or j < 0:
        raise InputError("need n >= 1 and j >= 0")
    m = j + 2
    cnf = CNF(n * m)
    for k in range(1, n + 1):
        chain_vars = [k + t * n for t in range(m)]
        if mode == "parity":
            for bits in range(1 << m):
                if bin(bits).count("1") % 2 == m % 2:
                    continue  # satisfying assignment, nothing to block
                cnf.clauses.append(
                    Clause(Literal(v, (bits >> t) & 1 == 0) for t, v in enumerate(chain_vars))
                )
        elif mode == "all-equal":
            for a, b in zip(chain_vars, chain_vars[1:]):
                cnf.add_clause([-a, b])
                cnf.add_clause([a, -b])
        else:
            raise InputError(f"unknown mode {mode!r}")
    return cnf


def random_cnf(num_vars: int, num_clauses: int, width: int = 3, seed: int = 0) -> CNF:
    """Uniform random k-CNF: each clause picks `width` distinct variables and
    independent signs.  Deterministic for a given seed."""
    if width > num_vars:
        raise InputError("clause width exceeds variable count")
    if width < 0:
        raise InputError("clause width must not be negative")
    if num_clauses < 0:
        raise InputError("clause count must not be negative")
    rng = random.Random(seed)
    cnf = CNF(num_vars)
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), width)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in vs])
    return cnf
