"""Seeded input generators for the benchmark.

Inputs reach kcdag only as DIMACS text through `parse_dimacs`, so a change to
`kcdag.families` cannot silently change what the benchmark measures.  The
random generators take a `random.Random` and are deterministic in it.
"""

from __future__ import annotations

import random


def rng_for(workload: str, seed: int, part: str = "") -> random.Random:
    """Independent stream per (workload, seed, part); str seeds hash stably."""
    return random.Random(f"{workload}/{seed}/{part}")


def dimacs(num_vars: int, clauses: list[list[int]]) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines.extend(" ".join(map(str, cl)) + " 0" for cl in clauses)
    return "\n".join(lines) + "\n"


def random_kcnf(rng: random.Random, num_vars: int, num_clauses: int,
                width: int = 3) -> list[list[int]]:
    """Uniform random k-CNF: distinct variables per clause, independent signs."""
    return [[v if rng.getrandbits(1) else -v
             for v in rng.sample(range(1, num_vars + 1), width)]
            for _ in range(num_clauses)]


def parity_pairs(rng: random.Random, half: int) -> list[list[int]]:
    """x_k <-> x_{half+p(k)} for k = 1..half, p a seeded permutation.

    Under the natural order every first-half variable precedes every
    second-half one, so the bound-0 diagram has 3 * 2^half - 1 vertices
    for every p, while the decomposed diagram stays linear.
    """
    partner = list(range(half + 1, 2 * half + 1))
    rng.shuffle(partner)
    clauses = []
    for k, j in enumerate(partner, start=1):
        clauses.append([-k, j])
        clauses.append([k, -j])
    rng.shuffle(clauses)
    return clauses


def all_equal_chain(length: int) -> list[list[int]]:
    """x_k <-> x_{k+1} for k = 1..length-1, in chain order: two models, all
    false or all true.

    Under the natural order every diagram of it is a path `length` deep.
    The clause order is fixed: the compile's intermediate diagrams, and so
    its recursion depth, depend on it.
    """
    clauses = []
    for k in range(1, length):
        clauses.append([-k, k + 1])
        clauses.append([k, -(k + 1)])
    return clauses
