"""CNF formulas: literals, clauses, DIMACS I/O, and truth-table oracles.

Variables are positive integers.  A literal is (var, positive); a clause is a
set of literals; a formula is a sequence of clauses over an explicit variable
universe.  The oracles at the bottom are deliberately naive: they enumerate
total assignments and are the ground truth the diagram engine is tested
against, so they must stay independent of it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .errors import DimacsError, InputError, OracleLimitError

# Hard cap for the enumeration oracles; 2^24 assignments is a few seconds.
ORACLE_VAR_LIMIT = 24


class Literal(NamedTuple):
    var: int
    positive: bool

    @staticmethod
    def from_int(code: int) -> "Literal":
        if code == 0:
            raise InputError("literal code 0 is the DIMACS terminator")
        return Literal(abs(code), code > 0)

    def to_int(self) -> int:
        return self.var if self.positive else -self.var

    def negated(self) -> "Literal":
        return Literal(self.var, not self.positive)


class Clause:
    """A set of literals; read-only, compared and hashed by its literals."""

    __slots__ = ("_literals",)

    def __init__(self, literals: Iterable[Literal]):
        self._literals = frozenset(literals)

    @property
    def literals(self) -> frozenset[Literal]:
        return self._literals

    def __eq__(self, other):
        if other.__class__ is not Clause:
            return NotImplemented
        return self._literals == other._literals

    def __hash__(self) -> int:
        return hash((self._literals,))

    def __repr__(self) -> str:
        return f"Clause(literals={self._literals!r})"

    @property
    def variables(self) -> frozenset[int]:
        return frozenset(lit.var for lit in self._literals)

    def is_tautological(self) -> bool:
        return any(lit.negated() in self._literals for lit in self._literals)

    def is_empty(self) -> bool:
        return not self._literals

    def sorted_ints(self) -> list[int]:
        # by variable, positive phase first; stable output for printing
        return sorted((lit.to_int() for lit in self._literals), key=lambda c: (abs(c), c < 0))

    def __iter__(self) -> Iterator[Literal]:
        return iter(self._literals)

    def __len__(self) -> int:
        return len(self._literals)


class CNF:
    """A CNF formula over variables 1..num_vars (gaps allowed in use)."""

    __slots__ = ("num_vars", "clauses")

    def __init__(self, num_vars: int, clauses: list[Clause] | None = None):
        self.num_vars = num_vars
        self.clauses = [] if clauses is None else clauses

    def __eq__(self, other):
        if other.__class__ is not CNF:
            return NotImplemented
        return (self.num_vars, self.clauses) == (other.num_vars, other.clauses)

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"CNF(num_vars={self.num_vars!r}, clauses={self.clauses!r})"

    @property
    def variables(self) -> frozenset[int]:
        out: set[int] = set()
        for cl in self.clauses:
            out |= cl.variables
        return frozenset(out)

    def add_clause(self, lits: Iterable[int | Literal]) -> None:
        literals = [lit if isinstance(lit, Literal) else Literal.from_int(lit) for lit in lits]
        for lit in literals:
            if lit.var > self.num_vars:
                raise InputError(f"variable {lit.var} exceeds declared universe {self.num_vars}")
        self.clauses.append(Clause(literals))


def parse_dimacs(text: str) -> CNF:
    """Parse DIMACS CNF.  Comment lines start with 'c'; clauses end with 0.

    Duplicate clauses are kept (the compiler dedupes); tautological clauses are
    rejected so every stored clause constrains something.
    """
    tokens: list[str] = []
    num_vars = num_clauses = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError("duplicate problem line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"bad problem line: {line!r}")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise DimacsError(f"bad problem line: {line!r}") from exc
            if num_vars < 0 or num_clauses < 0:
                raise DimacsError(f"negative counts in problem line: {line!r}")
            continue
        tokens.extend(line.split())
    if num_vars is None:
        raise DimacsError("missing problem line")

    cnf = CNF(num_vars)
    current: list[Literal] = []
    for tok in tokens:
        try:
            code = int(tok)
        except ValueError as exc:
            raise DimacsError(f"bad token {tok!r}") from exc
        if code == 0:
            clause = Clause(current)
            if clause.is_tautological():
                raise DimacsError(f"tautological clause: {[l.to_int() for l in current]}")
            if any(l.var > num_vars for l in current):
                raise DimacsError(f"variable out of range in clause {[l.to_int() for l in current]}")
            cnf.clauses.append(clause)
            current = []
        else:
            current.append(Literal.from_int(code))
    if current:
        raise DimacsError("trailing clause without 0 terminator")
    if num_clauses is not None and len(cnf.clauses) != num_clauses:
        raise DimacsError(f"problem line declares {num_clauses} clauses, found {len(cnf.clauses)}")
    return cnf


def format_dimacs(cnf: CNF) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for cl in cnf.clauses:
        lines.append(" ".join(str(c) for c in cl.sorted_ints()) + " 0")
    return "\n".join(lines) + "\n"


def oracle_eval(cnf: CNF, assignment: dict[int, bool]) -> bool:
    """Evaluate under a total assignment of cnf.variables."""
    for cl in cnf.clauses:
        for lit in cl:
            if assignment[lit.var] == lit.positive:
                break
        else:
            return False
    return True


def iter_assignments(variables: Iterable[int]) -> Iterator[dict[int, bool]]:
    """All total assignments over the given variables, low bit = first var."""
    vs = sorted(set(variables))
    if len(vs) > ORACLE_VAR_LIMIT:
        raise OracleLimitError(f"{len(vs)} variables exceeds oracle limit {ORACLE_VAR_LIMIT}")
    for mask in range(1 << len(vs)):
        yield {v: bool((mask >> k) & 1) for k, v in enumerate(vs)}


def oracle_count(cnf: CNF, scope: Iterable[int] | None = None) -> int:
    """Model count by exhaustive enumeration over scope (default: 1..num_vars)."""
    vs = sorted(set(scope)) if scope is not None else list(range(1, cnf.num_vars + 1))
    if not set(cnf.variables) <= set(vs):
        raise InputError("scope must cover every variable used by a clause")
    if len(vs) > ORACLE_VAR_LIMIT:
        raise OracleLimitError(f"{len(vs)} variables exceeds oracle limit {ORACLE_VAR_LIMIT}")
    count = 0
    for assignment in iter_assignments(vs):
        if oracle_eval(cnf, assignment):
            count += 1
    return count


def oracle_models(cnf: CNF, scope: Iterable[int] | None = None) -> list[dict[int, bool]]:
    """All models over scope, in the iteration order of iter_assignments."""
    vs = sorted(set(scope)) if scope is not None else list(range(1, cnf.num_vars + 1))
    if not set(cnf.variables) <= set(vs):
        raise InputError("scope must cover every variable used by a clause")
    return [a for a in iter_assignments(vs) if oracle_eval(cnf, a)]
