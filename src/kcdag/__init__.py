"""kcdag: decision diagrams with bounded conjunctive decomposition.

Compile CNF into a canonical diagram whose conjunction vertices factor each
function as finely as a chosen bound allows, convert between bounds without
recompiling, and run the classic diagram queries (consistency, validity,
entailment, counting, enumeration) plus transformations (conjoin, disjoin,
negate, condition, forget).
"""

from .cnf import CNF, Clause, Literal, format_dimacs, parse_dimacs
from .compiler import clause_diagram, compile_cnf, compile_via
from .convert import convert, convert_down
from .decompose import decompose
from .engine import FALSE, TRUE, DiagramStore
from .errors import (
    DecompositionError,
    DimacsError,
    InputError,
    KcdagError,
    OracleLimitError,
    OrderViolationError,
    ResourceLimitError,
    SerializationError,
)
from .families import chain_family, random_cnf
from .diagram_io import deserialize, export_dot, serialize
from .ops import (
    condition,
    conjoin,
    disjoin,
    entails,
    entails_clause,
    enumerate_models,
    equivalent,
    forget,
    implied_by_term,
    is_consistent,
    is_valid,
    model_count,
    negate,
)
from .ordering import VariableOrder, min_fill_order, natural_order
from .store import INF, Bound, format_bound, parse_bound
from .validate import ValidationReport, validate

__version__ = "0.1.0"

__all__ = [
    "Bound",
    "CNF",
    "Clause",
    "DecompositionError",
    "DiagramStore",
    "DimacsError",
    "FALSE",
    "INF",
    "InputError",
    "KcdagError",
    "Literal",
    "OracleLimitError",
    "OrderViolationError",
    "ResourceLimitError",
    "SerializationError",
    "TRUE",
    "ValidationReport",
    "VariableOrder",
    "chain_family",
    "clause_diagram",
    "compile_cnf",
    "compile_via",
    "condition",
    "conjoin",
    "convert",
    "convert_down",
    "decompose",
    "deserialize",
    "disjoin",
    "entails",
    "entails_clause",
    "enumerate_models",
    "equivalent",
    "export_dot",
    "forget",
    "format_bound",
    "format_dimacs",
    "implied_by_term",
    "is_consistent",
    "is_valid",
    "min_fill_order",
    "model_count",
    "natural_order",
    "negate",
    "parse_bound",
    "parse_dimacs",
    "random_cnf",
    "serialize",
    "validate",
    "__version__",
]
