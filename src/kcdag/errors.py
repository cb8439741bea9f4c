"""Exception types shared by every kcdag module."""


class KcdagError(Exception):
    """Base class for all kcdag errors."""


class InputError(KcdagError, ValueError):
    """An argument is out of range or names something that does not exist."""


class DimacsError(KcdagError):
    """Malformed DIMACS CNF input."""


class OrderViolationError(KcdagError):
    """A vertex construction would break the variable order invariant."""


class DecompositionError(KcdagError):
    """A conjunction's children are not a valid decomposition."""


class SerializationError(KcdagError):
    """Malformed diagram file."""


class OracleLimitError(KcdagError):
    """A truth-table oracle was asked to enumerate too many variables."""


class ResourceLimitError(KcdagError):
    """A store would exceed a fixed limit, such as the number of vertex ids."""
