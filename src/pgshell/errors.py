"""Exception hierarchy shared across the engine."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatchError(EngineError):
    """Operands live in different rings (or over different fields)."""


class NotHomogeneousError(EngineError):
    """A polynomial that must be homogeneous is not."""


class WeightedRingError(EngineError):
    """Operation only defined for standard-graded rings."""


class ContainmentError(EngineError):
    """The required ideal containment I_W <= I_V fails."""


class PreconditionError(EngineError):
    """A documented precondition of an operation is violated."""


class TailNotStabilizedError(EngineError):
    """The Hilbert function meets its polynomial only above m_max; raise m_max."""


class InternalCheckError(EngineError):
    """A self-check that can only fail on an engine bug fired."""


class CatalogError(EngineError):
    """A catalog constructor received bad parameters or failed its check."""


class SourceError(EngineError):
    """Error in the ideal-description text format, with position info."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        self.message = message
        if line is not None:
            super().__init__(f"{line}:{column}: {message}")
        else:
            super().__init__(message)
