"""Exception types shared across the package."""


class AlgebroidError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AlgebroidError):
    """Malformed expression text.  Carries the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DivisionByZeroError(AlgebroidError):
    """Division by a scalar that is identically zero."""


class PoleError(AlgebroidError):
    """Evaluation at a point where a denominator vanishes."""


class BudgetError(AlgebroidError):
    """A computation exceeded the configured term budget."""


class InexactDivisionError(AlgebroidError, ValueError):
    """An exact polynomial division whose divisor does not divide."""


class ShapeError(AlgebroidError):
    """Mismatched dimensions, ranks or index ranges."""


class SingularMatrixError(AlgebroidError):
    """A matrix that must be invertible is singular."""


class AdmissibilityError(AlgebroidError):
    """An operation that requires an admissible connection received one
    that is not.  ``identity`` names the refused check and ``residuals``
    holds nonzero witness components."""

    def __init__(self, identity: str, residuals=None):
        super().__init__(f"{identity} requires an admissible connection")
        self.identity = identity
        self.residuals = list(residuals or [])


class ProjectorRequiredError(ShapeError):
    """An operation that needs a locality projector was called on an
    algebroid without one."""


class DocumentError(AlgebroidError):
    """Malformed algebroid JSON document."""
