"""Exception types shared across the package."""


class RigidConvexError(Exception):
    """Base class for all package-specific errors."""


class PolyParseError(RigidConvexError, ValueError):
    """Malformed polynomial expression; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariableError(PolyParseError):
    """Identifier other than x1, x2, x3 in a polynomial expression."""


class OriginOnCurveError(RigidConvexError, ValueError):
    """p(0,0) = 0: the line-substitution route needs p(0) != 0."""


class DegreeZeroError(RigidConvexError, ValueError):
    """Bezout matrix of two constants is empty."""


class DimensionMismatchError(RigidConvexError, ValueError):
    """Matrix operands have incompatible sizes or degrees."""


class DeterminantMismatchError(RigidConvexError, ValueError):
    """det F(x) is not proportional to the supplied polynomial."""

    def __init__(self, message: str, monomial=None, got=None, expected=None):
        super().__init__(message)
        self.monomial = monomial
        self.got = got
        self.expected = expected


class IdenticallyZeroResultantError(RigidConvexError, ArithmeticError):
    """Resultant vanished identically (inputs share a common factor)."""


class SingularCubicError(RigidConvexError, ValueError):
    """Cubic has a singular point; the Hessian route needs a smooth curve."""

    def __init__(self, message: str, singular_point=None):
        super().__init__(message)
        self.singular_point = singular_point
