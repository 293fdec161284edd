"""Exception hierarchy shared by every layer of the package.

All errors raised on purpose derive from CurveZetaError so callers (and the
command line driver) can map them onto exit codes without string matching.
"""

from __future__ import annotations


class CurveZetaError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ParseError(CurveZetaError):
    """Malformed textual input. Carries a 1-based line and column."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class CapacityError(CurveZetaError):
    """A requested enumeration or field exceeds the configured work bound."""


class ModelShapeError(CurveZetaError):
    """Curve data that does not have the required odd-degree monic shape."""


class SingularCurveError(CurveZetaError):
    """The plane model has an affine singular point; the message names the
    polynomial whose x-roots carry the singular locus."""


class InconsistentCountsError(CurveZetaError):
    """Point counts that cannot come from a curve of the claimed genus."""


class NotDivisibleError(CurveZetaError):
    """Exact polynomial division failed. Carries the nonzero remainder."""

    def __init__(self, message: str, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class StratificationError(CurveZetaError):
    """A divisor-class bucket has a size no section count can explain."""


class ConsistencyError(CurveZetaError):
    """Two independent routes to the same quantity disagree."""

    # Note: message should name both routes and both values.


class InvalidMeasureError(CurveZetaError):
    """A measure table violates one of its structural constraints."""


class OracleUnsupportedError(CurveZetaError):
    """The reference factor-count oracle cannot decide this instance."""
