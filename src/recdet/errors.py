"""Exception hierarchy shared by every module in the package.

Each class carries the CLI exit code it maps to as ``exit_code``: 2 (an
evaluation error) unless a subclass says otherwise.
"""

from __future__ import annotations


class RecdetError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class DivisionByZero(RecdetError):
    """Division by an exact zero.

    Carries the offending index when the division happened while a
    coefficient expression was being evaluated, so callers can report
    the k at which a spec was used below its validity range.
    """

    def __init__(self, message: str, k: int | None = None) -> None:
        super().__init__(message)
        self.k = k


class InexactDivision(RecdetError):
    """Polynomial division left a nonzero remainder."""


class SizeTooLarge(RecdetError):
    """Refused before the work: an input exceeds a documented size guard
    (the cofactor expansion's matrix size, a dense matrix's size, a parsed
    polynomial's degree)."""


class NotHessenberg(RecdetError):
    """The matrix is not flagged, or not shaped, upper Hessenberg."""


class IndexBelowValidity(RecdetError):
    """A fixed-order spec was queried between its order and first_valid_k."""


class SpecSyntaxError(RecdetError):
    """Input text does not match the spec grammar."""

    exit_code = 1

    def __init__(self, line: int, col: int, message: str) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.reason = message


class SpecSemanticError(RecdetError):
    """Grammatically valid input whose content is inconsistent."""

    exit_code = 1

    def __init__(self, message: str, line: int | None = None) -> None:
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
        self.reason = message


class MissingParams(RecdetError):
    """The family requires a parameter list and none was given."""

    exit_code = 1


class UnexpectedParams(RecdetError):
    """The family takes no parameters but some were given."""

    exit_code = 1


class OutOfRange(RecdetError):
    """Index outside the valid range of a family or parameter list."""
