"""Exception taxonomy shared by every fsplit module.

All library errors derive from FsplitError so callers (and the CLI exit-code
mapping) can distinguish mathematical precondition failures from budget stops.
"""

from __future__ import annotations

# Default bound shared by every cost guard: q^n on the main path and in
# standard-monomial enumeration, the Gorenstein staircase of S/(I + sop) in
# ``splitting._socle``, matrix entries in the oracle.
DEFAULT_BUDGET = 10**6


def excerpt(value, limit: int = 60) -> str:
    """str(value), cut to ``limit`` characters so a refusal stays one short line.

    An int too long for ``str`` (past Python's digit limit) is named by its size.
    """
    try:
        text = str(value)
    except ValueError:
        if not isinstance(value, int):
            raise
        text = f"an integer of {value.bit_length()} bits"
    return text if len(text) <= limit else text[:limit] + " ..."


class FsplitError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatch(FsplitError):
    """Operands belong to different coefficient fields."""


class RingMismatch(FsplitError):
    """Operands belong to different polynomial rings."""


class DivisionByZero(FsplitError, ZeroDivisionError):
    """Division by the zero element of a field."""


class ExponentOverflow(FsplitError, OverflowError):
    """A monomial exponent left the supported 16-bit range."""


class ZeroDivisorColon(FsplitError):
    """Colon ideal requested against the zero ideal."""


class NotArtinian(FsplitError):
    """A length was requested for a quotient of infinite length."""


class NotGorenstein(FsplitError):
    """The socle is not one-dimensional."""


class InvalidSocle(FsplitError):
    """A user-supplied element does not generate the socle."""


class NotContaining(FsplitError):
    """The ideal is not contained in the given coordinate prime."""


class NotHomogeneous(FsplitError):
    """An operation restricted to homogeneous ideals got an inhomogeneous one."""


class MissingFlag(FsplitError):
    """A check that needs a user-asserted hypothesis flag was run without it."""


class NonPrimeCharacteristic(FsplitError):
    """The requested characteristic is not a prime below 2^16: q = p^e is an
    exponent of n^[q] and sop^[q], and exponents stay below 2^16."""


class InternalInconsistency(FsplitError):
    """Two routes that must agree exactly disagreed; indicates a bug."""


class BudgetExceeded(FsplitError):
    """The oracle's matrix-entry budget was exceeded."""


class CostGuardExceeded(FsplitError):
    """The q^n standard-monomial budget was exceeded.

    ``partial`` carries any results completed before the guard fired.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class _Located(FsplitError):
    """An error that carries a ring-file line and column (0 when unknown)."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        if line:
            where = f"line {line}, column {column}" if column else f"line {line}"
            message = f"{where}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class DuplicateVariable(_Located):
    """Variable or transcendental names collide."""


class ParseError(_Located):
    """Ring-spec text could not be parsed."""
