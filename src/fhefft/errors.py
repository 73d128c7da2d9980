"""Exception types shared across the package, and the integer rules it
owns, here because every module imports this one: ``_is_count`` for an
integer parameter and ``_is_pow2``, the one power-of-two predicate.  A
Python or numpy integer passes them, a bool, float or text does not;
each caller raises its own error type."""

import numbers


def _is_count(n, low=1) -> bool:
    """Whether ``n`` is an integer that is not a bool, at least ``low``."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= low


def _is_pow2(n) -> bool:
    """Whether ``n`` is an integer power of two (a bool is not)."""
    return _is_count(n) and not n & (n - 1)


class FhefftError(Exception):
    """Base class for all package errors."""


class ParameterError(FhefftError):
    """Scheme parameters violate a validity constraint."""


class UsageError(FhefftError):
    """An API contract was violated (mixed engines, mismatched formats, ...)."""


class CapabilityError(FhefftError):
    """The operation needs key material this engine does not hold."""


class NoiseOverflowError(FhefftError):
    """Ciphertext noise (or depth) exceeded the decryptable budget."""


class RangeError(FhefftError):
    """A real value does not fit the fixed-point format."""


class ParseError(FhefftError):
    """A file could not be parsed; carries location information when known."""

    def __init__(self, message, path=None, line=None, offset=None):
        loc = ""
        if path is not None:
            loc += str(path)
        if line is not None:
            loc += f":{line}"
        if offset is not None:
            loc += f"+{offset}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line
        self.offset = offset
