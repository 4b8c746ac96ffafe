"""Exception hierarchy shared by all modules.

Two families matter to callers: InputError for malformed input text
(surface syntax, documents, command lines) and DomainError for violated
mathematical preconditions.  The command-line front door maps the first
family to exit code 1 and the second to exit code 2.
"""

from __future__ import annotations

import re

_CAMEL = re.compile(r"(?<!^)(?=[A-Z])")


class DiffAlgError(Exception):
    """Base class for every error raised by this package."""

    @property
    def slug(self) -> str:
        """Machine-readable kebab-case name, e.g. ``constant-divisor``."""
        return _CAMEL.sub("-", type(self).__name__).lower()


class InputError(DiffAlgError):
    """Malformed input text."""


class ParseError(InputError):
    """Surface syntax violates the grammar."""

    def __init__(self, position: int, expected: str, found: str = ""):
        self.position = position
        self.expected = expected
        self.found = found
        detail = f"at position {position}: expected {expected}"
        if found:
            detail += f", found {found}"
        super().__init__(detail)


class UnknownIndeterminate(InputError):
    """An identifier is not among the declared indeterminates."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"indeterminate {name!r} is not declared")


class ExponentOutOfRange(InputError):
    """An exponent or derivative order reaches 2**63, a derivative lies past
    field 4095, or a coefficient, typed or computed, has more decimal digits
    than ``int()`` and ``str()`` convert (``sys.get_int_max_str_digits()``)."""


class DocumentError(InputError):
    """A structured key/value document is malformed."""


class DomainError(DiffAlgError):
    """A mathematical precondition is violated."""


class ZeroPolynomial(DomainError):
    """The operation is undefined for the zero polynomial."""


class ConstantPolynomial(DomainError):
    """The polynomial is free of the main indeterminate."""


class ConstantDivisor(DomainError):
    """The divisor is free of the main indeterminate."""


class ZeroTarget(DomainError):
    """The witness target polynomial is zero."""


class ReducesIntoIdeal(DomainError):
    """The target reduces to zero against the minimal polynomial."""


class VanishingResultant(DomainError):
    """A resultant that must not vanish is zero; the divisor is reducible."""
