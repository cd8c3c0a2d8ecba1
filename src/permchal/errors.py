"""Exception hierarchy shared across the package."""

import operator


class PermchalError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PermchalError, ValueError):
    """Inputs violate a documented precondition or type invariant."""


class ContractViolation(PermchalError, RuntimeError):
    """An adversary broke its protocol contract.

    Raised for over-long advice strings, queries over the budget and
    inverse inner queries in games that forbid them. A query outside the
    game's query space is a ``ValidationError``.
    """


def nonnegative_int(value, what: str) -> int:
    """``value`` as an int; a ``ValidationError`` naming ``what`` unless it
    is a non-negative integer (bool and numpy integers pass, floats do not)."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer") from None
    if value < 0:
        raise ValidationError(f"{what} must be non-negative")
    return value
