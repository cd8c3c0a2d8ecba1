"""Exception hierarchy shared across the package."""


class PermchalError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PermchalError, ValueError):
    """Inputs violate a documented precondition or type invariant."""


class ContractViolation(PermchalError, RuntimeError):
    """An adversary broke its protocol contract.

    Raised for over-long advice strings, queries over the budget, a plan
    invocation after answers were delivered, inverse inner queries in
    games that forbid them, and queries outside the declared query spaces.
    """
