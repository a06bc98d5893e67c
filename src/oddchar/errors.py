"""Exception hierarchy shared by all modules."""

from . import _HOMES

__all__ = _HOMES["errors"]


class OddcharError(Exception):
    """Base class for all library errors."""


class DomainError(OddcharError):
    """An argument violates a documented precondition."""


class TheoremViolationError(OddcharError):
    """A uniqueness/existence guarantee failed; must never fire on valid input."""


class EnumerationCapError(OddcharError):
    """An enumeration would exceed the hard element cap; never silently truncated."""


DEFAULT_CAP = 200_000
