"""Shared exception types."""
from __future__ import annotations


class CapacityError(RuntimeError):
    """A requested size exceeds a configured capacity ceiling.

    Raised instead of silently attempting runs whose time or memory cost
    would be astronomical.  The message names the ceiling and, where one
    exists, the override knob, so the caller can raise it deliberately.
    """


class ConjectureViolation(RuntimeError):
    """An exact property expected of the operator sum or the census failed.

    Carries a ``details`` dict describing what was checked and what was
    found, so verification drivers can fold the failure into a report
    instead of crashing; ``check``, when given, names the report check
    the failure belongs to.
    """

    def __init__(self, message: str, details: dict | None = None,
                 check: str | None = None):
        super().__init__(message)
        self.details = details or {}
        self.check = check
