"""Exception types shared across the generator pipeline.

A class is kept only where some ``except`` tells it apart; every other
failure is a `BrepForgeError` with its message, which `cli.main` prints.
"""


class BrepForgeError(Exception):
    """Base class for all generator errors."""


class Rejected(BrepForgeError):
    """A production `grow` throws away, and why: ``cause`` is one of
    ``CAUSES``."""

    CAUSES = ("infeasible", "collision", "no-contact", "partial-contact", "pinch", "hole", "sliver")

    def __init__(self, cause: str, message: str):
        if cause not in self.CAUSES:
            raise ValueError(f"unknown rejection cause {cause!r}")
        super().__init__(message)
        self.cause = cause


class Discard(BrepForgeError):
    """A sample stream that yields no building, and why: ``reason`` is its
    `discards.csv` reason, one of ``REASONS``."""

    REASONS = ("growth-failed", "room-filter", "unreachable-room", "boolean-failure")

    def __init__(self, reason: str, message: str):
        if reason not in self.REASONS:
            raise ValueError(f"unknown discard reason {reason!r}")
        super().__init__(message)
        self.reason = reason


class MalformedInputError(BrepForgeError):
    """An input file is not JSON or lacks the fields its format needs."""
