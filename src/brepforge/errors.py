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


class Refusal(Exception):
    """A command that will not run as asked: ``message`` is the one stderr
    line `cli.main` prints, and ``status`` the exit code it returns (2, a
    usage error, unless given)."""

    def __init__(self, message: str, status: int = 2):
        super().__init__(message)
        self.status = status
