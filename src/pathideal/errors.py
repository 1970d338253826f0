"""Shared error types."""


class BoundExceededError(RuntimeError):
    """A configured size bound (vertex count, generator count) was exceeded."""


class CheckFailedError(RuntimeError):
    """An internal exactness or validity check failed: a bug, not bad input."""
