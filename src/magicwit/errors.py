"""Exception types shared across the package."""


class ResourceLimitError(RuntimeError):
    """An enumeration, a grid, a coefficient tensor or a see-saw register would exceed its limit.

    Every limit is a module constant, checked before the large array is allocated.
    """


class InvariantError(AssertionError):
    """A runtime self-check failed.

    Raised explicitly by `require`, so that the check still runs under
    `python -O`, which strips `assert` statements.
    """


def require(ok, message: str) -> None:
    """Raise InvariantError(message) unless `ok` holds."""
    if not ok:
        raise InvariantError(message)
