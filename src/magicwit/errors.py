"""Exception types shared across the package, and the checks that raise them."""

import math


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


def require_count(powers, budget: int, what: str) -> int:
    """The count prod b^e over (base, exponent) pairs, if it is at most `budget`.

    Otherwise raises ResourceLimitError("<count> <what> <budget>").  A power
    with b > budget, or with e past the budget's bit length (b^e >= 2^e),
    exceeds the budget alone; then no power is built and the count is
    written as its powers, so a count such as 3^(2 10^10) costs no time.
    """
    if any(b > 1 and e > 0 and (b > budget or e > budget.bit_length()) for b, e in powers):
        count = " x ".join(f"{b}^{e}" for b, e in powers)
    else:
        count = math.prod(b**e for b, e in powers)
        if count <= budget:
            return count
    raise ResourceLimitError(f"{count} {what} {budget}")
