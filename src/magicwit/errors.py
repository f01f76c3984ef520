"""Exception types shared across the package, and the checks that raise them."""

import math


class ResourceLimitError(RuntimeError):
    """A count past its limit, raised by `require_count` before anything that size is built."""


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
    written as its powers (b^1 as b), so 3^(2 10^10) costs no time.  A
    number with more digits than Python writes in decimal is written as
    (10^x), x = log10 of it to 6 significant digits.
    """
    if any(b > 1 and e > 0 and (b > budget or e > budget.bit_length()) for b, e in powers):
        count = " x ".join(
            f"{write_count(b)}^{write_count(e)}" if e != 1 else write_count(b) for b, e in powers
        )
    else:
        count = math.prod(b**e for b, e in powers)
        if count <= budget:
            return count
        count = write_count(count)
    raise ResourceLimitError(f"{count} {what} {budget}")


def write_count(x: int) -> str:
    """x in decimal, or as (10^log10 x) if Python refuses to write its digits."""
    try:
        return str(x)
    except ValueError:  # past sys.get_int_max_str_digits()
        return f"(10^{math.log10(x):.6g})"
