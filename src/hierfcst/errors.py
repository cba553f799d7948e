"""Exception types shared across the package, and the range check its
constructors share."""


class HierfcstError(Exception):
    """Base class for all package-specific errors."""


class ParseError(HierfcstError):
    """A CSV row could not be parsed. Carries the 1-based line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class DuplicateKeyError(HierfcstError):
    """Two records share the same (item_id, delivery_period, lead_time)."""


class DomainError(HierfcstError):
    """A value violates a domain constraint (negative quantity, bad target)."""


class WindowRangeError(HierfcstError):
    """A diagonal-feeding window does not fit inside the tensor."""


class NotFittedError(HierfcstError):
    """An operation requires fitted state that is missing."""


class IllConditionedError(HierfcstError):
    """A linear solve failed; typically fixable with a positive penalty."""


class DensityError(HierfcstError):
    """Observed-entry density is below the factorization floor."""


class OutOfScopeError(HierfcstError):
    """A requested model family is deliberately not implemented."""


def require_at_least(name, value, low, strict=False):
    """Raise HierfcstError "<name> must be >= <low>, got <value>" (> when
    strict) unless value compares so: NaN, or a value that does not
    compare with a number, fails."""
    try:
        ok = value > low if strict else value >= low
    except TypeError:
        ok = False
    if not ok:
        raise HierfcstError(f"{name} must be {'>' if strict else '>='} {low}, got {value}")
