"""Exception types shared across the package, and the type, integer,
probability and 0/1 checks that every parameter check goes through."""

import numbers


class MultipoolError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(MultipoolError, ValueError):
    """An argument violates an operation's domain (range, shape, consistency)."""


class UnsupportedFieldError(DomainError):
    """The requested field order is not a supported prime power."""


class DesignBoundError(DomainError):
    """The requested multiplicity exceeds what designs of this size admit."""


class NotApplicableError(MultipoolError):
    """A formula was requested outside the hypotheses under which it holds."""


class InfeasibleError(MultipoolError):
    """No parameter value under the configured cap meets the target.

    Carries ``raw_bound``, the real-valued lower bound that exceeded the cap,
    so callers can report how far out of reach the target was.
    """

    def __init__(self, message: str, raw_bound: float):
        super().__init__(message)
        self.raw_bound = raw_bound


class NoSolutionError(DomainError):
    """The target value lies outside the achievable range."""


class UndefinedResultError(MultipoolError, ArithmeticError):
    """The requested quantity is a conditional with zero mass to condition on."""


class MatrixFormatError(MultipoolError, ValueError):
    """A design file could not be parsed.

    ``line`` and ``column`` are 1-based when the location is known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


def require_instance(what: str, value, kind: type) -> None:
    """Raise DomainError unless ``value`` is a ``kind``."""
    if not isinstance(value, kind):
        raise DomainError(f"{what} must be a {kind.__name__}, got {value!r}")


def require_integer(what: str, value, least: int | None = None, most: int | None = None) -> int:
    """``value`` as a Python int; raise DomainError unless it is a Python
    or numpy integer other than a bool, at least ``least`` when that is
    given, and in [least, most] when ``most`` is given too."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if least is not None and value < least:
        rule = {0: "be non-negative", 1: "be positive"}.get(least, f"be at least {least}")
        raise DomainError(f"{what} must {rule}, got {value}")
    if most is not None and value > most:
        raise DomainError(f"{what} must lie in [{least}, {most}], got {value}")
    return value


def require_probability(what: str, value, open: bool = False) -> float:
    """``value`` as a Python float; raise DomainError unless it is a
    Python or numpy real number in [0, 1], or in (0, 1) when ``open``.
    Bools and NaN are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{what} must be a real number, got {value!r}")
    # Compared before the float conversion, which a huge int would
    # overflow, and after it, which may round a tiny fraction to 0.
    if 0 <= value <= 1 and (not open or 0.0 < float(value) < 1.0):
        return float(value)
    interval = "strictly inside (0, 1)" if open else "in [0, 1]"
    raise DomainError(f"{what} must lie {interval}, got {value}")


def require_binary(what: str, values) -> None:
    """Raise DomainError unless every entry of the array ``values`` is 0
    or 1."""
    if values.dtype != bool and ((values != 0) & (values != 1)).any():
        raise DomainError(f"{what} must be 0 or 1")
