"""Exception types shared across the library."""


class ValidationError(ValueError):
    """Input violates a structural precondition (shapes, sums, ranges)."""


class ConfigurationError(ValueError):
    """A solver configuration is unusable before any work starts (e.g. CFL)."""


class DegenerateIntegralError(ArithmeticError):
    """A reduction needed a non-zero integral but got zero."""


class NumericError(ArithmeticError):
    """Non-finite value hit mid-run."""
