"""Exception and warning types shared across the package.

Two abstract bases split the errors by CLI exit code: InputError maps to
exit code 2 (bad data or bad request), NumericError maps to exit code 3
(a computation that cannot proceed, such as an indefinite matrix under the
strict policy).
"""

from __future__ import annotations


class ConvexUQError(Exception):
    """Base class for all package errors."""


class InputError(ConvexUQError):
    """Invalid input data or invalid request (CLI exit code 2)."""


class NumericError(ConvexUQError):
    """Numeric failure during a computation (CLI exit code 3)."""


# domain errors

class DegenerateInterval(InputError):
    """Interval with lower >= upper, or non-finite bounds."""


class DuplicateName(InputError):
    """Repeated variable name in a marginal spec or sample header."""


class NameMismatch(InputError):
    """Sample columns do not match the marginal spec's variable names."""


class SampleOutsideMarginal(InputError):
    """A sample entry lies outside its marginal interval."""

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class DimensionMismatch(InputError):
    """Vector or matrix dimension does not match the model dimension."""


# correlation errors

class ZeroDeviation(InputError):
    """A sample column sits identically at its midpoint; the correlation
    denominator vanishes."""


class InfeasibleFit(InputError):
    """No parameter in the clamped range encloses all sample pairs."""

    def __init__(self, message: str, gap: float | None = None):
        super().__init__(message)
        self.gap = gap


class NotPositiveDefinite(NumericError):
    """Matrix fails the positive-definiteness requirement."""

    def __init__(self, message: str, lambda_min: float | None = None):
        super().__init__(message)
        self.lambda_min = lambda_min


class SingularShape(NumericError):
    """Shape matrix is singular to working precision."""


# model errors

class NotEllipsoid(InputError):
    """Exact 2D projection requested of a non-ellipsoid model."""


class IndexOutOfRange(InputError):
    """Variable index outside its range: 0..n-1 in the library, 1..n on the CLI."""


class ParseError(InputError):
    """Malformed file; message carries line/field diagnostics."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        parts = [message]
        if line is not None:
            parts.append(f"line {line}")
        if field is not None:
            parts.append(f"field '{field}'")
        super().__init__(": ".join(parts) if len(parts) > 1 else message)
        self.line = line
        self.field = field


# limit-state errors

class LimitStateSyntaxError(InputError):
    """Syntax error in a limit-state expression; offset is the 0-based byte
    position of the offending character (or end of input)."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownCharacter(LimitStateSyntaxError):
    """Character outside the limit-state grammar's alphabet."""


class UnboundVariable(InputError):
    """Limit-state expression refers to a name that is neither a model
    variable nor a supplied binding."""

    def __init__(self, message: str, names=()):
        super().__init__(message)
        self.names = tuple(names)


class EvaluationError(ConvexUQError):
    """Limit-state evaluation hit a domain error (division by zero,
    fractional power of a negative)."""


class NoSurfaceFound(NumericError):
    """The limit-state function keeps one sign on the whole search ball;
    eta_max is then a lower bound on the reliability index."""

    def __init__(self, message: str, eta_max: float):
        super().__init__(message)
        self.eta_max = eta_max


# warnings

class DegenerateData(UserWarning):
    """Data cannot support a clean fit (clamped or relaxed correlation fit)."""


class IllConditioned(UserWarning):
    """Characteristic matrix condition number above 1e12."""
