"""Error and warning hierarchy.

Exceptions are grouped by how the CLI reports them: configuration
problems exit with code 2, data problems with 3, numeric failures
with 4. Library callers can catch the group bases.
"""


class RocinferError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(RocinferError):
    """Invalid run configuration (bad flags, missing required options)."""

    exit_code = 2


class DataError(RocinferError):
    """The supplied data cannot support the requested computation."""

    exit_code = 3


class NumericError(RocinferError):
    """A numeric procedure failed or was given invalid parameters."""

    exit_code = 4


# -- data errors ------------------------------------------------------------

class MissingColumnError(DataError):
    pass


class NonNumericMarkerError(DataError):
    pass


class BadTagError(DataError):
    pass


class EmptyGroupError(DataError):
    pass


class UnknownLevelError(DataError):
    pass


class TooFewPointsError(DataError):
    pass


class ZeroVarianceError(DataError):
    pass


class NoLocalDataError(DataError):
    pass


# -- numeric errors ---------------------------------------------------------

class BadAlphaError(NumericError):
    pass


class BadStickError(NumericError):
    pass


class NotSPDError(NumericError):
    pass


class DimMismatchError(NumericError):
    pass


class BadGridError(NumericError):
    pass


class BracketFailError(NumericError):
    pass


class NumericalCollapseError(NumericError):
    pass


class RankDeficientError(NumericError):
    pass


class MissingDrawsError(NumericError):
    pass


# -- warnings ---------------------------------------------------------------

class RocinferWarning(UserWarning):
    """Base class for package warnings (collected into result envelopes)."""


class CollinearityWarning(RocinferWarning):
    """Design matrix has exactly collinear columns; kept, not dropped."""


class DegenerateGridWarning(RocinferWarning):
    """Bandwidth cross-validation could not separate candidates."""


class ExtrapolationWarning(RocinferWarning):
    """A spline basis was evaluated past its boundary knots (linear tails)."""


class ClampWarning(RocinferWarning):
    """A variance estimate was clamped at its lower floor."""
