"""Exception types shared across the package, and the stage wrapper."""


class TplecError(Exception):
    """Base class for every error this package raises on bad input."""


class StageError(TplecError):
    """An error whose message already names the stage it came from."""


def stage(name, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with a ``TplecError`` relabelled by stage.

    The message becomes ``name: Type: message``, the one-line diagnostic
    the command line prints after ``error: ``.
    """
    try:
        return fn(*args, **kwargs)
    except TplecError as exc:
        raise StageError(f"{name}: {type(exc).__name__}: {exc}") from exc


class InvalidArgument(TplecError, ValueError):
    """An argument is outside its valid range (also a ``ValueError``)."""


class UnknownAttribute(TplecError, AttributeError):
    """A module has no attribute of that name (also an ``AttributeError``)."""


class TooFewPoints(TplecError):
    """Fewer data points than the fit requires."""


class NonFiniteValue(TplecError):
    """A value is NaN or infinite."""


class NonPositiveValue(TplecError):
    """A value that must be strictly positive is zero or negative."""


class DegenerateX(TplecError):
    """All x values coincide, so the slope is undefined."""


class SingularNormalEquations(TplecError):
    """Damped normal matrix stayed singular even at maximum damping."""


class NoAsymptote(TplecError):
    """The fitted curve has no interior maximum (w <= 0 or d >= 0)."""


class EmptyCommunity(TplecError):
    """All counts in a community are zero."""


class InvalidPermutation(TplecError):
    """Accumulation order is not a permutation of 0..n-1."""


class MalformedHeader(TplecError):
    """Input file header does not match the expected layout."""


class NotUtf8(TplecError):
    """Input bytes are not UTF-8."""


class MalformedCsv(TplecError):
    """A CSV record the csv module cannot read (a field over its size limit)."""


class RaggedRow(TplecError):
    """Row length disagrees with the header."""


class UnparseableDate(TplecError):
    """A date column could not be parsed."""


class UnparseableCount(TplecError):
    """A count cell is not a nonnegative integer."""


class CountOverflow(TplecError):
    """A sum of counts exceeds the int64 range."""


class NegativeCount(TplecError):
    """Abundance counts must be nonnegative."""


class DuplicateSampleId(TplecError):
    """The same sample identifier appears twice."""


class DuplicateCountry(TplecError):
    """The continent map lists the same country twice."""


class UnmappedCountry(TplecError):
    """A country in the series has no continent assignment."""


class ReservedRegion(TplecError):
    """A continent takes the name of the synthetic World total."""


class DateOutOfRange(TplecError):
    """Requested date lies outside the series' date range."""
