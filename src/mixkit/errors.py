"""Exception types shared across the toolkit, and the check of count fields."""

import operator


class MixtureError(Exception):
    """Base class for every error raised by this package."""


class DomainError(MixtureError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InvalidMeasureError(MixtureError, ValueError):
    """A mixing measure violates its invariants."""


class IntervalTooSmallError(MixtureError, ValueError):
    """A search interval fails to cover the mass of a density."""


class DegeneratePointError(MixtureError):
    """An observation has zero density under every component.

    The offending position in the dataset is available as ``index``.
    """

    def __init__(self, index, message=None):
        self.index = int(index)
        if message is None:
            message = f"observation {index} has zero density under every component"
        super().__init__(message)


class EmptyComponentError(MixtureError):
    """A component lost all responsibility or members during fitting.

    The 1-based component label is available as ``component``.
    """

    def __init__(self, component, message=None):
        self.component = int(component)
        if message is None:
            message = f"component {component} received no observations"
        super().__init__(message)


class SpecDocumentError(MixtureError, ValueError):
    """A model specification document failed to parse or validate."""


class DataFileError(MixtureError, ValueError):
    """A data file could not be read or parsed."""


def _require_counts(config, *names):
    """DomainError unless each named field of ``config`` is an integer.

    Python and numpy integers pass (anything ``operator.index`` accepts); a
    float such as 2.5 or 2.0 is rejected here rather than deep inside a run.
    """
    for name in names:
        value = getattr(config, name)
        try:
            operator.index(value)
        except TypeError:
            raise DomainError(f"{name} must be an integer, not {value!r}") from None
